"""Signed counting of chains: the graded zeta kernel and the predecessor walk,
and `subset_pass`, the per-element cube pass of the rank table, the flats,
crowding's subset max and the submodularity check.

The graded zeta kernel (Bjorklund, Husfeldt, Kaski and Koivisto, Fourier
meets Mobius, STOC 2007).  From a start vector U(0) it takes one popcount
level at a time and sets U(t) = transfer(t, Z(t)) at the level's marked
masks t, where Z(t) is the sum of U over the proper subsets of t, and
returns the sum of U.  Z comes from one subset-sum (zeta) pass over a
scratch copy of U per level that has a marked mask, except the lowest
such level of a block: below it only U(0) is nonzero, so Z = start at
every marked mask there, with no copy and no pass.  That is O(n^2 2^n)
array work per predicate row, in blocks of `block_rows(n)` rows.  A
block of k rows of width w is stored mask-major, mask t of row i at
entry t k + i, so the zeta step on every element, the lowest included,
adds contiguous runs of at least k w entries: the k rows of a stack
share each step's array add.

With start (1,) and transfer -Z, U(t) = v(t) for the recursion
v(T) = -1 - sum of v over the marked proper subsets S of T, and the
result 1 + sum of v is

    sum over chains 0 = T_0 < T_1 < ... < T_j < full, all T_i marked,
    of (-1)^j

which three identity kinds need, one predicate row per point.  The seven
chain-sum routes whose link reads only t run on vectors (chainsums).  The
predecessor walk takes the same start and transfer over an explicit
weighted relation, in O(links w): Mobius values on the flats (inward-flats
and the inner-flats identity), and the final routes, whose link reads s.

int64 is exact for n <= 16.  Both kernels only add, negate and multiply,
and numpy int64 array arithmetic wraps modulo 2^64, so every value is
right modulo 2^64 and a value read is exact when it lies in
[-2^63, 2^63).  Let a(k) be the Fubini number, the number of chains from
the empty set to a k-set in the boolean lattice (Stanley, EC I): a(0) = 1,
and the sum of a(|S|) over the proper subsets S of T is a(|T|).  In a
scalar row |U(T)| <= a(|T|) by induction, U(0) = 1 included, since U(0)
enters every zeta sum; so zeta(0) = 1, |zeta(X)| <= 2 a(|X|) <=
a(|X| + 1) <= a(16) at every other proper X, and the result is at most
a(n) <= a(16) = 5,315,654,681,981,355 < 2^63: no value wraps at all.  In a
vector row, and in the walk, the values read are a chain count, at most
a(16), and a signed sum over at most C(10, 4) = 210 paths of values at
most a(16) each (for the walk's Mobius rows, see its docstring).
"""

from __future__ import annotations

import numpy as np

from .bitops import bits

BATCH_SUMS = 1 << 16  # mask entries per block of rows
BLOCK_ENTRIES = 1 << 18  # per block: walk terms, subset comparisons, Mobius join triples


def block_rows(n: int) -> int:
    """Rows of 2^n masks per block: max(1, 2^16 >> n)."""
    return max(1, BATCH_SUMS >> n)


def subset_totals(weights: np.ndarray) -> np.ndarray:
    """The sum of `weights` over every subset of its last axis, in its
    dtype: entry [..., S] adds the weights at the bits of S.  Weight j fills
    the masks with top bit j, from the totals of the masks below 2^j."""
    k = weights.shape[-1]
    out = np.zeros(weights.shape[:-1] + (1 << k,), dtype=weights.dtype)
    for j in range(k):
        np.add(out[..., : 1 << j], weights[..., j, None], out=out[..., 1 << j : 2 << j])
    return out


_POPCOUNT_CACHE: dict[int, np.ndarray] = {}


def popcounts(n: int) -> np.ndarray:
    """Popcount of every mask below 2^n, int8, cached per n."""
    cached = _POPCOUNT_CACHE.get(n)
    if cached is None:
        cached = _POPCOUNT_CACHE[n] = subset_totals(np.ones(n, dtype=np.int8))
    return cached


def submask_array(mask: int) -> np.ndarray:
    """Every submask of mask, ascending, as an int64 array."""
    return subset_totals(np.array([1 << e for e in bits(mask)], dtype=np.int64))


LOW_BITS = 5  # elements that step on the transposed copy


def subset_pass(arrays, step) -> list[np.ndarray]:
    """Copies of `arrays` (last axis 2^n, by mask) after step(e, *views)
    for e = 0, ..., n - 1, each view (..., m, 2, run) pairing S - e at
    [..., 0, :] with S + e at [..., 1, :].  The e < k = min(n, LOW_BITS)
    step on the transposed copy, mask h 2^k + l at l 2^(n-k) + h, in runs
    of 2^(e+n-k) instead of 2^e (as in Bjorklund, Husfeldt, Kaski and
    Koivisto, STOC 2007); the copies are returned in mask order."""
    n = arrays[0].shape[-1].bit_length() - 1
    k = min(n, LOW_BITS)
    high = 1 << (n - k)
    work = [_swap(a, high, 1 << k) for a in arrays]
    for e in range(n):
        if e == k:  # back to mask order (the copy is in mask order if k = n)
            work = [_swap(a, 1 << k, high) for a in work]
        run = high << e if e < k else 1 << e
        step(e, *[a.reshape(a.shape[:-1] + (-1, 2, run)) for a in work])
    return work


def _swap(a: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """A copy of a whose last axis, read as rows x cols, is transposed."""
    return a.reshape(a.shape[:-1] + (rows, cols)).swapaxes(-1, -2).copy().reshape(a.shape)


def _negate(masks: np.ndarray, z: np.ndarray) -> np.ndarray:
    return -z


def alternating_chain_sum(n: int, good: np.ndarray, start=None, transfer=None) -> np.ndarray:
    """`good` is a boolean array whose last axis, of length 2^n, is indexed
    by mask: one predicate row gives a 0-d result, a (k, 2^n) stack k
    results, for any k.  Entries at 0 and at the full mask are ignored
    (chain endpoints are fixed, not marked).  Given a start vector of width
    w, `transfer(masks, Z)` maps the (m, w) sums Z at m marked masks to
    their U, and each row's result is the (w,) sum of U."""
    scalar = start is None
    if scalar:
        start, transfer = (1,), _negate
    start = np.asarray(start, dtype=np.int64)
    rows = good.reshape(-1, 1 << n)
    out = np.empty((len(rows), len(start)), dtype=np.int64)
    step = block_rows(n)
    for lo in range(0, len(rows), step):
        out[lo : lo + step] = _zeta_sums(n, rows[lo : lo + step], start, transfer)
    if scalar:
        return out[:, 0].reshape(good.shape[:-1])[()]
    return out.reshape(good.shape[:-1] + start.shape)


def _zeta_sums(n: int, good: np.ndarray, start: np.ndarray, transfer) -> np.ndarray:
    """The kernel on a (k, 2^n) block: U is one (2^n k, w) array, mask
    t of row i at entry t k + i, so the zeta step on element e adds
    contiguous runs of 2^e k w entries; transfer sees BATCH_SUMS / w^2
    masks at a time."""
    rows, width = len(good), len(start)
    chunk = max(1, BATCH_SUMS // width**2)
    # the popcount of each marked mask, 0 elsewhere, in the order of U
    levels = (popcounts(n) * good).T.ravel()
    counts = np.bincount(levels, minlength=n)
    u = np.zeros((rows << n, width), dtype=np.int64)
    u[:rows] = start
    zeta = np.empty_like(u)
    for i, level in enumerate(np.flatnonzero(counts[1:n]) + 1):
        marked = np.flatnonzero(levels == level)
        if i == 0:  # below the lowest marked level only U(0) = start is nonzero
            zeta[marked] = start
        else:
            np.copyto(zeta, u)
            for e in range(n):
                z = zeta.reshape(-1, 2, (rows * width) << e)
                z[:, 1] += z[:, 0]
        for lo in range(0, marked.size, chunk):
            at = marked[lo : lo + chunk]  # one row's entries are its masks
            u[at] = transfer(at // rows if rows > 1 else at, zeta[at])
    return u.reshape(1 << n, rows, width).sum(axis=0)


def subset_pairs(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(upper, below): the positions i, j of every pair of members with
    masks[j] a proper subset of masks[i], ordered by i, then by j.  The
    masks are distinct, each after its subsets, so j < i."""
    rows = max(1, BLOCK_ENTRIES // len(masks))  # rows compared at once
    upper, below = [], []
    for lo in range(0, len(masks), rows):
        block, earlier = masks[lo : lo + rows, None], masks[: lo + rows]
        i, j = np.nonzero(((earlier & ~block) == 0) & (earlier != block))
        upper.append(i + lo)
        below.append(j)
    return np.concatenate(upper), np.concatenate(below)


def predecessor_walk(members: np.ndarray, relation, start, transfer) -> np.ndarray:
    """Z(top) for U(bottom) = start, of width w, and U(t) = transfer(labels,
    Z) at the members between, Z(t) the weighted sum of U over the
    predecessors of t.  `members` holds the labels for `transfer`, bottom
    first and top last, each after its predecessors; `relation` = (upper,
    below, weight) lists the links below -> upper by position, ordered by
    upper, then below, at least one (of weight 0, if need be) into every
    member but the bottom.  Members that do not precede one another are
    summed at once.  In the final routes a path's value is a signed count
    of chains of subsets, at most a(16).  The Mobius callers sum rows
    t(bottom) = 1, t(G) = -good(G) Z(G).  With H(G) the sum of mu(F, G)
    t(F) over F <= G, Mobius inversion gives t(G) = good(G) Z_H(G) and
    H(G) = (good(G) - 1) Z_H(G), Z_H(G) the sum of H over F < G: H is the
    signed chain count through the flats that fail, so |t(G)| <= a(16)."""
    upper, below, weight = relation
    top = len(members) - 1
    starts = np.searchsorted(upper, np.arange(top + 2))  # links into i: starts[i]:starts[i + 1]
    u = np.zeros((top + 1, len(start)), dtype=np.int64)
    u[0] = start
    budget = BLOCK_ENTRIES // max(1, len(start))  # terms per block
    i = 1
    while i < top:
        j = int(np.searchsorted(starts, starts[i] + budget, side="right")) - 1
        j = min(top, max(i + 1, j))
        a, b = starts[i], starts[j]
        inside = upper[a:b][below[a:b] >= i]  # members linked from inside the block
        if inside.size:  # the block ends before the first of them
            j, b = int(inside[0]), starts[inside[0]]
        z = np.add.reduceat(weight[a:b, None] * u[below[a:b]], starts[i:j] - a)
        u[i:j] = transfer(members[i:j], z)
        i = j
    a, b = starts[top : top + 2]
    return weight[a:b] @ u[below[a:b]]
