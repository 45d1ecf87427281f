"""Signed counting of chains inside a marked subposet of the boolean lattice.

For a predicate `good` on the proper nonempty subsets of [n], computes

    sum over chains 0 = T_0 < T_1 < ... < T_j < full, all T_i good,
    of (-1)^j

which three identity kinds need, each as one call on a stack of
predicates.  The recursion v(T) = -1 - sum of v over good proper subsets
of T is evaluated level by level with a subset-sum (zeta) transform:
O(n^2 2^n) array work per predicate, one pass per block of
`block_rows(n)` predicates, so memory stays bounded by the block.

int64 cannot overflow for n <= 16.  Let a(k) be the Fubini number, the
number of chains from the empty set to a k-set in the boolean lattice
(Stanley, EC I): a(0) = 1, and the sum of a(|S|) over the proper subsets
S of T is a(|T|).  From v(T) = -1 - sum of v(S) over the marked S < T,
induction gives |v(T)| <= a(0) + sum of a(|S|) over nonempty S < T =
a(|T|).  A zeta partial sum at X adds v over submasks of X, and v is 0
at the empty and the full set, so it is 0 at X = empty, at most
2 a(|X|) <= a(|X| + 1) at any other proper X and a(n) - 1 at X = full;
the result is at most a(n).  All of these are at most
a(16) = 5,315,654,681,981,355 < 2^63.

The vector mode's int64 arithmetic wraps modulo 2^64, which is exact when
the values read lie in [-2^63, 2^63): a chain count, at most a(16), and a
signed sum of at most C(10, 4) = 210 paths' alternating counts, < 2^63.
"""

from __future__ import annotations

import numpy as np

from .bitops import bits

BATCH_SUMS = 1 << 16  # mask entries per block of rows


def block_rows(n: int) -> int:
    """Rows of 2^n masks per block: max(1, 2^16 >> n)."""
    return max(1, BATCH_SUMS >> n)


_POPCOUNT_CACHE: dict[int, np.ndarray] = {}


def popcounts(n: int) -> np.ndarray:
    """Popcount of every mask below 2^n, cached per n."""
    cached = _POPCOUNT_CACHE.get(n)
    if cached is None:
        masks = np.arange(1 << n, dtype=np.uint32)
        cached = np.zeros(1 << n, dtype=np.int8)
        while masks.any():
            cached += (masks & 1).astype(np.int8)
            masks >>= 1
        _POPCOUNT_CACHE[n] = cached
    return cached


def submask_array(mask: int) -> np.ndarray:
    """Every submask of mask, ascending, as an int64 array: one doubling
    per element, each new (higher) bit appended to all the submasks so far."""
    out = np.zeros(1, dtype=np.int64)
    for e in bits(mask):
        out = np.concatenate((out, out | (1 << e)))
    return out


def alternating_chain_sum(n: int, good: np.ndarray, start=None, transfer=None) -> np.ndarray:
    """`good` is a boolean array whose last axis, of length 2^n, is indexed
    by mask: one predicate gives a 0-d result, a (k, 2^n) stack k results,
    for any k.  Entries at 0 and at the full mask are ignored (chain
    endpoints are fixed, not marked).  Given a start vector U(0) and one
    predicate, the same graded zeta runs on vectors (Bjorklund et al., STOC
    2007): U(t) = transfer(masks, Z) at one level's good masks t, Z(t) the
    sum of U over t's proper subsets, and the result is the sum of U."""
    if start is not None:
        return _vector_sum(n, good, np.asarray(start, dtype=np.int64), transfer)
    rows = good.reshape(-1, 1 << n)
    out = np.empty(len(rows), dtype=np.int64)
    step = block_rows(n)
    for lo in range(0, len(rows), step):
        out[lo : lo + step] = _block_sum(n, rows[lo : lo + step])
    return out.reshape(good.shape[:-1])[()]


def _block_sum(n: int, good: np.ndarray) -> np.ndarray:
    """One result per row of a (k, 2^n) block.  Levels 1 to n - 1 leave
    out the endpoints; the zeta pass works in blocks of 2^(e+1) masks,
    which never straddle two rows."""
    pc = popcounts(n)
    v = np.zeros(good.shape, dtype=np.int64)
    for level in range(1, n):
        marked = good & (pc == level)
        if not marked.any():
            continue
        # subset sums of v: one pass per element e, adding S - e into S + e
        zeta = v.copy()
        for e in range(n):
            z = zeta.reshape(-1, 2, 1 << e)
            z[:, 1, :] += z[:, 0, :]
        v[marked] = -1 - zeta[marked]
    return 1 + v.sum(axis=-1)


def _vector_sum(n: int, good: np.ndarray, start: np.ndarray, transfer) -> np.ndarray:
    """U in one (2^n, width) array, 0 above the levels done.  The zeta pass
    runs on a copy of a small u, or in place and then back (Mobius), clearing
    the rows above; transfer sees BATCH_SUMS / width^2 masks at a time."""
    pc, width = popcounts(n), len(start)
    rows = max(1, BATCH_SUMS // width**2)
    members = np.flatnonzero(good)
    members = members[np.argsort(pc[members], kind="stable")]
    ends = np.searchsorted(pc[members], np.arange(n + 1)).tolist()
    u = np.zeros((1 << n, width), dtype=np.int64)
    u[0] = start
    for level in [k for k in range(1, n) if ends[k] < ends[k + 1]]:
        masks = members[ends[level] : ends[level + 1]]
        zeta = u.copy() if u.size <= BATCH_SUMS else u
        for e in range(n):
            v = zeta.reshape(-1, 2, width << e)
            v[:, 1] += v[:, 0]
        for block in (masks[lo : lo + rows] for lo in range(0, len(masks), rows)):
            u[block] += transfer(block, zeta[block])
        if zeta is u:
            for e in range(n):
                v = u.reshape(-1, 2, width << e)
                v[:, 1] -= v[:, 0]
            np.copyto(u, 0, where=(pc > level)[:, None])
    return u.sum(axis=0)
