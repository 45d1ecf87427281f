"""Signed counting of chains inside a marked subposet of the boolean lattice.

For a predicate `good` on the proper nonempty subsets of [n], computes

    sum over chains 0 = T_0 < T_1 < ... < T_j < full, all T_i good,
    of (-1)^j

which the set routes and three identity kinds need, each as one call on
a stack of predicates.  The recursion v(T) = -1 - sum of v over good
proper subsets of T is evaluated level by level with a subset-sum (zeta)
transform: O(n^2 2^n) array work per predicate, one pass per block of
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


def alternating_chain_sum(n: int, good: np.ndarray) -> np.ndarray:
    """`good` is a boolean array whose last axis, of length 2^n, is indexed
    by mask: one predicate gives a 0-d result, a (k, 2^n) stack k results,
    for any k.  Entries at 0 and at the full mask are ignored (chain
    endpoints are fixed, not marked)."""
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
