"""Greedy weight profiles, graded matroids and Bergman-fan membership.

For a weight vector z, the z-maximal basis is found greedily; the
descending profile of its weights, and the matching profile on the
complement, are tie-independent and are computed here directly from the
rank function via threshold sets.  The graded matroid along the level
sets of z is a direct sum of minors on the same ground set; z lies in the
Bergman fan iff that matroid is loop-free, and in its l-thickened
version iff it has at most l loops.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .bitops import mask_of, popcount
from .matroid import Matroid, basis_marks

Weights = tuple[Fraction, ...]


def as_weights(coords: Sequence) -> Weights:
    return tuple(Fraction(c) for c in coords)


def z_max_basis(matroid: Matroid, z: Weights) -> int:
    """Greedy maximum-weight basis; ties broken by element index."""
    order = sorted(range(matroid.n), key=lambda e: (-z[e], e))
    basis = 0
    size = 0
    for e in order:
        candidate = basis | (1 << e)
        if matroid.rank(candidate) > size:
            basis = candidate
            size += 1
            if size == matroid.r:
                break
    return basis


def x_values(matroid: Matroid, z: Weights) -> list[Fraction]:
    """x_p = largest threshold t with rank{e : z(e) >= t} >= p, p = 1..r."""
    values = sorted(set(z), reverse=True)
    out: list[Fraction] = []
    cum = 0
    ranks = []
    for v in values:
        cum |= mask_of(e for e in range(matroid.n) if z[e] >= v)
        ranks.append(matroid.rank(cum))
    for p in range(1, matroid.r + 1):
        for v, rk in zip(values, ranks):
            if rk >= p:
                out.append(v)
                break
    return out


def y_values(matroid: Matroid, z: Weights) -> list[Fraction]:
    """y_q = -(smallest threshold t with corank{e : z(e) > t} <= n-r-q),
    for q = 1..n-r; the negated weights of the complement of the greedy
    basis, sorted ascending."""
    n, r = matroid.n, matroid.r
    values = sorted(set(z))
    coranks = []
    for v in values:
        above = mask_of(e for e in range(n) if z[e] > v)
        coranks.append(popcount(above) - matroid.rank(above))
    out: list[Fraction] = []
    for q in range(1, n - r + 1):
        bound = n - r - q
        for v, ck in zip(values, coranks):
            if ck <= bound:
                out.append(-v)
                break
    return out


def level_chain(z: Weights) -> list[int]:
    """Cumulative level sets of z in decreasing order, ending at the full set."""
    values = sorted(set(z), reverse=True)
    chain = []
    cum = 0
    for v in values:
        cum |= mask_of(e for e in range(len(z)) if z[e] == v)
        chain.append(cum)
    return chain


def graded_matroid(matroid: Matroid, z: Weights) -> Matroid:
    """Direct sum of the successive minors along the level sets of z,
    on the original ground set.  Its bases are exactly the bases of the
    matroid with maximal z-weight."""
    chain = level_chain(z)
    prev = 0
    block_bases: list[list[int]] = []
    for cur in chain:
        subs, _, hit = matroid._minor_bases(cur & ~prev, prev)
        block_bases.append(subs[hit].tolist())
        prev = cur
    bases = [0]
    for blocks in block_bases:
        bases = [b | extra for b in bases for extra in blocks]
    return Matroid(matroid.n, basis_marks(matroid.n, bases))


def bergman_contains(matroid: Matroid, z: Weights) -> bool:
    return graded_matroid(matroid, z).loops() == 0


def thickened_bergman_contains(matroid: Matroid, ell: int, z: Weights) -> bool:
    return popcount(graded_matroid(matroid, z).loops()) <= ell
