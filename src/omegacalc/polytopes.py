"""Exact rational membership tests and pointwise decomposition identities.

Everything here works over Fraction coordinates; no floating point.  The
four identity kinds express the indicator of a matroid base polytope as a
signed sum of indicators of Schubert-type polytopes over chains of
subsets or flats; check_identity evaluates both sides at one point.

The sums over chains of arbitrary subsets reduce, at a fixed point, to an
alternating chain count over the subsets whose inequality the point
satisfies (altsum); the sums over chains of flats are evaluated by a
rank-ordered pass over the lattice of flats.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .altsum import alternating_chain_sum
from .bitops import popcount
from .errors import Infeasible, VariantInapplicable
from .lattice import flat_lattice
from .matroid import Matroid

IDENTITY_CAP = 12

RationalPoint = tuple[Fraction, ...]


class IdentityKind(str, Enum):
    INWARD_SETS = "inward-sets"
    OUTWARD_SETS = "outward-sets"
    INNER_FLATS = "inner-flats"
    OUTER_FLATS = "outer-flats"


def as_point(coords: Sequence) -> RationalPoint:
    return tuple(Fraction(c) for c in coords)


def subset_sums(point: RationalPoint) -> list[Fraction]:
    """Coordinate sums over every subset mask, by one-bit recursion."""
    n = len(point)
    sums: list[Fraction] = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + point[low.bit_length() - 1]
    return sums


def in_hypersimplex(n: int, r: int, point: RationalPoint) -> bool:
    if len(point) != n:
        raise ValueError("point dimension mismatch")
    return all(0 <= c <= 1 for c in point) and sum(point) == r


def in_base_polytope(matroid: Matroid, point: RationalPoint) -> bool:
    """Rank-function description: all subset sums bounded by rank, total
    sum equal to the rank.  Nonnegativity is implied by these."""
    if len(point) != matroid.n:
        raise ValueError("point dimension mismatch")
    sums = subset_sums(point)
    if sums[matroid.full_mask] != matroid.r:
        return False
    rank = matroid.rank
    return all(sums[mask] <= rank(mask) for mask in range(1, matroid.full_mask))


def in_schubert_lower(
    n: int, chain: Sequence[int], profile: Sequence[int], point: RationalPoint
) -> bool:
    if not in_hypersimplex(n, profile[-1], point):
        return False
    return all(
        sum(point[e] for e in range(n) if s >> e & 1) <= a
        for s, a in zip(chain[:-1], profile[1:-1])
    )


def in_schubert_upper(
    n: int, chain: Sequence[int], profile: Sequence[int], point: RationalPoint
) -> bool:
    if not in_hypersimplex(n, profile[-1], point):
        return False
    return all(
        sum(point[e] for e in range(n) if s >> e & 1) >= a
        for s, a in zip(chain[:-1], profile[1:-1])
    )


def in_halfopen(
    n: int, chain: Sequence[int], profile: Sequence[int], point: RationalPoint
) -> bool:
    """Hypersimplex cut by strict lower bounds along the interior chain."""
    if not in_hypersimplex(n, profile[-1], point):
        return False
    return all(
        sum(point[e] for e in range(n) if s >> e & 1) > a
        for s, a in zip(chain[:-1], profile[1:-1])
    )


def check_identity(
    matroid: Matroid, kind: IdentityKind, point: RationalPoint
) -> tuple[int, int]:
    """(lhs, rhs) of the chosen decomposition identity at one point.

    lhs is the indicator of the base polytope; rhs the signed sum of
    member indicators.  Both are exact integers and must coincide.
    """
    n, r = matroid.n, matroid.r
    if n > IDENTITY_CAP:
        raise Infeasible(f"identity checking scans all subsets; capped at n = {IDENTITY_CAP}")
    if len(point) != n:
        raise ValueError("point dimension mismatch")
    if kind in (IdentityKind.INNER_FLATS, IdentityKind.OUTER_FLATS) and matroid.has_loops():
        raise VariantInapplicable("flats identities require a loop-free matroid")
    sums = subset_sums(point)
    full = matroid.full_mask
    in_box = all(0 <= c <= 1 for c in point) and sums[full] == r
    rank = matroid.rank
    lhs = int(
        sums[full] == r
        and all(sums[mask] <= rank(mask) for mask in range(1, full))
    )
    if not in_box:
        return lhs, 0
    if kind is IdentityKind.INWARD_SETS:
        good = np.fromiter(
            (sums[mask] <= rank(mask) for mask in range(full + 1)),
            dtype=bool,
            count=full + 1,
        )
        term = alternating_chain_sum(n, good)
        rhs = term if n % 2 == 1 else -term
    elif kind is IdentityKind.OUTWARD_SETS:
        good = np.fromiter(
            (sums[mask] > rank(mask) for mask in range(full + 1)),
            dtype=bool,
            count=full + 1,
        )
        rhs = alternating_chain_sum(n, good)
    else:
        rhs = _flats_identity_sum(matroid, kind, sums)
    return lhs, rhs


def _flats_identity_sum(matroid: Matroid, kind: IdentityKind, sums) -> int:
    lattice = flat_lattice(matroid)
    full = matroid.full_mask
    rank = matroid.rank
    strict = kind is IdentityKind.OUTER_FLATS
    mobius = lattice.mobius

    def good(flat: int) -> bool:
        if strict:
            return sums[flat] > rank(flat)
        return sums[flat] <= rank(flat)

    # t(G) = signed, weighted sum over chains from the bottom flat to G
    # whose interior flats all satisfy their inequality
    order = [f for level in lattice.flats_by_rank for f in level]
    t: dict[int, int] = {0: 1}
    for g in order:
        if g == 0:
            continue
        if g != full and not good(g):
            continue
        acc = 0
        for f, tf in t.items():
            if (f & ~g) == 0 and f != g:
                acc += tf * (mobius(f, g) if not strict else 1)
        t[g] = -acc
    total = t.get(full, 0)
    return total if not strict else -total
