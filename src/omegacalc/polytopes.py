"""Exact rational membership tests and pointwise decomposition identities.

Points are tuples of Fraction coordinates; no floating point.  The four
identity kinds express the indicator of a matroid base polytope as a
signed sum of indicators of Schubert-type polytopes over chains of
subsets or flats; check_identity evaluates both sides at one point.

Every rank inequality is decided in exact integers: subset_sums scales a
point by the LCM D of its denominators, builds all 2^n scaled subset sums
S in one subset transform over Python ints, and compares ceil(S/D) with
the rank table as a vector.  Python ints have no bound, so a point with
any numerator or denominator takes the same path.  One SubsetSums serves
every identity kind at its point.

The sums over chains of arbitrary subsets reduce, at a fixed point, to an
alternating chain count over the subsets whose inequality the point
satisfies (altsum); the sums over chains of flats are one rank-ordered
pass over the lattice of flats, with each flat's predecessors and their
Mobius values prepared once per lattice.
"""

from __future__ import annotations

import operator
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .altsum import alternating_chain_sum
from .bitops import bits
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


class SubsetSums(NamedTuple):
    """The coordinate sums of one point over every subset mask, scaled.

    `scaled[S]` is `scale` times the sum over S, an exact Python int.
    `ceiling[S]` is ceil(scaled[S] / scale) clipped to [-1, n + 1]; every
    rank lies in [0, n], so the sum over S is at most r(S) exactly when
    `ceiling[S] <= r(S)`.  `in_box` says every coordinate is in [0, 1].
    """

    scale: int
    scaled: np.ndarray
    ceiling: np.ndarray
    in_box: bool

    def sums_to(self, r: int) -> bool:
        return self.scaled[-1] == self.scale * r

    def within_rank(self, matroid: Matroid) -> np.ndarray:
        """Booleans by mask: the sum over S is at most r(S)."""
        return self.ceiling <= matroid.rank_array()


def subset_sums(point: RationalPoint) -> SubsetSums:
    """Scale by the LCM of the denominators, then one subset transform."""
    n = len(point)
    scale = lcm(*(c.denominator for c in point))
    coords = [c.numerator * (scale // c.denominator) for c in point]
    scaled = np.zeros(1, dtype=object)
    for c in coords:
        scaled = np.concatenate((scaled, scaled + c))
    ceiling = np.clip(-(-scaled // scale), -1, n + 1).astype(np.int64)
    return SubsetSums(scale, scaled, ceiling, all(0 <= c <= scale for c in coords))


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
    return sums.sums_to(matroid.r) and bool(sums.within_rank(matroid).all())


def _in_chain_polytope(
    holds: Callable[[Fraction, int], bool],
    n: int,
    chain: Sequence[int],
    profile: Sequence[int],
    point: RationalPoint,
) -> bool:
    """Hypersimplex cut by `holds(sum over S, a)` along the interior chain."""
    if not in_hypersimplex(n, profile[-1], point):
        return False
    return all(
        holds(sum(point[e] for e in bits(s)), a) for s, a in zip(chain[:-1], profile[1:-1])
    )


def in_schubert_lower(
    n: int, chain: Sequence[int], profile: Sequence[int], point: RationalPoint
) -> bool:
    return _in_chain_polytope(operator.le, n, chain, profile, point)


def in_schubert_upper(
    n: int, chain: Sequence[int], profile: Sequence[int], point: RationalPoint
) -> bool:
    return _in_chain_polytope(operator.ge, n, chain, profile, point)


def in_halfopen(
    n: int, chain: Sequence[int], profile: Sequence[int], point: RationalPoint
) -> bool:
    """Hypersimplex cut by strict lower bounds along the interior chain."""
    return _in_chain_polytope(operator.gt, n, chain, profile, point)


def check_identity(
    matroid: Matroid,
    kind: IdentityKind,
    point: RationalPoint,
    sums: SubsetSums | None = None,
) -> tuple[int, int]:
    """(lhs, rhs) of the chosen decomposition identity at one point.

    lhs is the indicator of the base polytope; rhs the signed sum of
    member indicators.  Both are exact integers and must coincide.
    `sums`, when given, is `subset_sums(point)`, shared between kinds.
    """
    n, r = matroid.n, matroid.r
    if n > IDENTITY_CAP:
        raise Infeasible(f"identity checking scans all subsets; capped at n = {IDENTITY_CAP}")
    if len(point) != n:
        raise ValueError("point dimension mismatch")
    if kind in (IdentityKind.INNER_FLATS, IdentityKind.OUTER_FLATS) and matroid.has_loops():
        raise VariantInapplicable("flats identities require a loop-free matroid")
    if sums is None:
        sums = subset_sums(point)
    within = sums.within_rank(matroid)
    on_plane = sums.sums_to(r)
    lhs = int(on_plane and bool(within.all()))
    if not (on_plane and sums.in_box):
        return lhs, 0
    if kind is IdentityKind.INWARD_SETS:
        term = alternating_chain_sum(n, within)
        rhs = term if n % 2 == 1 else -term
    elif kind is IdentityKind.OUTWARD_SETS:
        rhs = alternating_chain_sum(n, ~within)
    else:
        rhs = _flats_identity_sum(matroid, kind, within)
    return lhs, rhs


def _flats_identity_sum(matroid: Matroid, kind: IdentityKind, within: np.ndarray) -> int:
    # t(G) = signed, weighted sum over chains from the bottom flat to G
    # whose interior flats all satisfy their inequality: t(bottom) = 1 and
    # t(G) = -sum of t(F) * w(F, G) over flats F < G, with w = mu(F, G)
    # for inner flats and w = 1 for outer flats; t is 0 at a flat that
    # fails its inequality, except at the top, where it is always summed
    order, below = flat_lattice(matroid).weighted_predecessors()
    strict = kind is IdentityKind.OUTER_FLATS
    good = (~within if strict else within)[order].tolist()
    good[-1] = True
    t = [1] + [0] * (len(order) - 1)
    at = t.__getitem__
    for i in range(1, len(order)):
        if good[i]:
            lower, mu = below[i]
            if strict:
                t[i] = -sum(map(at, lower))
            else:
                t[i] = -sum(map(operator.mul, map(at, lower), mu))
    return -t[-1] if strict else t[-1]
