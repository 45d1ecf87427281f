"""The base-polytope decomposition identities, checked exactly on point batches.

Points are tuples of Fraction coordinates; no floating point.  The four
identity kinds express the indicator of a matroid base polytope as a
signed sum of indicators of Schubert-type polytopes over chains of
subsets or flats; check_identity evaluates both sides at every point of
a batch.

Every rank inequality is decided in exact integers: subset_sums scales
each point by the LCM D of its denominators, builds all 2^n scaled subset
sums S of every point in one subset transform, one row per point, and
compares ceil(S/D) with the rank table as an array.  The transform runs in
int64 when the batch's largest |scaled coordinate| and largest D, times
n + 1, stay below 2^63 (the proof is in the subset_sums docstring), and
in Python ints in `object` arrays otherwise, so a point with any
numerator or denominator is exact; explicit points with huge
denominators fall back, sampled ones rarely do (see
corpus.sample_points).  One SubsetSums serves every identity kind at its
batch.

The sums over chains of arbitrary subsets reduce, at a fixed point, to an
alternating chain count over the subsets whose inequality the point
fails (altsum, one predicate per row), and so does the outer-flats sum,
over the flats that fail it.  The inner-flats sum is one Mobius-weighted
chain sum over the lattice of flats, one column per point
(`altsum.predecessor_walk`), in int64 like the altsum counts.

Outward-sets, inner-flats and outer-flats are computed independently.
Inward-sets is not: its sum, (-1)^(n+1) times the chain count over the
subsets that satisfy their inequality, equals the outward-sets sum at
every point by complement duality on the Boolean lattice (Rota 1964:
mu(S, T) = (-1)^|T - S|), which
`test_alternating_chain_sum_complement_duality` checks at every density
for n = 1-12, 14 and 16.  So both set kinds are one kernel call, and the
inward evaluation is a test oracle (`tests/helpers.py`).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

import numpy as np

from .altsum import alternating_chain_sum, predecessor_walk, subset_totals
from .errors import VariantInapplicable
from .lattice import flat_lattice
from .matroid import Matroid

RationalPoint = tuple[Fraction, ...]


class IdentityKind(str, Enum):
    INWARD_SETS = "inward-sets"
    OUTWARD_SETS = "outward-sets"
    INNER_FLATS = "inner-flats"
    OUTER_FLATS = "outer-flats"


class SubsetSums(NamedTuple):
    """The coordinate sums of a batch of points over every subset mask, scaled.

    Row i is point i: `scaled[i, S]` is `scale[i]` times its sum over S, an
    exact integer, and `ceiling[i, S]` is ceil(scaled[i, S] / scale[i])
    clipped to [-1, n + 1].  Every rank lies in [0, n], so the sum over S is
    at most r(S) exactly when `ceiling[i, S] <= r(S)`.  `in_box[i]` says
    every coordinate of point i is in [0, 1].  `scale` and `scaled` are
    int64 when the batch fits the bound in subset_sums, and Python ints in
    `object` arrays otherwise.
    """

    scale: np.ndarray
    scaled: np.ndarray
    ceiling: np.ndarray
    in_box: np.ndarray


def subset_sums(points: Sequence[RationalPoint]) -> SubsetSums:
    """Scale each point by the LCM D of its denominators, then one subset
    transform over the whole nonempty batch of points of one dimension n.

    The transform, the ceiling (S + D - 1) // D and the plane test
    S == D * r run in int64 when B * (n + 1) < 2^63, where B is the larger
    of the batch's largest |scaled coordinate| and its largest D, and in
    Python ints in `object` arrays otherwise; the dtype is the only
    difference.  Proof that int64 is exact under the bound: a subset sum
    S adds at most n scaled coordinates, so |S| <= n * B; S + D - 1 lies
    in [-n * B, (n + 1) * B); and D * r <= n * B since r <= n.  Every
    intermediate value is below (n + 1) * B < 2^63 in absolute value.
    """
    n = len(points[0])
    scale = [lcm(*(c.denominator for c in z)) for z in points]
    coords = [[c.numerator * (d // c.denominator) for c in z] for z, d in zip(points, scale)]
    bound = max(max(scale), max((abs(c) for row in coords for c in row), default=0))
    dtype = np.int64 if bound * (n + 1) < 1 << 63 else object
    scale_array = np.array(scale, dtype=dtype)[:, None]
    coords = np.array(coords, dtype=dtype)
    scaled = subset_totals(coords)
    ceiling = (scaled + (scale_array - 1)) // scale_array
    ceiling = np.clip(ceiling, -1, n + 1).astype(np.int64)
    in_box = ((coords >= 0) & (coords <= scale_array)).all(axis=1)
    return SubsetSums(scale_array[:, 0], scaled, ceiling, in_box)


def check_identity(
    matroid: Matroid, kind: IdentityKind, sums: SubsetSums
) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of the chosen decomposition identity at every point of
    the batch that `sums` describes, one entry per row.

    lhs is the indicator of the base polytope; rhs the signed sum of
    member indicators.  Both are exact integers and must coincide.  The
    members lie in the hypersimplex, so rhs is 0 at a point outside it.
    INWARD_SETS and OUTWARD_SETS give the same (lhs, rhs) from one kernel
    call, the outward count (complement duality, module docstring).
    """
    n = matroid.n
    if sums.ceiling.shape[1] != 1 << n:
        raise ValueError("point dimension mismatch")
    if kind in (IdentityKind.INNER_FLATS, IdentityKind.OUTER_FLATS) and matroid.has_loops():
        raise VariantInapplicable("flats identities require a loop-free matroid")
    within = sums.ceiling <= matroid.ensure_rank_table()
    on_plane = sums.scaled[:, -1] == sums.scale * matroid.r
    lhs = (on_plane & within.all(axis=1)).astype(np.int64)
    live = on_plane & sums.in_box
    if kind in (IdentityKind.INWARD_SETS, IdentityKind.OUTWARD_SETS):
        values = alternating_chain_sum(n, ~within[live])
    elif kind is IdentityKind.OUTER_FLATS:
        values = alternating_chain_sum(n, ~within[live] & flat_lattice(matroid).is_flat)
    else:
        values = _flats_identity_sum(matroid, within[live])
    rhs = np.zeros(len(live), dtype=values.dtype)
    rhs[live] = values
    return lhs, rhs


def _flats_identity_sum(matroid: Matroid, within: np.ndarray) -> np.ndarray:
    """The inner-flats sum at every row of `within`, in int64 (the bound is
    in `altsum.predecessor_walk`).  t(G) is the Mobius-weighted sum over the
    chains from the bottom flat to G whose interior flats all satisfy their
    inequality: t(bottom) = 1, t(G) = -good(G) Z(G) with Z(G) the sum of
    mu(F, G) t(F) over the flats F < G, and the sum is t(E) = -Z(E), since
    E is always summed.  One column of U per point.  Outer flats carry no
    Mobius weight and go through altsum: chains of subsets that are all
    flats are chains of flats, and the bottom flat (the empty set, the
    matroid being loop-free) and E are altsum's endpoints."""
    good = within.T
    start = np.ones(len(within), dtype=np.int64)
    flats = flat_lattice(matroid).weighted_predecessors()
    return -predecessor_walk(*flats, start, lambda masks, z: -z * good[masks])
