"""The base-polytope decomposition identities, checked exactly on point batches.

A point is an integer row (D, W) meaning x_e = W_e / D, with D >= 1 the
lowest common denominator of its coordinates (gcd(D, W_0, ..., W_{n-1})
= 1); no floating point.  corpus.sample_points builds rows directly, and
scaled_point turns a tuple of Fraction coordinates into one, as
specfile.load_points_file does for an explicit `--points` file.  The
four identity kinds express the indicator of a matroid base polytope as
a signed sum of indicators of Schubert-type polytopes over chains of
subsets or flats; check_identity evaluates both sides at every point of
a batch.  check_identities is what `check-identities` runs on one
matroid: it decides which kinds apply (the flats kinds need a loop-free
matroid), cuts the points into batches of `altsum.block_rows(n)` rows,
one SubsetSums and one BatchMarks each, and returns the failing rows of
every kind.

Every rank inequality is decided in exact integers: subset_sums builds
all 2^n subset sums S of the W of every point in one subset transform,
one row per point, and the sum over a subset is at most its rank r
exactly when S <= D * r, compared with the rank table as an array.  The
transform runs in int64 when the batch's largest |W_e| and largest D,
times n + 1, stay below 2^63 (the proof is in the subset_sums
docstring), and in Python ints in `object` arrays otherwise, so a point
with any numerator or denominator is exact; explicit points with huge
denominators fall back, sampled ones rarely do (see
corpus.sample_points).  batch_marks makes that rank test once per batch
for every kind: the lhs, the live points (on the rank hyperplane and in
the box) and, per family, the distinct rows of what the live points
fail, each with the index that maps the live points onto them.

The sums over chains of arbitrary subsets reduce, at a fixed point, to an
alternating chain count over the subsets whose inequality the point
fails (altsum, one predicate per row), and so does the outer-flats sum,
over the flats that fail it.  The inner-flats sum is one Mobius-weighted
chain sum over the lattice of flats, one column per row
(`altsum.predecessor_walk`), in int64 like the altsum counts.  Each
kernel runs once on a kind's distinct rows, not on every live point:
every point inside the base polytope fails nothing, and on the six
closure matroids of `generate_corpus("closure", 6, 1, 8)`, with 100
samples each, the 30 to 130 live points of a batch hold 1 to 81 distinct
subset rows and 1 to 27 distinct flat rows.

Outward-sets, inner-flats and outer-flats are computed independently.
Inward-sets is not: its sum, (-1)^(n+1) times the chain count over the
subsets that satisfy their inequality, equals the outward-sets sum at
every point by complement duality on the Boolean lattice (Rota 1964:
mu(S, T) = (-1)^|T - S|), which
`test_alternating_chain_sum_complement_duality` checks at every density
for n = 1-12, 14 and 16.  So both set kinds are one kernel call:
check_identities reports the outward-sets failures under inward-sets
too, and the inward evaluation is a test oracle (`tests/helpers.py`).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

import numpy as np

from .altsum import alternating_chain_sum, block_rows, predecessor_walk, subset_totals
from .errors import VariantInapplicable
from .lattice import flat_lattice
from .matroid import Matroid

RationalPoint = tuple[Fraction, ...]
# (D, W): the point x_e = W_e / D, with D >= 1 and gcd(D, W_0, ...) = 1
ScaledPoint = tuple[int, tuple[int, ...]]


class IdentityKind(str, Enum):
    INWARD_SETS = "inward-sets"
    OUTWARD_SETS = "outward-sets"
    INNER_FLATS = "inner-flats"
    OUTER_FLATS = "outer-flats"


class SubsetSums(NamedTuple):
    """The coordinate sums of a batch of points over every subset mask, scaled.

    Row i is point i: `scaled[i, S]` is `scale[i]` times its sum over S, an
    exact integer, so the sum over S is at most r(S) exactly when
    `scaled[i, S] <= scale[i] * r(S)`.  `in_box[i]` says every coordinate
    of point i is in [0, 1].  `scale` and `scaled` are int64 when the batch
    fits the bound in subset_sums, and Python ints in `object` arrays
    otherwise.
    """

    scale: np.ndarray
    scaled: np.ndarray
    in_box: np.ndarray


def scaled_point(point: RationalPoint) -> ScaledPoint:
    """The row (D, W) of a point of Fraction coordinates: D the LCM of
    their denominators, W_e = x_e * D.  A Fraction is in lowest terms, so
    the row is too."""
    scale = lcm(*(c.denominator for c in point))
    return scale, tuple(c.numerator * (scale // c.denominator) for c in point)


def subset_sums(points: Sequence[ScaledPoint]) -> SubsetSums:
    """One subset transform of the W of a nonempty batch of rows (D, W) of
    one dimension n >= 1.

    The transform and the tests S <= D * r(S) and S == D * r that
    batch_marks makes on it run in int64 when B * (n + 1) < 2^63, where
    B is the larger of the batch's largest |W_e| and its largest D, and in
    Python ints in `object` arrays otherwise; the dtype is the only
    difference.  Proof that int64 is exact under the bound: a subset sum S
    adds at most n coordinates W_e, so |S| <= n * B, and D * r <= n * B
    since 0 <= r <= n.  Every value is below (n + 1) * B < 2^63 in absolute
    value.  sample_points and scaled_point give rows in lowest terms, so
    B, and with it the dtype, depends on the points and not on how they
    were written.
    """
    n = len(points[0][1])
    scale = [d for d, _ in points]
    coords = [w for _, w in points]
    try:
        coords_array = np.array(coords, dtype=np.int64)
    except OverflowError:  # some W_e outside int64
        bound = 1 << 63
    else:
        bound = max(max(scale), int(coords_array.max()), -int(coords_array.min()))
    if bound * (n + 1) < 1 << 63:
        scale_array = np.array(scale, dtype=np.int64)
    else:
        scale_array = np.array(scale, dtype=object)
        coords_array = np.array(coords, dtype=object)
    in_box = ((coords_array >= 0) & (coords_array <= scale_array[:, None])).all(axis=1)
    return SubsetSums(scale_array, subset_totals(coords_array), in_box)


class Distinct(NamedTuple):
    """The distinct rows of a boolean stack: `rows[inverse[i]]` is row i."""

    rows: np.ndarray
    inverse: np.ndarray


class BatchMarks(NamedTuple):
    """What every identity kind reads of one batch, from one rank test.

    `lhs[i]` is the base-polytope indicator of point i, and `live[i]` says
    it lies on the rank hyperplane and in the box, where the rhs can be
    nonzero.  `sets` holds the distinct rows of the subsets that a live
    point fails, `~within`, and `flats` those of the flats it fails,
    `~within & is_flat`, or None when the matroid has loops; their inverse
    indexes the live points in order.
    """

    lhs: np.ndarray
    live: np.ndarray
    sets: Distinct
    flats: Distinct | None


def batch_marks(matroid: Matroid, sums: SubsetSums) -> BatchMarks:
    """The rank test of the batch that `sums` describes, made once for
    every kind: S <= D * r(S) at every point and subset (`within`), and
    S == D * r at the full set.  Live points often share their failing
    rows (every point of the base polytope fails nothing), and the kernels
    run once per distinct row."""
    if sums.scaled.shape[1] != 1 << matroid.n:
        raise ValueError("point dimension mismatch")
    within = sums.scaled <= sums.scale[:, None] * matroid.ensure_rank_table()
    on_plane = sums.scaled[:, -1] == sums.scale * matroid.r
    lhs = (on_plane & within.all(axis=1)).astype(np.int64)
    live = on_plane & sums.in_box
    failing = ~within[live]
    flats = None if matroid.has_loops() else _distinct(failing & flat_lattice(matroid).is_flat)
    return BatchMarks(lhs, live, _distinct(failing), flats)


def _distinct(rows: np.ndarray) -> Distinct:
    """The distinct rows of a boolean stack: np.unique on each row's packed
    bits as one void value, so two rows are one exactly when every bit
    agrees."""
    packed = np.packbits(rows, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return Distinct(rows[first], inverse.reshape(-1))


def check_identity(
    matroid: Matroid, kind: IdentityKind, marks: BatchMarks
) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of the chosen decomposition identity at every point of
    the batch that `marks` (batch_marks of this matroid) describes, one
    entry per row.

    lhs is the indicator of the base polytope; rhs the signed sum of
    member indicators.  Both are exact integers and must coincide.  The
    members lie in the hypersimplex, so rhs is 0 at a point outside it.
    The kernel runs once on the kind's distinct rows, and each live point
    reads the value of its row.  INWARD_SETS and OUTWARD_SETS give the
    same (lhs, rhs) from one kernel call, the outward count (complement
    duality, module docstring).
    """
    if kind in (IdentityKind.INWARD_SETS, IdentityKind.OUTWARD_SETS):
        rows, inverse = marks.sets
        values = alternating_chain_sum(matroid.n, rows)
    elif marks.flats is None:
        raise VariantInapplicable("flats identities require a loop-free matroid")
    else:
        rows, inverse = marks.flats
        if kind is IdentityKind.OUTER_FLATS:
            values = alternating_chain_sum(matroid.n, rows)
        else:  # the walk reads its within at flats only, where it is ~rows
            values = _flats_identity_sum(matroid, ~rows)
    rhs = np.zeros(len(marks.live), dtype=values.dtype)
    rhs[marks.live] = values[inverse]
    return marks.lhs.copy(), rhs


def check_identities(matroid: Matroid, points: Sequence[ScaledPoint]) -> dict[IdentityKind, list]:
    """The failing (row, lhs, rhs) of every identity kind that applies, in
    IdentityKind order: all four on a loop-free matroid, the two set kinds
    on one with loops.  lhs and rhs are Python ints.

    The rows go in batches of block_rows(n), one subset_sums and one
    batch_marks each, and every computed kind takes one check_identity
    call per batch.  Inward-sets is not computed: it reports the
    outward-sets failures (complement duality, module docstring).
    """
    flats = [] if matroid.has_loops() else [IdentityKind.INNER_FLATS, IdentityKind.OUTER_FLATS]
    failures: dict[IdentityKind, list] = {kind: [] for kind in [IdentityKind.OUTWARD_SETS, *flats]}
    rows = block_rows(matroid.n)
    for start in range(0, len(points), rows):
        batch = points[start : start + rows]
        marks = batch_marks(matroid, subset_sums(batch))
        for kind, found in failures.items():
            lhs, rhs = check_identity(matroid, kind, marks)
            found.extend((batch[i], int(lhs[i]), int(rhs[i])) for i in np.flatnonzero(lhs != rhs))
    return {IdentityKind.INWARD_SETS: list(failures[IdentityKind.OUTWARD_SETS]), **failures}


def _flats_identity_sum(matroid: Matroid, within: np.ndarray) -> np.ndarray:
    """The inner-flats sum at every row of `within`, in int64 (the bound is
    in `altsum.predecessor_walk`).  t(G) is the Mobius-weighted sum over the
    chains from the bottom flat to G whose interior flats all satisfy their
    inequality: t(bottom) = 1, t(G) = -good(G) Z(G) with Z(G) the sum of
    mu(F, G) t(F) over the flats F < G, and the sum is t(E) = -Z(E), since
    E is always summed.  One column of U per row.  Outer flats carry no
    Mobius weight and go through altsum: chains of subsets that are all
    flats are chains of flats, and the bottom flat (the empty set, the
    matroid being loop-free) and E are altsum's endpoints."""
    good = within.T
    start = np.ones(len(within), dtype=np.int64)
    flats = flat_lattice(matroid).weighted_predecessors()
    return -predecessor_walk(*flats, start, lambda masks, z: -z * good[masks])
