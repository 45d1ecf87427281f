"""The ten chain-sum routes to the invariant.

Every variant computes the covaluative value; the dispatcher applies the
component-count sign to recover the invariant itself.  The variants
differ in the index poset (all subsets, all flats, crowded ones, crowding
records, records with strictly increasing crowding), the path bound
(strictly below versus weakly above the chain's constraint points) and
the sign rule.

No chain is ever enumerated.  Two kernels of `altsum` evaluate the ten
sums on path states pulled back to column 0, with the link matrices M_t of
one table (`_link_steps`).  In seven routes the sign of a link s -> t
reads t alone, so the sum below t is a subset sum over the 2^n cube
(`_cube_sum`).  Inward-flats, whose links carry Mobius values, and the
final routes, whose links read s, run on `altsum.predecessor_walk`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from math import comb
from typing import Sequence

import numpy as np

from .altsum import alternating_chain_sum, popcounts, predecessor_walk, subset_pairs
from .bitops import popcount
from .crowding import (
    crowded_flats,
    crowded_sets,
    crowding_array,
    is_crowding_record,
    zero_part,
)
from .errors import VariantInapplicable
from .lattice import flat_lattice
from .matroid import Matroid
from .paths import Mode, admits


class Variant(str, Enum):
    INWARD_SETS = "inward-sets"
    OUTWARD_SETS = "outward-sets"
    INWARD_FLATS = "inward-flats"
    OUTWARD_FLATS = "outward-flats"
    CROWDED_SETS = "crowded-sets"
    CROWDED_FLATS = "crowded-flats"
    RECORD_SETS = "record-sets"
    RECORD_FLATS = "record-flats"
    FINAL_SETS = "final-sets"
    FINAL_FLATS = "final-flats"


FLAT_VARIANTS = {
    Variant.INWARD_FLATS,
    Variant.OUTWARD_FLATS,
    Variant.CROWDED_FLATS,
    Variant.RECORD_FLATS,
    Variant.FINAL_FLATS,
}


@dataclass(frozen=True)
class ChainSumRun:
    variant: Variant
    covalue: int
    chains: int | None


def covalue(matroid: Matroid, variant: Variant) -> ChainSumRun:
    """The covaluative invariant of the matroid by the chosen route.

    The one test of whether a route applies: a flats route needs a
    loop-free matroid, and raises VariantInapplicable otherwise.
    """
    if variant in FLAT_VARIANTS and matroid.has_loops():
        raise VariantInapplicable(f"{variant.value} requires a loop-free matroid")
    records = variant in (Variant.RECORD_SETS, Variant.RECORD_FLATS)
    if variant is Variant.INWARD_SETS:
        every, sign = np.ones(1 << matroid.n, bool), -1 if matroid.n % 2 == 0 else 1
        value, chains = _cube_sum(matroid, every, Mode.BELOW, sign)[0], None
    elif variant is Variant.OUTWARD_SETS:
        value, chains = _cube_sum(matroid, np.ones(1 << matroid.n, bool), Mode.ABOVE)[0], None
    elif records or variant in (Variant.CROWDED_SETS, Variant.CROWDED_FLATS):
        crowded = crowding_array(matroid) >= 0
        if variant in FLAT_VARIANTS:
            crowded &= flat_lattice(matroid).is_flat
        value, chains = _cube_sum(matroid, crowded, Mode.ABOVE, records=records)
    elif variant is Variant.OUTWARD_FLATS:
        value, chains = _cube_sum(matroid, flat_lattice(matroid).is_flat, Mode.ABOVE)
    elif variant is Variant.INWARD_FLATS:
        value, chains = _inward_flats_sum(matroid)
    elif variant is Variant.FINAL_SETS:
        value, chains = _final_sum(matroid, flats_only=False)
    elif variant is Variant.FINAL_FLATS:
        value, chains = _final_sum(matroid, flats_only=True)
    else:  # pragma: no cover
        raise ValueError(f"unknown variant {variant}")
    return ChainSumRun(variant, value, chains)


def component_sign(matroid: Matroid) -> int:
    """(-1)^(components - 1): the sign taking a covalue to the invariant."""
    return -1 if matroid.component_count() % 2 == 0 else 1


def omega_by_variant(matroid: Matroid, variant: Variant) -> int:
    """The invariant itself: sign-corrected covalue."""
    return component_sign(matroid) * covalue(matroid, variant).covalue


def schubert_omega(n: int, chain: Sequence[int], profile: Sequence[int]) -> int:
    """Closed path-count formula for a lower Schubert matroid.

    Counts paths strictly below the chain's interior constraint points;
    for Schubert matroids value and covalue coincide.
    """
    from .paths import PathConstraint, PathProblem, count_paths

    r = profile[-1]
    constraints = tuple(
        PathConstraint(popcount(s) - a, a, Mode.BELOW)
        for s, a in zip(chain[:-1], profile[1:-1])
    )
    return count_paths(PathProblem(n, r, constraints))


# -- the graded cube kernel ---------------------------------------------------


def _cube_sum(
    matroid: Matroid, member: np.ndarray, mode: Mode, into_full: int = 1, records: bool = False
) -> tuple[int, int]:
    """(covalue, chains) over the chains 0 < t_1 < ... < t_k < E of masks
    marked in `member` (of its crowding records only, if asked), with sign
    -1 on each interior link and `into_full` on the link into E: the altsum
    kernel from U(0) = (e_0, 1), U(t) = M_t Z(t) with M_t of `_link_steps`."""
    n, r, full = matroid.n, matroid.r, matroid.full_mask
    length = n - r - 1
    if not member[full] or (records and not is_crowding_record(matroid, full)):
        return 0, 0
    if not 1 <= r <= length + 1:  # no path: only the chain 0 < E counts
        return 0, 1
    rank = matroid.ensure_rank_table()
    column = np.minimum(popcounts(n) - rank, length)
    good = member & admits(column, rank, mode, r)
    if records:  # record status is asked only at members a chain can reach
        for t in (np.flatnonzero(good[1:full]) + 1).tolist():
            good[t] = is_crowding_record(matroid, t)
    key, steps = column.astype(np.int16) * (r + 1) + rank, _link_steps(r, length, mode)
    total = alternating_chain_sum(
        n, good, [1] + [0] * (r - 1) + [1], lambda t, z: np.matmul(z[:, None], steps[key[t]])[:, 0]
    )
    return into_full * _paths_at_end(total, length), int(total[r])


@cache
def _link_steps(r: int, length: int, mode: Mode) -> np.ndarray:
    """M_t transposed, at x (r + 1) + y for t at clamped column x, rank y:
    -(A^x)^T R_y (A^{-x})^T on the path state and 1 on the chain count, with
    R_y the diagonal mask of a constraint of height y and (A^k)[d, j] =
    C(k, d - j) the advance by k columns for any integer k (`paths.advance`)."""
    k = np.arange(-length, length + 1)
    binomials = np.ones((len(k), r), dtype=np.int64)  # C(k, i) = C(k, i - 1) (k - i + 1) / i
    for i in range(1, r):
        binomials[:, i] = binomials[:, i - 1] * (k - i + 1) // i
    diagonal = np.arange(r)
    gap = diagonal[:, None] - diagonal
    power = np.where(gap >= 0, binomials[:, gap.clip(0)], 0)  # A^k at k + length
    heights = np.arange(r + 1)[:, None]
    keep = (diagonal >= heights if mode is Mode.ABOVE else diagonal < heights).astype(np.int64)
    steps = np.zeros((length + 1, r + 1, r + 1, r + 1), dtype=np.int64)
    steps[..., r, r] = 1
    steps[..., :r, :r] = -np.einsum("xdj,yd,xed->xyje", power[length:], keep, power[length::-1])
    steps = steps.reshape(-1, r + 1, r + 1)
    steps.flags.writeable = False  # one array per (r, L, mode), shared by every call
    return steps


def _paths_at_end(total: np.ndarray, length: int) -> int:
    """The last coordinate of A^L times the path state total[:r]."""
    r = len(total) - 1
    return int(np.array([comb(length, r - 1 - j) for j in range(r)]) @ total[:r])


# -- the predecessor walks ----------------------------------------------------


def _inward_flats_sum(matroid: Matroid) -> tuple[int, int]:
    """All chains of flats, with strictly-below path counts and sign
    (-1)^length times the product of interval Mobius values along the
    chain: the walk over the flats with the M_t of `_cube_sum` (every flat
    above 0 has rank >= 1 and admits a path prefix) and S(t) = -2 Z(t) in
    the count column.  S = 2C, C(t) the sum of C below t, is the sum of C
    over F <= t, so Mobius inversion gives Z(t) = C(t) - S(t) = -C(t)."""
    n, r = matroid.n, matroid.r
    length = n - r - 1
    if not 1 <= r <= length + 1:  # no path: only the chain 0 < E counts
        return 0, 1
    rank = matroid.ensure_rank_table()
    key = np.minimum(popcounts(n) - rank, length).astype(np.int16) * (r + 1) + rank
    steps = _link_steps(r, length, Mode.BELOW) * np.array([1] * r + [-2])
    total = predecessor_walk(
        *flat_lattice(matroid).weighted_predecessors(),
        [1] + [0] * (r - 1) + [1],
        lambda t, z: np.matmul(z[:, None], steps[key[t]])[:, 0],
    )
    return -_paths_at_end(total, length), -int(total[r])


def _final_sum(matroid: Matroid, flats_only: bool) -> tuple[int, int]:
    """Chains H_0 < H_1 < ... < H_m = E of crowding records with strictly
    increasing crowding starting at 0, nested zero parts, and sign
    (-1)^(c(H_0) + m - 1); paths are bounded weakly above at every chain
    member except the empty set and the ground set.

    A walk chain 0 < t_1 < ... < t_k < E is read as H = (0, t_1, ..., E)
    when t_1 (E if k = 0) has positive crowding, and as H = (t_1, ..., E)
    when it has crowding 0; the empty set has crowding 0, no components
    and is a crowding record, so exactly one reading applies.

    The link s -> t tests zero(t) <= s in place of zero(t) <= zero(s), so
    it never reads the zero part of s.  For s <= t the two agree: zero(s)
    lies in s, and conversely a component C of M|t inside s is a
    separator of M|t, r(X) = r(X & C) + r(X - C) for every X <= t, so it
    separates M|s as well; being connected, it is a component of M|s with
    the same crowding |C| - 2 r(C).  So every crowding-0 component of M|t
    inside s is one of M|s, and zero(t) <= s gives zero(t) <= zero(s).

    The walk runs over 0, the records that admit a path prefix (popcount
    order) and E, read at these members alone.  Link s -> t has weight 1
    when s < t, c(s) < c(t) and zero(t) <= s, reading c(0) as -1 and
    zero(t) as 0 if c(t) = 0: then t is H_0 and links from 0 alone.  Its
    sign is -1 inside, +1 into E, times parity(t) = (-1)^(components + 1)
    if c(t) = 0: U(t) = parity(t) M_t Z(t), and the covalue is parity(E)
    times the last coordinate of A^L Z(E)."""
    n, r, full = matroid.n, matroid.r, matroid.full_mask
    length = n - r - 1
    universe = crowded_flats(matroid) if flats_only else crowded_sets(matroid)
    if universe[-1] != full or not is_crowding_record(matroid, full):
        return 0, 0
    if not 1 <= r <= length + 1:  # no path: only the chain 0 < E counts
        return 0, int(n == 2 * r or not zero_part(matroid, full))  # c(E) = n - 2r
    rank = matroid.ensure_rank_table()
    inner = np.array(universe[1:-1], dtype=np.int64)  # universe[0] is the empty set
    column = np.minimum(popcounts(n)[inner] - rank[inner], length)
    inner = inner[admits(column, rank[inner], Mode.ABOVE, r)].tolist()
    members = np.array([0, *(t for t in inner if is_crowding_record(matroid, t)), full])
    ranks = rank[members].astype(np.int64)
    level = popcounts(n)[members] - 2 * ranks
    labelled = list(zip(members.tolist(), level.tolist()))
    zero = np.array([zero_part(matroid, t) if c else 0 for t, c in labelled])
    even = [c == 0 and t > 0 and matroid.component_count(t) % 2 == 0 for t, c in labelled]
    parity = np.where(even, -1, 1)  # (-1)^(components + 1) where c(t) = 0
    level[0] = -1
    upper, below = subset_pairs(members)
    linked = (level[below] < level[upper]) & (zero[upper] & ~members[below] == 0)
    kept = linked | (below == 0)  # every member keeps its link from 0, of weight 0 or 1
    column = np.minimum(popcounts(n)[members] - ranks, length)
    steps = _link_steps(r, length, Mode.ABOVE)[column * (r + 1) + ranks]
    steps[:, :, :r] *= parity[:, None, None]
    total = predecessor_walk(
        np.arange(len(members)),
        (upper[kept], below[kept], linked[kept].astype(np.int64)),
        [1] + [0] * (r - 1) + [1],
        lambda at, z: np.matmul(z[:, None], steps[at])[:, 0],
    )
    return int(parity[-1]) * _paths_at_end(total, length), int(total[r])
