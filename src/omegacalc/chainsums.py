"""The ten chain-sum routes to the invariant.

Every variant computes the covaluative value; the dispatcher applies the
component-count sign to recover the invariant itself.  The variants
differ in the index poset (all subsets, all flats, crowded ones, crowding
records, records with strictly increasing crowding), the path bound
(strictly below versus weakly above the chain's constraint points) and
the sign rule.

No chain is ever enumerated.  Two kernels of `altsum` evaluate the ten
sums on path states pulled back to column 0, with the link matrices M_t of
one table (`_link_steps`).  Each route passes its index poset as boolean
marks over the 2^n masks to `_chain_sum`, which marks the members a path
prefix can reach (the crowding records among them, in the record and
final routes) and sets up the path state, the link and the readout once
for every kernel.  In seven routes the sign of a link s -> t reads t
alone, so the sum below t is a subset sum over the 2^n cube
(`_cube_sum`).  Inward-flats, whose links carry Mobius values, and the
final routes, whose links read s, run on `altsum.predecessor_walk`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, partial
from math import comb
from typing import Sequence

import numpy as np

from .altsum import alternating_chain_sum, popcounts, predecessor_walk, subset_pairs
from .bitops import popcount
from .crowding import crowded_flats, crowded_sets, crowding_records, is_crowding_record, zero_part
from .errors import VariantInapplicable
from .lattice import flat_lattice
from .matroid import Matroid
from .paths import Mode, PathConstraint, PathProblem, admits, count_paths


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
RECORD_VARIANTS = {
    Variant.RECORD_SETS,
    Variant.RECORD_FLATS,
    Variant.FINAL_SETS,
    Variant.FINAL_FLATS,
}


@dataclass(frozen=True)
class ChainSumRun:
    variant: Variant
    covalue: int
    chains: int | None


def covalue(matroid: Matroid, variant: Variant) -> ChainSumRun:
    """The covaluative invariant of the matroid by the chosen route.

    It decides the flats routes on a matroid with loops: a flats route
    needs a loop-free matroid, and raises VariantInapplicable otherwise.
    """
    if variant in FLAT_VARIANTS and matroid.has_loops():
        raise VariantInapplicable(f"{variant.value} requires a loop-free matroid")
    sets = variant in (Variant.INWARD_SETS, Variant.OUTWARD_SETS)
    if sets or variant is Variant.INWARD_FLATS:  # whose walk reads the lattice itself
        member = np.ones(1 << matroid.n, bool)
    elif variant is Variant.OUTWARD_FLATS:
        member = flat_lattice(matroid).is_flat
    else:
        member = crowded_flats(matroid) if variant in FLAT_VARIANTS else crowded_sets(matroid)
    count = 1  # the link's factor on the chain count
    if variant is Variant.INWARD_FLATS:
        kernel, count = _inward_flats_sum, -2
    elif variant in (Variant.FINAL_SETS, Variant.FINAL_FLATS):
        kernel = _final_sum
    else:  # the link into E has sign -1 in inward-sets at even n
        into_full = -1 if variant is Variant.INWARD_SETS and matroid.n % 2 == 0 else 1
        kernel = partial(_cube_sum, into_full)
    mode = Mode.BELOW if variant in (Variant.INWARD_SETS, Variant.INWARD_FLATS) else Mode.ABOVE
    value, chains = _chain_sum(matroid, member, mode, kernel, variant in RECORD_VARIANTS, count)
    return ChainSumRun(variant, value, None if sets else chains)


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
    r = profile[-1]
    constraints = tuple(
        PathConstraint(popcount(s) - a, a, Mode.BELOW)
        for s, a in zip(chain[:-1], profile[1:-1])
    )
    return count_paths(PathProblem(n, r, constraints))


# -- the path plumbing and the three kernels --------------------------------


def _chain_sum(
    matroid: Matroid, member: np.ndarray, mode: Mode, kernel, records: bool, count: int
) -> tuple[int, int]:
    """(covalue, chains) over the chains 0 < t_1 < ... < t_k < E of masks
    marked in `member` (of its crowding records only, if asked) whose
    paths of L = n - r - 1 columns are bounded by `mode`.  The members
    are marked over the whole cube, E's membership first: `good` marks
    those a path prefix can reach.  kernel(matroid, good, start, transfer)
    runs from U(0) = start = (e_0, 1), with U(t) = transfer(t, Z(t)) =
    M_t Z(t) at a mask t, M_t of `_link_steps` at t's clamped column and
    rank with `count` on the chain count, and returns (sign, Z(E)): the
    covalue is sign times the last coordinate of A^L Z(E), the chains
    Z(E)[r]."""
    n, r, full = matroid.n, matroid.r, matroid.full_mask
    if not member[full] or (records and not is_crowding_record(matroid, full)):
        return 0, 0
    length = n - r - 1
    if not 1 <= r <= length + 1:  # no path: only the chain 0 < E counts
        return 0, 1
    rank = matroid.ensure_rank_table()
    column = np.minimum(popcounts(n) - rank, length)
    good = member & admits(column, rank, mode, r)
    if records:
        good = crowding_records(matroid, good)
    key, steps = column.astype(np.int16) * (r + 1) + rank, _link_steps(r, length, mode, count)
    start = [1] + [0] * (r - 1) + [1]
    sign, total = kernel(
        matroid, good, start, lambda t, z: np.matmul(z[:, None], steps[key[t]])[:, 0]
    )
    return sign * _paths_at_end(total, length), int(total[r])


def _cube_sum(into_full: int, matroid: Matroid, good, start, transfer) -> tuple[int, np.ndarray]:
    """Seven routes link s -> t with a sign that reads t alone: -1 on each
    interior link, in M_t, and `into_full` on the link into E.  Their sum
    below t is a subset sum over the 2^n cube, the altsum kernel over the
    marks `good`."""
    return into_full, alternating_chain_sum(matroid.n, good, start, transfer)


@cache
def _link_steps(r: int, length: int, mode: Mode, count: int = 1) -> np.ndarray:
    """M_t transposed, at x (r + 1) + y for t at clamped column x, rank y:
    -(A^x)^T R_y (A^{-x})^T on the path state and `count` on the chain
    count, with R_y the diagonal mask of a constraint of height y and
    (A^k)[d, j] = C(k, d - j) the advance by k columns for any integer k
    (`paths.advance`)."""
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
    steps[..., r, r] = count
    steps[..., :r, :r] = -np.einsum("xdj,yd,xed->xyje", power[length:], keep, power[length::-1])
    steps = steps.reshape(-1, r + 1, r + 1)
    steps.flags.writeable = False  # one array per (r, L, mode, count), shared by every call
    return steps


def _paths_at_end(total: np.ndarray, length: int) -> int:
    """The last coordinate of A^L times the path state total[:r]."""
    r = len(total) - 1
    return int(np.array([comb(length, r - 1 - j) for j in range(r)]) @ total[:r])


# -- the predecessor walks ----------------------------------------------------


def _inward_flats_sum(matroid: Matroid, good, start, transfer) -> tuple[int, np.ndarray]:
    """All chains of flats, with strictly-below path counts and sign
    (-1)^length times the product of interval Mobius values along the
    chain: the walk over the flats with the M_t of `_cube_sum` (every flat
    above 0 has rank >= 1 and admits a path prefix; `good` is not read,
    and the lattice is built only where a path exists) and S(t) = -2 Z(t)
    in the count column (`count` -2).  S = 2C, C(t) the sum of C below t,
    is the sum of C over F <= t, so Mobius inversion gives Z(t) = C(t) -
    S(t) = -C(t), and both the covalue and the chains are read off -Z(E)."""
    return 1, -predecessor_walk(*flat_lattice(matroid).weighted_predecessors(), start, transfer)


def _final_sum(matroid: Matroid, good, start, transfer) -> tuple[int, np.ndarray]:
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

    The walk runs over 0, the records marked in `good` (popcount order)
    and E, read at these members alone.  Link s -> t has weight 1 when s <
    t, c(s) < c(t) and zero(t) <= s, reading c(0) as -1 and zero(t) as 0
    if c(t) = 0: then t is H_0 and links from 0 alone.  Its sign is -1
    inside, +1 into E, times parity(t) = (-1)^(components + 1) if c(t) =
    0: U(t) = parity(t) M_t Z(t), and the covalue is parity(E) times the
    last coordinate of A^L Z(E).

    With no path (r = 0 or r > n - r) `_chain_sum` counts only the chain
    0 < E, and it is always counted.  E is a crowding record here, so c(E)
    = n - 2r >= 0 rules out r > n - r, leaving r = 0: every element is a
    loop, a component of crowding 1, so zero(E) = 0 and the link 0 -> E
    holds."""
    n, r, full = matroid.n, matroid.r, matroid.full_mask
    inner = np.flatnonzero(good[1:full]) + 1
    members = np.concatenate(([0], inner[np.argsort(popcounts(n)[inner], kind="stable")], [full]))
    level = popcounts(n)[members] - 2 * matroid.ensure_rank_table()[members].astype(np.int64)
    labelled = list(zip(members.tolist(), level.tolist()))
    zero = np.array([zero_part(matroid, t) if c else 0 for t, c in labelled])
    even = [c == 0 and t > 0 and matroid.component_count(t) % 2 == 0 for t, c in labelled]
    parity = np.where(even, -1, 1)  # (-1)^(components + 1) where c(t) = 0
    level[0] = -1
    upper, below = subset_pairs(members)
    linked = (level[below] < level[upper]) & (zero[upper] & ~members[below] == 0)
    kept = linked | (below == 0)  # every member keeps its link from 0, of weight 0 or 1
    scale = np.ones((len(members), r + 1), dtype=np.int64)  # parity(t) on the path state
    scale[:, :r] = parity[:, None]
    total = predecessor_walk(
        np.arange(len(members)),
        (upper[kept], below[kept], linked[kept].astype(np.int64)),
        start,
        lambda at, z: transfer(members[at], z) * scale[at],
    )
    return int(parity[-1]), total
