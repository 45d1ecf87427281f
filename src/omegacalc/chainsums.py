"""The ten chain-sum routes to the invariant.

Every variant computes the covaluative value; the dispatcher applies the
component-count sign to recover the invariant itself.  The variants
differ in the index poset (all subsets, all flats, crowded ones, crowding
records, records with strictly increasing crowding), the path bound
(strictly below versus weakly above the chain's constraint points) and
the sign rule.

No chain is ever enumerated.  In seven routes the sign of a link s -> t
reads t alone, so the sum over the members below t is a subset sum over
the 2^n cube: one graded zeta kernel (`_cube_sum`) evaluates them.
Inward-flats, whose links carry Mobius values, is the same sum weighted
by mu over the lattice of flats (`FlatLattice.chain_sum`), and the final
routes, whose links read s, are one transfer recursion over their members
(`_final_sum`).  All keep path states pulled back to column 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from math import comb
from typing import Sequence

import numpy as np

from .altsum import alternating_chain_sum, popcounts
from .bitops import popcount
from .crowding import (
    crowded_flats,
    crowded_sets,
    crowding,
    crowding_array,
    crowding_split,
    is_crowding_record,
)
from .errors import VariantInapplicable
from .lattice import flat_lattice
from .matroid import Matroid
from .paths import Mode, admits, advance, restrict


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
    kernel from U(0) = (e_0, 1), U(t) = M_t Z(t) with M_t the link
    -A^{-x_t} mask_t A^{x_t} of `_final_sum` and 1 on the chain count."""
    n, r, full = matroid.n, matroid.r, matroid.full_mask
    length = n - r - 1
    if not member[full] or (records and not is_crowding_record(matroid, full)):
        return 0, 0
    if not 1 <= r <= length + 1:  # no path: only the chain 0 < E counts
        return 0, 1
    rank = matroid.ensure_rank_table()
    column = np.minimum(popcounts(n) - rank, length)
    good = member & admits(column, rank, mode, r)
    if records:  # record status is scanned only for members a chain can reach
        for t in (np.flatnonzero(good[1:full]) + 1).tolist():
            good[t] = is_crowding_record(matroid, t)
    key, steps = column.astype(np.int16) * (r + 1) + rank, _link_steps(r, length, mode)
    total = alternating_chain_sum(
        n, good, [1] + [0] * (r - 1) + [1], lambda t, z: np.matmul(z[:, None], steps[key[t]])[:, 0]
    )
    last = np.array([comb(length, r - 1 - j) for j in range(r)])  # last row of A^L
    return into_full * int(last @ total[:r]), int(total[r])


@cache
def _link_steps(r: int, length: int, mode: Mode) -> np.ndarray:
    """M_t transposed, at x (r + 1) + y for t at clamped column x, rank y."""
    steps = np.zeros(((length + 1) * (r + 1), r + 1, r + 1), dtype=np.int64)
    steps[:, r, r] = 1
    for (x, y), step in zip(np.ndindex(length + 1, r + 1), steps):
        for j in range(r):
            state = advance([0] * j + [1] + [0] * (r - 1 - j), x)
            restrict(state, y, mode)
            step[j, :r] = [-v for v in advance(state, -x)]
    steps.flags.writeable = False  # one array per (r, L, mode), shared by every call
    return steps


# -- the Mobius-weighted flats sum --------------------------------------------


def _inward_flats_sum(matroid: Matroid) -> tuple[int, int]:
    """All chains of flats, with strictly-below path counts and sign
    (-1)^length times the product of interval Mobius values along the
    chain: `FlatLattice.chain_sum` with the M_t of `_cube_sum` (every flat
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
    total = flat_lattice(matroid).chain_sum(
        [1] + [0] * (r - 1) + [1], lambda t, z: np.matmul(z[:, None], steps[key[t]])[:, 0]
    )
    last = np.array([comb(length, r - 1 - j) for j in range(r)])  # last row of A^L
    return -int(last @ total[:r]), -int(total[r])


# -- the fully cancelled sums -------------------------------------------------


def _final_sum(matroid: Matroid, flats_only: bool) -> tuple[int, int]:
    """Chains H_0 < H_1 < ... < H_m = E of crowding records with strictly
    increasing crowding starting at 0, nested zero parts, and sign
    (-1)^(c(H_0) + m - 1); paths are bounded weakly above at every chain
    member except the empty set and the ground set.

    A kernel chain 0 < t_1 < ... < t_k < E is read as H = (0, t_1, ..., E)
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

    The link reads s: a transfer recursion over the members P, O(|P|^2 r),
    U(0) = e_0 and U(t) = A^{-x_t} mask_t A^{x_t} sum over s < t of
    link(s, t) U(s), with x_t the clamped corank of t and A^k the advance
    by k columns; the covalue is the last coordinate of A^L U(E), and the
    chain count the same recursion on counts, C(0) = 1."""
    n, r, full = matroid.n, matroid.r, matroid.full_mask
    length = n - r - 1
    universe = crowded_flats(matroid) if flats_only else crowded_sets(matroid)
    if full not in universe or not is_crowding_record(matroid, full):
        return 0, 0
    zero = cache(lambda mask: crowding_split(matroid, mask)[0])

    # the sign of s -> t (0: no link), link(0, E) the chain with no interior
    # member; record status and zero parts are read only where a chain reaches
    def link(s: int, t: int) -> int:
        if not is_crowding_record(matroid, t):
            return 0
        into = 1 if t == full else -1
        level = crowding(matroid, t)
        if s == 0 and level == 0:  # t is H_0: -into times (-1)^c(t)
            return into * (1 if matroid.component_count(t) % 2 else -1)
        if level <= crowding(matroid, s) or zero(t) & ~s:
            return 0
        return into

    if not 1 <= r <= length + 1:  # no path: only the chain 0 < E counts
        return 0, int(link(0, full) != 0)
    masks = np.array([m for m in universe if m not in (0, full)], dtype=np.int64)
    ranks = matroid.ensure_rank_table()[masks]
    columns = np.minimum(popcounts(n)[masks] - ranks, length)
    keep = admits(columns, ranks, Mode.ABOVE, r)
    # (mask, U or None when zero, C) of the empty set and every member a
    # chain can reach, with the masks also in an array to find a member's
    # subsets
    reached: list[tuple[int, list[int] | None, int]] = [(0, [1] + [0] * (r - 1), 1)]
    reached_masks = np.zeros(int(keep.sum()) + 1, dtype=np.int64)

    def gather(t: int) -> tuple[list[int], int]:
        """The sums over s < t of link(s, t) U(s) and of C(s)."""
        state, count = [0] * r, 0
        below = np.flatnonzero((reached_masks[: len(reached)] & ~t) == 0)
        for i in below.tolist():
            s, s_state, s_count = reached[i]
            sign = link(s, t)
            if not sign:
                continue
            count += s_count
            if s_state is not None:
                for d, v in enumerate(s_state):
                    state[d] += sign * v
        return state, count

    for t, rk, col in zip(masks[keep].tolist(), ranks[keep].tolist(), columns[keep].tolist()):
        state, count = gather(t)
        if not count:
            continue
        if any(state):
            state = advance(state, col)
            restrict(state, rk, Mode.ABOVE)
            state = advance(state, -col)
        reached_masks[len(reached)] = t
        reached.append((t, state if any(state) else None, count))
    state, chains = gather(full)
    return advance(state, length)[-1], chains
