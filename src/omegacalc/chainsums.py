"""The ten chain-sum routes to the invariant.

Every variant computes the covaluative value; the dispatcher applies the
component-count sign to recover the invariant itself.  The variants
differ in the index poset (all subsets, all flats, crowded ones, crowding
records, records with strictly increasing crowding), the path bound
(strictly below versus weakly above the chain's constraint points) and
the sign rule.

The two sums over chains of arbitrary subsets are evaluated by exchanging
the order of summation: for each path, the signed number of chains whose
constraint points the path satisfies is an alternating chain count in a
marked subposet of the boolean lattice, and one altsum call evaluates
the stack of the paths' distinct predicates.  The other eight are one
transfer recursion over the route's members (`_chain_sum`): each route only
supplies its members, its path bound and one sign callback `link(s, t)`
for the link s -> t of a chain from the empty set to the ground set (and,
for inward-flats, the Mobius values that scale it), so no chain is ever
enumerated.  Every member keeps its path state pulled back to column 0,
so a step between members is one weighted sum whatever their columns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .altsum import alternating_chain_sum, popcounts
from .bitops import popcount
from .crowding import (
    crowded_flats,
    crowded_sets,
    crowding,
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
    if variant is Variant.INWARD_SETS:
        value, chains = _sets_global(matroid, Mode.BELOW), None
    elif variant is Variant.OUTWARD_SETS:
        value, chains = _sets_global(matroid, Mode.ABOVE), None
    elif variant is Variant.CROWDED_SETS:
        value, chains = _poset_sum(matroid, crowded_sets(matroid))
    elif variant is Variant.RECORD_SETS:
        value, chains = _poset_sum(matroid, crowded_sets(matroid), records_only=True)
    elif variant is Variant.CROWDED_FLATS:
        value, chains = _poset_sum(matroid, crowded_flats(matroid))
    elif variant is Variant.RECORD_FLATS:
        value, chains = _poset_sum(matroid, crowded_flats(matroid), records_only=True)
    elif variant is Variant.OUTWARD_FLATS:
        value, chains = _poset_sum(matroid, flat_lattice(matroid).flats)
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


# -- global set sums, all paths at once --------------------------------------


def _sets_global(matroid: Matroid, mode: Mode) -> int:
    n, r = matroid.n, matroid.r
    length = n - r - 1
    if r == 0 or r - 1 > length:
        return 0
    table = matroid.rank_array()
    corank = popcounts(n) - table
    # D(x) of every path at every column x: its diagonal steps among the
    # first min(x, L) steps, one row per path
    steps = np.array(list(combinations(range(length), r - 1)), dtype=np.int64)
    columns = np.minimum(np.arange(n - r + 1), length)
    diagonals = (steps[:, :, None] < columns).sum(axis=1)
    # a path's predicate at S reads S only through (corank x, rank k), so
    # it is a lookup in the path's (x, k) table, one byte per entry
    verdict = diagonals[:, :, None] < np.arange(r + 1)
    if mode is Mode.ABOVE:
        verdict = ~verdict
    tables = verdict.reshape(len(steps), -1)
    key = corank.astype(np.int64) * (r + 1) + table
    # paths whose tables agree at every (x, k) the matroid realises share
    # one predicate: one row per class, weighted by its number of paths;
    # np.take keeps each row contiguous for altsum's zeta pass
    rows = [row.tobytes() for row in tables[:, np.flatnonzero(np.bincount(key))]]
    classes = Counter(rows)
    good = np.take(tables[[rows.index(row) for row in classes]], key, axis=1)
    values = alternating_chain_sum(n, good).tolist()
    sign = -1 if mode is Mode.BELOW and n % 2 == 0 else 1
    return sign * sum(paths * v for paths, v in zip(classes.values(), values))


# -- the chain-sum kernel -----------------------------------------------------


def _chain_sum(
    matroid: Matroid,
    members: Sequence[int],
    mode: Mode,
    link: Callable[[int, int], int],
    scale: Callable[[int, int], int] | None = None,
) -> tuple[int, int]:
    """Signed path counts summed over the chains 0 < t_1 < ... < t_k < E.

    `members` are the route's interior members, subsets before supersets.
    `link(s, t)` is the sign of the link s -> t of a chain (s a proper
    subset of t); a sign of 0 means no such link.  A chain enters at
    s = 0 and leaves at t = E, and link(0, E) is the chain with no
    interior member.  `scale(s, t)`, when given, multiplies the sign of
    every link; it is read only for links that carry a nonzero path state.

    A chain's path state is linear in its predecessor's, so the sum is a
    transfer recursion over members rather than a walk over chains.  With
    x_t the clamped corank of t, A^k the free advance by k columns and
    mask_t the constraint of t, each member keeps its state pulled back
    to column 0, so that a step is one weighted sum whatever the columns:

        U(0) = e_0,  U(t) = A^{-x_t} mask_t A^{x_t} sum over s < t of link(s, t) U(s)

    where s runs over the empty set and the members below t.  E is the
    last member and takes no constraint: the covalue is the last
    coordinate of A^L U(E).  A chain reaches t iff a path prefix meets
    t's own constraint (`admits`), so the chain count is the same
    recursion on counts, C(0) = 1 and C(t) = sum of C(s), read at E.
    """
    n, r = matroid.n, matroid.r
    length = n - r - 1
    full = matroid.full_mask
    if not 1 <= r <= length + 1:  # no path: only the chain 0 < E counts
        return 0, int(link(0, full) != 0)
    factor = scale or (lambda lower, upper: 1)
    masks = np.array(members, dtype=np.int64)
    ranks = matroid.rank_array()[masks]
    columns = np.minimum(popcounts(n)[masks] - ranks, length)
    keep = admits(columns, ranks, mode, r)
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
                weight = sign * factor(s, t)
                for d, v in enumerate(s_state):
                    state[d] += weight * v
        return state, count

    for t, rk, col in zip(masks[keep].tolist(), ranks[keep].tolist(), columns[keep].tolist()):
        state, count = gather(t)
        if not count:
            continue
        if any(state):
            state = advance(state, col)
            restrict(state, rk, mode)
            state = advance(state, -col)
        reached_masks[len(reached)] = t
        reached.append((t, state if any(state) else None, count))
    state, chains = gather(full)
    return advance(state, length)[-1], chains


def _poset_sum(
    matroid: Matroid, poset: list[int], records_only: bool = False
) -> tuple[int, int]:
    """Chains of poset members (of its crowding records only, if asked)
    from the empty set to the ground set, with sign (-1)^(length-1) and
    weakly-above path counts.  The empty set is in every poset passed
    here and is a crowding record of every matroid."""
    full = matroid.full_mask

    def link(s: int, t: int) -> int:
        # record status is scanned only for members a chain can reach
        if records_only and not is_crowding_record(matroid, t):
            return 0
        return 1 if t == full else -1

    if full not in poset or not link(0, full):
        return 0, 0
    interior = [m for m in poset if m not in (0, full)]
    return _chain_sum(matroid, interior, Mode.ABOVE, link)


def _inward_flats_sum(matroid: Matroid) -> tuple[int, int]:
    """All chains of flats, with strictly-below path counts and sign
    (-1)^length times the product of interval Mobius values along the
    chain."""
    lattice = flat_lattice(matroid)
    full = matroid.full_mask
    interior = [f for f in lattice.flats if f not in (0, full)]
    # the Mobius values scale the links rather than being the signs, so
    # they are read only for links that carry a path state
    return _chain_sum(matroid, interior, Mode.BELOW, lambda s, t: -1, scale=lattice.mobius)


# -- the fully cancelled sums -------------------------------------------------


def _final_sum(matroid: Matroid, flats_only: bool) -> tuple[int, int]:
    """Chains H_0 < H_1 < ... < H_m = E of crowding records with strictly
    increasing crowding starting at 0, nested zero parts, and sign
    (-1)^(c(H_0) + m - 1); paths are bounded weakly above at every chain
    member except the empty set and the ground set.

    A kernel chain 0 < t_1 < ... < t_k < E is read as H = (0, t_1, ..., E)
    when t_1 (E if k = 0) has positive crowding, and as H = (t_1, ..., E)
    when it has crowding 0; the empty set has crowding 0, no components
    and is a crowding record, so exactly one reading applies."""
    full = matroid.full_mask
    universe = crowded_flats(matroid) if flats_only else crowded_sets(matroid)
    if full not in universe or not is_crowding_record(matroid, full):
        return 0, 0
    zeros: dict[int, int] = {}

    def zero(mask: int) -> int:
        if mask not in zeros:
            zeros[mask] = crowding_split(matroid, mask)[0]
        return zeros[mask]

    # record status and zero parts are read only for members a chain can reach
    def link(s: int, t: int) -> int:
        if not is_crowding_record(matroid, t):
            return 0
        into = 1 if t == full else -1
        level = crowding(matroid, t)
        if s == 0 and level == 0:  # t is H_0: -into times (-1)^c(t)
            return into * (1 if matroid.component_count(t) % 2 else -1)
        if level <= crowding(matroid, s) or zero(t) & ~zero(s):
            return 0
        return into

    interior = [m for m in universe if m not in (0, full)]
    return _chain_sum(matroid, interior, Mode.ABOVE, link)
