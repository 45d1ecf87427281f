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
marked subposet of the boolean lattice (see altsum).  All other variants
enumerate chains by depth-first search with incremental path counting,
pruning any prefix whose constraints already exclude every path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Sequence

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
from .errors import Infeasible, VariantInapplicable
from .lattice import flat_lattice
from .matroid import Matroid
from .paths import ChainPathCounter, Mode

SET_VARIANT_CAP = 12


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


SET_VARIANTS = {Variant.INWARD_SETS, Variant.OUTWARD_SETS}
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
    seconds: float


def covalue(matroid: Matroid, variant: Variant) -> ChainSumRun:
    """The covaluative invariant of the matroid by the chosen route."""
    start = time.perf_counter()
    if variant in FLAT_VARIANTS and matroid.has_loops():
        raise VariantInapplicable(f"{variant.value} requires a loop-free matroid")
    if variant in SET_VARIANTS and matroid.n > SET_VARIANT_CAP:
        raise Infeasible(
            f"{variant.value} enumerates chains of arbitrary subsets; capped at n = {SET_VARIANT_CAP}"
        )
    if variant is Variant.INWARD_SETS:
        value, chains = _sets_global(matroid, Mode.BELOW), None
    elif variant is Variant.OUTWARD_SETS:
        value, chains = _sets_global(matroid, Mode.ABOVE), None
    elif variant is Variant.CROWDED_SETS:
        value, chains = _poset_dfs(matroid, _crowded_set_poset(matroid))
    elif variant is Variant.RECORD_SETS:
        value, chains = _poset_dfs(matroid, _record_set_poset(matroid))
    elif variant is Variant.CROWDED_FLATS:
        value, chains = _poset_dfs(matroid, _crowded_flat_poset(matroid))
    elif variant is Variant.RECORD_FLATS:
        value, chains = _poset_dfs(matroid, _record_flat_poset(matroid))
    elif variant is Variant.OUTWARD_FLATS:
        value, chains = _flats_dfs(matroid, Mode.ABOVE)
    elif variant is Variant.INWARD_FLATS:
        value, chains = _flats_dfs(matroid, Mode.BELOW)
    elif variant is Variant.FINAL_SETS:
        value, chains = _final_dfs(matroid, flats_only=False)
    elif variant is Variant.FINAL_FLATS:
        value, chains = _final_dfs(matroid, flats_only=True)
    else:  # pragma: no cover
        raise ValueError(f"unknown variant {variant}")
    return ChainSumRun(variant, value, chains, time.perf_counter() - start)


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


# -- global set sums, path by path -------------------------------------------


def _sets_global(matroid: Matroid, mode: Mode) -> int:
    n, r = matroid.n, matroid.r
    length = n - r - 1
    diagonals = r - 1
    if r == 0 or diagonals > length:
        return 0
    table = np.array(matroid.ensure_rank_table(), dtype=np.int64)
    corank = popcounts(n) - table
    total = 0
    for positions in combinations(range(length), diagonals):
        prefix = np.zeros(n - r + 1, dtype=np.int64)
        for x in range(n - r + 1):
            upto = min(x, length)
            prefix[x] = sum(1 for p in positions if p < upto)
        d_at = prefix[corank]
        if mode is Mode.BELOW:
            good = d_at < table
        else:
            good = d_at >= table
        term = alternating_chain_sum(n, good)
        if mode is Mode.BELOW and n % 2 == 0:
            term = -term
        total += term
    return total


# -- generic chain DFS over a poset of crowded or record sets/flats ----------


def _crowded_set_poset(matroid: Matroid) -> list[int]:
    return crowded_sets(matroid)


def _record_set_poset(matroid: Matroid) -> list[int]:
    return [m for m in crowded_sets(matroid) if is_crowding_record(matroid, m)]


def _crowded_flat_poset(matroid: Matroid) -> list[int]:
    return crowded_flats(matroid)


def _record_flat_poset(matroid: Matroid) -> list[int]:
    return [m for m in crowded_flats(matroid) if is_crowding_record(matroid, m)]


def _poset_dfs(matroid: Matroid, poset: list[int]) -> tuple[int, int]:
    """Sum over chains of poset members from the empty set to the ground
    set, with sign (-1)^(length-1) and weakly-above path counts."""
    full = matroid.full_mask
    if 0 not in poset or full not in poset:
        return 0, 0
    interior = [m for m in poset if m not in (0, full)]
    counter = ChainPathCounter(matroid.n, matroid.r)
    rank = matroid.rank
    total = 0
    chains = 0

    def dfs(cands: list[int], depth: int) -> None:
        nonlocal total, chains
        # complete the chain with the ground set (no constraint point)
        chains += 1
        term = counter.completed_count()
        if term:
            total += term if depth % 2 == 0 else -term
        for i, t in enumerate(cands):
            rk = rank(t)
            alive = counter.push(popcount(t) - rk, rk, Mode.ABOVE)
            if alive:
                dfs([u for u in cands[i + 1 :] if (t & ~u) == 0], depth + 1)
            counter.pop()

    dfs(interior, 0)
    return total, chains


def _flats_dfs(matroid: Matroid, mode: Mode) -> tuple[int, int]:
    """Sum over all chains of flats.

    Weakly-above counts carry sign (-1)^(length-1); strictly-below counts
    carry (-1)^length times the product of interval Mobius values along
    the chain.
    """
    lattice = flat_lattice(matroid)
    full = matroid.full_mask
    counter = ChainPathCounter(matroid.n, matroid.r)
    rank = matroid.rank
    mobius = lattice.mobius if mode is Mode.BELOW else None
    total = 0
    chains = 0

    def dfs(cur: int, depth: int, weight: int) -> None:
        nonlocal total, chains
        chains += 1
        term = counter.completed_count()
        if term:
            if mode is Mode.ABOVE:
                total += term if depth % 2 == 0 else -term
            else:
                edge = weight * mobius(cur, full)
                total += -edge * term if depth % 2 == 0 else edge * term
        for t in lattice.flats_above(cur):
            if t == full:
                continue
            rk = rank(t)
            alive = counter.push(popcount(t) - rk, rk, mode)
            if alive:
                dfs(t, depth + 1, weight if mobius is None else weight * mobius(cur, t))
            counter.pop()

    bottom = lattice.bottom
    if bottom != 0:  # loops would make the bottom flat nonempty
        raise VariantInapplicable("flats chains require a loop-free matroid")
    dfs(0, 0, 1)
    return total, chains


# -- the fully cancelled sums -------------------------------------------------


def _final_dfs(matroid: Matroid, flats_only: bool) -> tuple[int, int]:
    """Chains H_0 < H_1 < ... < H_m = E of crowding records with strictly
    increasing crowding starting at 0, nested zero parts, and sign
    (-1)^(c(H_0) + m - 1); paths are bounded weakly above at every chain
    member except the empty set and the ground set."""
    full = matroid.full_mask
    if flats_only:
        lattice = flat_lattice(matroid)
        if lattice.bottom != 0:
            raise VariantInapplicable("flats chains require a loop-free matroid")
        universe = lattice.flats
    else:
        universe = crowded_sets(matroid)
    records = [
        m
        for m in universe
        if crowding(matroid, m) >= 0 and is_crowding_record(matroid, m)
    ]
    if full not in records:
        return 0, 0
    rank = matroid.rank
    top_crowding = crowding(matroid, full)
    counter = ChainPathCounter(matroid.n, matroid.r)
    total = 0
    chains = 0

    zero_full, _ = crowding_split(matroid, full)

    def complete(start_components: int, edges: int, prev_zero: int) -> None:
        nonlocal total, chains
        if zero_full & ~prev_zero:
            return
        chains += 1
        term = counter.completed_count()
        if term:
            sign = -1 if (start_components + edges - 1) % 2 else 1
            total += sign * term

    def dfs(cur: int, start_components: int, edges: int, cur_crowding: int, cur_zero: int) -> None:
        if top_crowding > cur_crowding:
            complete(start_components, edges + 1, cur_zero)
        for t in records:
            if t == full or (cur & ~t) != 0 or t == cur:
                continue
            s = crowding(matroid, t)
            if s <= cur_crowding:
                continue
            zero_t, _ = crowding_split(matroid, t)
            if zero_t & ~cur_zero:
                continue
            rk = rank(t)
            alive = counter.push(popcount(t) - rk, rk, Mode.ABOVE)
            if alive:
                dfs(t, start_components, edges + 1, s, zero_t)
            counter.pop()

    for h0 in records:
        if crowding(matroid, h0) != 0:
            continue
        if h0 == full:
            # the one-element chain (E), admissible only at crowding 0
            chains += 1
            term = counter.completed_count()
            if term:
                c = matroid.component_count()
                total += term if (c - 1) % 2 == 0 else -term
            continue
        comp0 = matroid.component_count(h0) if h0 else 0
        zero0, _ = crowding_split(matroid, h0) if h0 else (0, 0)
        if h0 == 0:
            dfs(0, comp0, 0, 0, 0)
        else:
            rk = rank(h0)
            alive = counter.push(popcount(h0) - rk, rk, Mode.ABOVE)
            if alive:
                dfs(h0, comp0, 0, 0, zero0)
            counter.pop()
    return total, chains
