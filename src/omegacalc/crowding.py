"""Crowding of subsets: the quantity |S| - 2 rank(S) and its combinatorics.

A set is crowded when its crowding is >= 0.  T is overcrowded in S when
its crowding exceeds S's, or equals it without T being a direct-sum
component of the restriction to S.  A crowding record has no overcrowded
subset; records are what survive the strongest cancellation of the
summation engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bitops import popcount, submasks
from .lattice import flat_lattice
from .matroid import Matroid


def crowding(matroid: Matroid, mask: int) -> int:
    return popcount(mask) - 2 * matroid.rank(mask)


def is_summand(matroid: Matroid, part: int, whole: int) -> bool:
    """True when part is a union of connected components of the restriction."""
    if part & ~whole:
        raise ValueError("part must lie inside whole")
    return matroid.rank(part) + matroid.rank(whole & ~part) == matroid.rank(whole)


def is_overcrowded_in(matroid: Matroid, part: int, whole: int) -> bool:
    if part & ~whole:
        raise ValueError("part must lie inside whole")
    sp = crowding(matroid, part)
    sw = crowding(matroid, whole)
    if sp > sw:
        return True
    return sp == sw and not is_summand(matroid, part, whole)


def is_crowding_record(matroid: Matroid, mask: int) -> bool:
    """Exhaustive scan: no submask may be overcrowded in mask."""
    cached = matroid._records.get(mask)
    if cached is not None:
        return cached
    rank = matroid.rank
    sw = popcount(mask) - 2 * rank(mask)
    rw = rank(mask)
    verdict = True
    for sub in submasks(mask):
        sp = popcount(sub) - 2 * rank(sub)
        if sp > sw or (sp == sw and rank(sub) + rank(mask & ~sub) != rw):
            verdict = False
            break
    matroid._records[mask] = verdict
    return verdict


def crowd_hull(chain: Sequence[int], crowdings: Sequence[int]) -> list[int]:
    """Members whose crowding is strictly exceeded by every later member."""
    out = []
    for i, mask in enumerate(chain):
        if all(crowdings[j] > crowdings[i] for j in range(i + 1, len(chain))):
            out.append(mask)
    return out


def crowd_hull_minimal(
    chain: Sequence[int], crowdings: Sequence[int], ranks: Sequence[int]
) -> list[int]:
    """Smallest subchain bounding the same paths: additionally drop any
    member preceded by nothing of larger rank, i.e. keep S_i only when all
    earlier members have strictly smaller rank."""
    out = []
    for i, mask in enumerate(chain):
        later_ok = all(crowdings[j] > crowdings[i] for j in range(i + 1, len(chain)))
        earlier_ok = all(ranks[j] < ranks[i] for j in range(i))
        if later_ok and earlier_ok:
            out.append(mask)
    return out


def crowding_split(matroid: Matroid, mask: int) -> tuple[int, int]:
    """(zero part, positive part): unions of components of the restriction
    with crowding exactly zero / strictly positive."""
    zero = positive = 0
    if mask:
        for comp in matroid.restriction_components(mask):
            s = crowding(matroid, comp)
            if s == 0:
                zero |= comp
            elif s > 0:
                positive |= comp
    return zero, positive


def crowded_sets(matroid: Matroid) -> list[int]:
    """All crowded subsets, ascending by cardinality then value."""
    out = [
        mask
        for mask in range(1 << matroid.n)
        if popcount(mask) - 2 * matroid.rank(mask) >= 0
    ]
    out.sort(key=lambda m: (popcount(m), m))
    return out


def crowded_flats(matroid: Matroid) -> list[int]:
    lattice = flat_lattice(matroid)
    out = [f for f in lattice.flats if crowding(matroid, f) >= 0]
    out.sort(key=lambda m: (popcount(m), m))
    return out


def minimal_crowded_sets(matroid: Matroid) -> list[int]:
    """Inclusion-minimal nonempty sets of crowding >= 0."""
    found: list[int] = []
    for mask in crowded_sets(matroid):
        if mask == 0:
            continue
        if any((t & ~mask) == 0 for t in found):
            continue
        found.append(mask)
    return found


def has_overcrowded_set(matroid: Matroid) -> bool:
    """Any set overcrowded in the full ground set forces the invariant to 0."""
    full = matroid.full_mask
    top = crowding(matroid, full)
    rank = matroid.rank
    r = matroid.r
    for mask in range(1, full):
        s = popcount(mask) - 2 * rank(mask)
        if s > top or (s == top and rank(mask) + rank(full & ~mask) != r):
            return True
    return False


@dataclass(frozen=True)
class CrowdingProfile:
    """Summary of the crowding landscape of a matroid."""

    crowding: dict[int, int]
    crowded_sets: tuple[int, ...]
    crowded_flats: tuple[int, ...]
    record_sets: tuple[int, ...]
    record_flats: tuple[int, ...]
    minimal_crowded: tuple[int, ...]


def crowding_profile(matroid: Matroid) -> CrowdingProfile:
    stress = {mask: crowding(matroid, mask) for mask in range(1 << matroid.n)}
    csets = crowded_sets(matroid)
    cflats = crowded_flats(matroid)
    rsets = tuple(m for m in csets if is_crowding_record(matroid, m))
    rflats = tuple(m for m in cflats if is_crowding_record(matroid, m))
    return CrowdingProfile(
        crowding=stress,
        crowded_sets=tuple(csets),
        crowded_flats=tuple(cflats),
        record_sets=rsets,
        record_flats=rflats,
        minimal_crowded=tuple(minimal_crowded_sets(matroid)),
    )
