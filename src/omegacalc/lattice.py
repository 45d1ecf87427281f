"""Lattice of flats of a matroid, with interval Mobius values.

The flats are read off the rank array in one `altsum.subset_pass`: S is
a flat iff r(S + e) > r(S) for every e not in S (Oxley, Matroid Theory,
section 1.4); flats_by_rank[k] lists the flats of rank k in ascending
order.  Mobius values are computed by the direct recursion mu(F, F) = 1,
mu(F, G) = -sum of mu(F, H) over flats F <= H < G.  For a fixed F the
whole column mu(F, -) is filled in one ascending pass, one rank level at
a time, and memoized.  `weighted_predecessors` hands them, one per pair
of comparable flats, to `altsum.predecessor_walk`, which runs the
inward-flats route and the inner-flats identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .altsum import BLOCK_ENTRIES, subset_pairs, subset_pass
from .matroid import Matroid


@dataclass
class FlatLattice:
    """All flats of a matroid, graded by rank."""

    matroid: Matroid
    flats_by_rank: tuple[tuple[int, ...], ...]
    bottom: int
    is_flat: np.ndarray = field(repr=False)  # read-only, indexed by mask
    _mu: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)
    _predecessors: tuple | None = field(default=None, init=False, repr=False)
    _level_masks: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._level_masks = tuple(np.array(level, dtype=np.int64) for level in self.flats_by_rank)

    def __len__(self) -> int:
        return sum(len(level) for level in self.flats_by_rank)

    def mobius(self, lower: int, upper: int) -> int:
        """Mobius value of the interval [lower, upper] in the lattice of flats."""
        key = (lower, upper)
        cached = self._mu.get(key)
        if cached is None:  # (F, F) is never memoized
            if lower & ~upper or not (self.is_flat[lower] and self.is_flat[upper]):
                raise ValueError("mobius requires comparable flats")
            if lower == upper:
                return 1
            self._fill_column(lower)
            cached = self._mu[key]
        return cached

    def weighted_predecessors(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """(order, (upper, below, mu)): the flats in rank order and the
        relation F < G for `altsum.predecessor_walk`, with positions as
        int32 and mu(F, G) as the link weight, int16 (the bound is at
        _fill_column).  Built on the first call."""
        if self._predecessors is None:
            order = np.concatenate(self._level_masks)
            upper, below = (a.astype(np.int32) for a in subset_pairs(order))
            pairs = zip(order[below].tolist(), order[upper].tolist())
            mu = np.fromiter((self.mobius(*p) for p in pairs), dtype=np.int16, count=len(upper))
            self._predecessors = (order, (upper, below, mu))
        return self._predecessors

    def _fill_column(self, lower: int) -> None:
        # the flats above `lower`, level by level; flats of one rank are
        # incomparable, so a whole level is summed against the levels below
        # it at once.  |mu| on an interval is at most its number of bases
        # (< 2^14 for n <= 16), so every partial sum fits an int64.
        levels = [
            level[((level & lower) == lower) & (level != lower)] for level in self._level_masks
        ]
        above = np.concatenate(levels)
        values = np.empty(len(above), dtype=np.int64)
        done = 0
        for level in levels:
            rows = max(1, BLOCK_ENTRIES // max(done, 1))
            for lo in range(0, len(level), rows):
                part = level[lo : lo + rows]
                inside = (above[None, :done] & ~part[:, None]) == 0
                values[done + lo : done + lo + len(part)] = -1 - inside @ values[:done]
            done += len(level)
        self._mu.update(zip(((lower, g) for g in above.tolist()), values.tolist()))


def flat_lattice(matroid: Matroid) -> FlatLattice:
    """Compute all flats, graded by rank, plus the Mobius machinery."""
    if matroid._flat_lattice is not None:
        return matroid._flat_lattice
    rank = matroid.ensure_rank_table()
    _, is_flat = subset_pass((rank, np.ones(len(rank), dtype=np.bool_)), _rank_rises)
    is_flat.flags.writeable = False
    flats = np.flatnonzero(is_flat)
    flat_ranks = rank[flats]
    lattice = FlatLattice(
        matroid=matroid,
        flats_by_rank=tuple(
            tuple(flats[flat_ranks == k].tolist()) for k in range(matroid.r + 1)
        ),
        bottom=matroid.closure(0),
        is_flat=is_flat,
    )
    matroid._flat_lattice = lattice
    return lattice


def _rank_rises(e: int, rank: np.ndarray, is_flat: np.ndarray) -> None:
    # only S without e is tested
    is_flat[:, 0] &= rank[:, 1] > rank[:, 0]
