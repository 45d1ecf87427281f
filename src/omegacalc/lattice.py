"""Lattice of flats of a matroid, with interval Mobius values.

The flats are read off the rank array in one pass per element: S is a
flat iff r(S + e) > r(S) for every e not in S (Oxley, Matroid Theory,
section 1.4); flats_by_rank[k] lists the flats of rank k in ascending
order.  Mobius values are computed by the direct recursion mu(F, F) = 1,
mu(F, G) = -sum of mu(F, H) over flats F <= H < G.  For a fixed F the
whole column mu(F, -) is filled in one ascending pass, one rank level at
a time, and memoized.  One kernel reads them: `chain_sum` walks the flats
in rank order, for the inward-flats route and the inner-flats identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matroid import Matroid


_CHUNK = 1 << 18  # entries per block: Mobius column comparisons, chain_sum terms


@dataclass
class FlatLattice:
    """All flats of a matroid, graded by rank."""

    matroid: Matroid
    flats_by_rank: tuple[tuple[int, ...], ...]
    bottom: int
    is_flat: np.ndarray = field(repr=False)  # read-only, indexed by mask
    _mu: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)
    _predecessors: tuple[np.ndarray, ...] | None = field(default=None, init=False, repr=False)
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

    def weighted_predecessors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(order, starts, below, mu): the flats in rank order, and for the
        flat G at position i the positions below[starts[i]:starts[i + 1]] of
        the flats F < G, int32, with mu(F, G) at the same places of mu,
        int16 (the bound is at _fill_column).  Built on the first call."""
        if self._predecessors is None:
            order = np.concatenate(self._level_masks)
            flats = order.tolist()
            inside = ((order[:i] & ~g) == 0 for i, g in enumerate(flats))
            lower = [np.flatnonzero(flags).astype(np.int32) for flags in inside]
            starts = np.cumsum([0] + [len(js) for js in lower])
            pairs = ((flats[j], g) for g, js in zip(flats, lower) for j in js.tolist())
            mu = np.fromiter((self.mobius(*p) for p in pairs), dtype=np.int16, count=starts[-1])
            self._predecessors = (order, starts, np.concatenate(lower), mu)
        return self._predecessors

    def chain_sum(self, start, transfer) -> np.ndarray:
        """Z(top) for U(bottom) = start, of width w, and U(G) = transfer(masks,
        Z) at the flats in between, Z(G) the sum of mu(F, G) U(F) over the
        flats F < G: `altsum`'s contract, with Mobius weights on flats.

        int64 is exact for n <= 16: values wrap modulo 2^64, so a value read
        is exact in [-2^63, 2^63), as in `altsum`.  Each caller sums rows
        t(bottom) = 1, t(G) = -good(G) Z(G), one per point (inner-flats) or
        per path (inward-flats).  Let H(G) = sum of mu(F, G) t(F) over F <= G.
        Mobius inversion makes t(G) the sum of H over F <= G, so t(G) =
        good(G) Z_H(G) and H(G) = (good(G) - 1) Z_H(G), Z_H(G) the sum of H
        over F < G: H is the signed chain count through the flats that fail,
        and |t(G)| <= a(|G|) <= a(16) by the Fubini bound of `altsum`.  So
        inward-flats reads at most 210 a(16) < 2^63 (C(10, 4) = 210 paths)
        and a chain count, <= a(16)."""
        order, starts, below, mu = self.weighted_predecessors()
        u = np.zeros((len(order), len(start)), dtype=np.int64)
        u[0] = start
        pairs = _CHUNK // max(1, len(start))  # predecessor terms summed at once
        ends = np.cumsum([len(level) for level in self.flats_by_rank])
        i = 1
        while i < ends[-2]:  # a block stays in one rank, whose flats are incomparable
            j = int(np.searchsorted(starts, starts[i] + pairs, side="right")) - 1
            j = min(ends[ends > i][0], max(i + 1, j))
            a, b = starts[i], starts[j]
            z = np.add.reduceat(mu[a:b, None] * u[below[a:b]], starts[i:j] - a)
            u[i:j] = transfer(order[i:j], z)
            i = j
        a, b = starts[-2:]
        return mu[a:b] @ u[below[a:b]]

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
            rows = max(1, _CHUNK // max(done, 1))
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
    is_flat = np.ones(len(rank), dtype=np.bool_)
    for e in range(matroid.n):
        # axes: bits above e, bit e, bits below e; only S without e is tested
        v = rank.reshape(-1, 2, 1 << e)
        is_flat.reshape(-1, 2, 1 << e)[:, 0, :] &= v[:, 1, :] > v[:, 0, :]
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
