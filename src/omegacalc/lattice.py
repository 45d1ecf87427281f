"""Lattice of flats of a matroid, with interval Mobius values.

The flats are read off the rank array in one `altsum.subset_pass`: S is
a flat iff r(S + e) > r(S) for every e not in S (Oxley, Matroid Theory,
section 1.4), and `is_flat` marks them by mask; the flats of rank k are
the marked masks of rank k.  Mobius values come from Rota's recursion
mu(F, F) = 1, mu(F, G) = -sum of mu(F, H) over flats F <= H < G (On the
foundations of combinatorial theory I, 1964), on every pair F < G of the
`altsum.subset_pairs` relation at once, one rank level of G at a time
(`_interval_mobius`), on the first `mobius` call that needs them.
`weighted_predecessors` reads them, one per pair of comparable flats, in
one `mobius` call and hands them to `altsum.predecessor_walk`, which runs
the inward-flats route and the inner-flats identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .altsum import BLOCK_ENTRIES, subset_pairs, subset_pass
from .matroid import Matroid


@dataclass
class FlatLattice:
    """All flats of a matroid, marked by mask, with the rank table they
    were read from (r = rank[-1]); it holds no reference to the matroid,
    which caches the lattice."""

    rank: np.ndarray = field(repr=False)  # read-only, indexed by mask
    bottom: int
    is_flat: np.ndarray = field(repr=False)  # read-only, indexed by mask
    _table: tuple | None = field(default=None, init=False, repr=False)
    _predecessors: tuple | None = field(default=None, init=False, repr=False)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.is_flat))

    def mobius(self, lower, upper):
        """Mobius value of the interval [lower, upper] in the lattice of
        flats: an int for two masks, an int64 array for arrays of masks,
        read elementwise."""
        lower, upper = np.broadcast_arrays(lower, upper)
        if not (((lower | upper) == upper) & (0 <= upper) & (upper < len(self.is_flat))).all():
            raise ValueError("mobius requires comparable flats")  # also masks outside [0, 2^n)
        lower, upper = lower.astype(np.int64, copy=False), upper.astype(np.int64, copy=False)
        if not (self.is_flat[lower] & self.is_flat[upper]).all():
            raise ValueError("mobius requires comparable flats")
        values = np.ones(lower.shape, dtype=np.int64)
        strict = lower != upper
        if strict.any():
            order, position, _, _, keys, mu = self._mobius_table()
            at = position[upper[strict]] * len(order) + position[lower[strict]]
            values[strict] = mu[np.searchsorted(keys, at)]
        return int(values) if values.ndim == 0 else values

    def weighted_predecessors(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """(order, (upper, below, mu)): the flats in rank order and the
        relation F < G for `altsum.predecessor_walk`, with positions as
        int32 and mu(F, G) as the link weight, int16 (|mu| < 2^14, see
        `_interval_mobius`).  Built on the first call; read-only."""
        if self._predecessors is None:
            order, _, upper, below, _, _ = self._mobius_table()
            mu = self.mobius(order[below], order[upper]).astype(np.int16)
            for array in (order, upper, below, mu):
                array.flags.writeable = False
            self._predecessors = (order, (upper, below, mu))
        return self._predecessors

    def _mobius_table(self) -> tuple[np.ndarray, ...]:
        # (order, position, upper, below, keys, mu): the L flats in rank
        # order, each flat's position there by mask, every pair F < G by
        # position as `subset_pairs` lists it, its key pos(G) L + pos(F),
        # ascending, and mu(F, G)
        if self._table is None:
            flats = np.flatnonzero(self.is_flat)
            ranks = self.rank[flats]
            order = flats[np.argsort(ranks, kind="stable")]
            position = np.zeros(len(self.is_flat), dtype=np.int64)
            position[order] = np.arange(len(order))
            upper, below = (a.astype(np.int32) for a in subset_pairs(order))
            keys = upper.astype(np.int64) * len(order) + below
            ends = np.cumsum(np.bincount(ranks, minlength=int(self.rank[-1]) + 1))
            mu = _interval_mobius(upper, below, keys, ends)
            self._table = (order, position, upper, below, keys, mu)
        return self._table


def _interval_mobius(upper, below, keys, ends) -> np.ndarray:
    """mu(F, G) at every pair F < G of flats, in the order of `keys`: the
    upper positions, ascending, and the lower, ascending for each upper;
    `ends[k]` is the position after the last flat of rank k.  By the
    recursion mu(F, G) = -1 - sum of mu(F, H) over F < H < G, one rank
    level of G at a time: each link H < G of the level is joined with the
    links F < H into H, whose values are final, since H ranks lower, and
    each mu(F, H) is added at the pair F < G, found by `searchsorted` on
    its key.  A join holds at most BLOCK_ENTRIES triples, or one link.
    |mu| on an interval is at most its number of bases (< 2^14 for
    n <= 16), so a sum of at most L such terms, L the number of flats,
    fits an int64."""
    starts = np.searchsorted(upper, np.arange(ends[-1] + 1))  # links into G: starts[G]:starts[G + 1]
    degree = np.diff(starts)
    mu = np.zeros(len(keys), dtype=np.int64)
    for first, last in zip(ends[:-1], ends[1:]):  # the flats of one rank
        a, b = starts[first], starts[last]  # the links into them
        triples = degree[below[a:b]]
        done = np.concatenate(([0], np.cumsum(triples)))  # triples before each link
        i = 0
        while i < b - a:
            j = int(np.searchsorted(done, done[i] + BLOCK_ENTRIES, side="right")) - 1
            j = max(i + 1, j)
            g = upper[a + i : a + j]
            skip = np.repeat(starts[below[a + i : a + j]] - done[i:j], triples[i:j])
            source = skip + np.arange(done[i], done[j])  # the links F < H
            at = np.repeat(g.astype(np.int64) * ends[-1], triples[i:j]) + below[source]
            lo, hi = starts[g[0]], starts[g[-1] + 1]  # the pairs F < G of these G
            np.add.at(mu, lo + np.searchsorted(keys[lo:hi], at), mu[source])
            i = j
        np.subtract(-1, mu[a:b], out=mu[a:b])
    return mu


def flat_lattice(matroid: Matroid) -> FlatLattice:
    """Mark all flats, plus the Mobius machinery."""
    if matroid._flat_lattice is not None:
        return matroid._flat_lattice
    rank = matroid.ensure_rank_table()
    _, is_flat = subset_pass((rank, np.ones(len(rank), dtype=np.bool_)), _rank_rises)
    is_flat.flags.writeable = False
    lattice = FlatLattice(rank=rank, bottom=matroid.closure(0), is_flat=is_flat)
    matroid._flat_lattice = lattice
    return lattice


def _rank_rises(e: int, rank: np.ndarray, is_flat: np.ndarray) -> None:
    # only S without e is tested
    is_flat[:, 0] &= rank[:, 1] > rank[:, 0]
