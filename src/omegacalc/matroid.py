"""Exact matroids on small ground sets, represented by explicit basis lists.

Ground sets are {0, ..., n-1} with n <= 16; subsets are integer bitmasks
(see bitops).  A Matroid is immutable after construction.  Every rank
query reads one read-only int8 numpy array of all 2^n ranks, filled on
the first query: `rank` reads one entry of it as a Python int, and
questions about many subsets at once (minors here; flats, crowding scans
and identity checks elsewhere) index it whole.  A basis list from
outside (from_bases) is checked on that array for submodularity.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .altsum import popcounts, submask_array
from .bitops import bits, elements_of, mask_of, popcount
from .errors import (
    EmptyGroundSet,
    InvalidProfile,
    InvalidRank,
    LoopsPresent,
    NotAMatroid,
    OmegacalcError,
)

GROUND_SET_CAP = 16


class Matroid:
    """A matroid given by its ground-set size, rank and list of bases."""

    __slots__ = (
        "n",
        "r",
        "bases",
        "_rank_table",
        "_record_arrays",
        "_flat_lattice",
        "_restriction_components",
        "_records",
    )

    def __init__(self, n: int, bases: Iterable[int], *, _validated: bool = False):
        check_ground_size(n)
        basis_list = sorted(set(bases))
        if not basis_list:
            raise NotAMatroid("a matroid must have at least one basis")
        full = (1 << n) - 1
        if any(b & ~full for b in basis_list):
            raise NotAMatroid("basis mask uses elements outside the ground set")
        r = popcount(basis_list[0])
        if any(popcount(b) != r for b in basis_list):
            raise NotAMatroid("bases must all have the same cardinality")
        self.n = n
        self.r = r
        self.bases: tuple[int, ...] = tuple(basis_list)
        self._rank_table: np.ndarray | None = None
        self._record_arrays: tuple[np.ndarray, np.ndarray] | None = None
        self._flat_lattice = None
        self._restriction_components: dict[int, tuple[int, ...]] = {}
        self._records: dict[int, bool] = {}
        if not _validated:
            _check_submodular(n, self.ensure_rank_table())

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matroid) and self.n == other.n and self.bases == other.bases
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bases))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, r={self.r}, bases={len(self.bases)})"

    # -- rank and closure ---------------------------------------------------

    def ensure_rank_table(self) -> np.ndarray:
        """The table of all 2^n ranks, a read-only int8 array indexed by
        mask, filled on the first call."""
        if self._rank_table is None:
            table = _rank_array(self.n, self.bases)
            table.flags.writeable = False
            self._rank_table = table
        return self._rank_table

    def rank(self, mask: int) -> int:
        """Rank of a subset: the largest intersection with a basis."""
        if mask & ~self.full_mask:
            raise OmegacalcError("subset outside the ground set")
        table = self._rank_table
        if table is None:
            table = self.ensure_rank_table()
        return table.item(mask)

    def closure(self, mask: int) -> int:
        """Largest superset with the same rank."""
        rk = self.rank(mask)
        out = mask
        rest = self.full_mask & ~mask
        for e in bits(rest):
            if self.rank(mask | (1 << e)) == rk:
                out |= 1 << e
        return out

    # -- loops, connectivity -------------------------------------------------

    def loops(self) -> int:
        out = 0
        for b in self.bases:
            out |= b
        return self.full_mask & ~out

    def has_loops(self) -> bool:
        return self.loops() != 0

    def connected_components(self) -> tuple[int, ...]:
        """Partition of the ground set into connected components."""
        return self.restriction_components(self.full_mask)

    def component_count(self, mask: int | None = None) -> int:
        return len(self.restriction_components(self.full_mask if mask is None else mask))

    def restriction_components(self, mask: int) -> tuple[int, ...]:
        """Connected components of the restriction to mask, in original labels."""
        cached = self._restriction_components.get(mask)
        if cached is None:
            cached = _components(self.rank, mask)
            self._restriction_components[mask] = cached
        return cached

    # -- minors, dual, sums ---------------------------------------------------

    def _minor_bases(self, keep: int, contracted: int, size: int) -> list[int]:
        """Bases of (M | (keep|contracted)) / contracted as masks inside keep:
        the size-element S inside keep with r(S | contracted) = r(contracted) + size."""
        subs = submask_array(keep)
        rank = self.ensure_rank_table()
        hit = (popcounts(self.n)[subs] == size) & (
            rank[subs | contracted] == rank[contracted] + size
        )
        return subs[hit].tolist()

    def dual(self) -> "Matroid":
        full = self.full_mask
        return Matroid(self.n, (full ^ b for b in self.bases), _validated=True)

    def delete(self, mask: int) -> "Matroid":
        """Delete the elements of mask, relabelling the rest in order."""
        keep = self.full_mask & ~mask
        if keep == 0:
            raise EmptyGroundSet("deleting every element")
        rk = self.rank(keep)
        bases = self._minor_bases(keep, 0, rk)
        return _relabel(self.n, bases, keep)

    def contract(self, mask: int) -> "Matroid":
        """Contract the elements of mask, relabelling the rest in order."""
        keep = self.full_mask & ~mask
        if keep == 0:
            raise EmptyGroundSet("contracting every element")
        size = self.r - self.rank(mask)
        bases = self._minor_bases(keep, mask, size)
        return _relabel(self.n, bases, keep)

    def restrict(self, mask: int) -> "Matroid":
        """Restriction to mask = deletion of the complement."""
        return self.delete(self.full_mask & ~mask)

    def direct_sum(self, other: "Matroid") -> "Matroid":
        n = self.n + other.n
        if n > GROUND_SET_CAP:
            raise OmegacalcError("direct sum exceeds the ground-set cap")
        bases = [
            b1 | (b2 << self.n) for b1 in self.bases for b2 in other.bases
        ]
        return Matroid(n, bases, _validated=True)

    def parallel_extend(self, element: int) -> "Matroid":
        """Add one new element (labelled n) parallel to a non-loop element."""
        bit = 1 << element
        if not self.rank(bit):
            raise OmegacalcError("cannot add a parallel copy of a loop")
        if self.n + 1 > GROUND_SET_CAP:
            raise OmegacalcError("parallel extension exceeds the ground-set cap")
        new_bit = 1 << self.n
        bases = list(self.bases)
        bases.extend((b ^ bit) | new_bit for b in self.bases if b & bit)
        return Matroid(self.n + 1, bases, _validated=True)

    def simplify(self) -> "Matroid":
        """Collapse parallel classes, keeping the smallest element of each.

        Errors on loops; callers are expected to dispose of loops first.
        """
        if self.has_loops():
            raise LoopsPresent("simplify requires a loop-free matroid")
        seen: list[int] = []
        drop = 0
        for e in range(self.n):
            bit = 1 << e
            if any(self.rank((1 << rep) | bit) == 1 for rep in seen):
                drop |= bit
            else:
                seen.append(e)
        return self.delete(drop) if drop else self


def _relabel(n: int, bases: Iterable[int], keep: int) -> Matroid:
    positions = {e: i for i, e in enumerate(elements_of(keep))}
    out = [mask_of(positions[e] for e in bits(b)) for b in bases]
    return Matroid(len(positions), out, _validated=True)


def _rank_array(n: int, bases: Sequence[int]) -> np.ndarray:
    """r(S) = max |B & S| over the bases, for every mask S below 2^n (int8: r <= 16).

    Independent sets are the down-closure of the bases and r(S) the largest
    popcount of one inside S: two subset transforms, each one numpy pass per
    element e over the view pairing S - e (row 0) with S + e (row 1).
    """
    indep = np.zeros(1 << n, dtype=np.bool_)
    indep[np.fromiter(bases, dtype=np.int64, count=len(bases))] = True
    for e in range(n):
        v = indep.reshape(-1, 2, 1 << e)
        v[:, 0, :] |= v[:, 1, :]
    rank = popcounts(n) * indep
    for e in range(n):
        v = rank.reshape(-1, 2, 1 << e)
        np.maximum(v[:, 1, :], v[:, 0, :], out=v[:, 1, :])
    return rank


def _check_submodular(n: int, rank: np.ndarray) -> None:
    """Raise NotAMatroid unless r(S+e) + r(S+f) >= r(S+e+f) + r(S) everywhere.

    r(S) = max |B & S| over equal-size sets B is normalised, monotone and
    unit-increasing, so it is a rank function with the B as bases iff it is
    submodular (Oxley, ch. 1), iff this local inequality holds for all S and
    e, f not in S.  One vectorised comparison per pair e < f: O(n^2 2^n).
    """
    for f in range(1, n):
        for e in range(f):
            # axes: bits above f, bit f, bits between, bit e, bits below e
            v = rank.reshape(-1, 2, 1 << (f - e - 1), 2, 1 << e)
            bad = v[:, 0, :, 1, :] + v[:, 1, :, 0, :] < v[:, 1, :, 1, :] + v[:, 0, :, 0, :]
            if bad.any():
                high, mid, low = (int(i) for i in np.argwhere(bad)[0])
                s = high << (f + 1) | mid << (e + 1) | low
                raise NotAMatroid(
                    "bases are not those of a matroid: "
                    f"r(S+e) + r(S+f) < r(S+e+f) + r(S) at S={elements_of(s)}, e={e}, f={f}"
                )


def _components(rank, ground: int) -> tuple[int, ...]:
    """Connected components of the restriction to ground.

    They are the components of the fundamental graph of any one basis B of
    the restriction: e in B and f in ground - B are joined whenever
    B - e + f is again a basis.  Loops and coloops end up as singletons.
    """
    basis = size = 0
    for e in bits(ground):
        if rank(basis | (1 << e)) > size:
            basis |= 1 << e
            size += 1
    parent = list(range(ground.bit_length()))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    outside = ground & ~basis
    for e in bits(basis):
        removed = basis ^ (1 << e)
        for f in bits(outside):
            if rank(removed | (1 << f)) == size:
                union(e, f)
    comps: dict[int, int] = {}
    for e in bits(ground):
        root = find(e)
        comps[root] = comps.get(root, 0) | (1 << e)
    return tuple(sorted(comps.values()))


# -- constructors ------------------------------------------------------------


def check_ground_size(n: int) -> None:
    """Reject a ground-set size before anything is enumerated over it."""
    if n < 1:
        raise EmptyGroundSet("ground set must be nonempty")
    if n > GROUND_SET_CAP:
        raise OmegacalcError(f"ground sets larger than {GROUND_SET_CAP} are not supported")


def from_bases(n: int, bases: Iterable[int]) -> Matroid:
    """Build a matroid from an explicit basis list, checking that it is one.

    The check is the submodularity of r(S) = max |B & S| on the 2^n rank
    table (see _check_submodular): O(n^2 2^n), whatever the number of bases.
    """
    return Matroid(n, bases)


def uniform(r: int, n: int) -> Matroid:
    check_ground_size(n)
    if r < 0 or r > n:
        raise InvalidRank(f"rank {r} out of range for n={n}")
    bases = np.flatnonzero(popcounts(n) == r).tolist()
    return Matroid(n, bases, _validated=True)


def _check_chain(n: int, chain: Sequence[int]) -> None:
    check_ground_size(n)
    full = (1 << n) - 1
    if not chain or chain[-1] != full:
        raise InvalidProfile("chain must end with the full ground set")
    prev = 0
    for s in chain:
        if s & ~full:
            raise InvalidProfile("chain member outside the ground set")
        if (prev & ~s) != 0 or s == prev:
            raise InvalidProfile("chain must be strictly increasing")
        prev = s


def schubert_lower(n: int, chain: Sequence[int], profile: Sequence[int]) -> Matroid:
    """Matroid whose bases B satisfy |B & S_i| <= a_i along the chain.

    chain lists S_1 < S_2 < ... < S_k = E (the empty set is implicit);
    profile is (a_0, ..., a_k) with a_0 = 0 and a_k = r.
    """
    _check_chain(n, chain)
    k = len(chain)
    if len(profile) != k + 1:
        raise InvalidProfile("profile must have one more entry than the chain")
    if profile[0] != 0:
        raise InvalidProfile("profile must start at 0")
    r = profile[-1]
    prev_set, prev_a = 0, 0
    for s, a in zip(chain, profile[1:]):
        step = popcount(s) - popcount(prev_set)
        if not (prev_a <= a <= prev_a + step):
            raise InvalidProfile(f"profile entry {a} violates the chain inequalities")
        prev_set, prev_a = s, a
    # one popcount comparison per chain member over the whole 2^n cube
    pc = popcounts(n)
    masks = np.arange(1 << n)
    good = pc == r
    for s, a in zip(chain[:-1], profile[1:-1]):
        good &= pc[masks & s] <= a
    bases = np.flatnonzero(good).tolist()
    if not bases:
        raise InvalidProfile("profile admits no basis")
    return Matroid(n, bases, _validated=True)


def schubert_upper(n: int, chain: Sequence[int], profile: Sequence[int]) -> Matroid:
    """Matroid whose bases B satisfy |B & S_i| >= a_i along the chain.

    Delegates to schubert_lower on the reversed-complemented data.
    """
    _check_chain(n, chain)
    if len(profile) != len(chain) + 1:
        raise InvalidProfile("profile must have one more entry than the chain")
    return schubert_lower(n, *upper_as_lower(n, chain, profile))


def upper_as_lower(
    n: int, chain: Sequence[int], profile: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The lower-Schubert (chain, profile) of the upper-Schubert data.

    |B & S| >= a for a basis B of rank r is |B & (E - S)| <= r - a, so the
    complemented chain, read in reverse, carries the reversed profile.
    """
    full = (1 << n) - 1
    r = profile[-1]
    rev_chain = tuple(full & ~s for s in reversed((0, *chain[:-1])))
    rev_profile = tuple(r - a for a in reversed(profile))
    return rev_chain, rev_profile


def order_as_lower(
    order: Sequence[int], subset: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The lower-Schubert (chain, profile) of Gale dominance over `order`.

    For sets A, B of one size, sorted by the order, b_i >= a_i for every i
    iff |B & P| <= |A & P| for every prefix P of the order; so the chain is
    the prefixes and the profile counts A in each.
    """
    chain = tuple(mask_of(order[: i + 1]) for i in range(len(order)))
    profile = tuple(popcount(subset & s) for s in (0, *chain))
    return chain, profile


def schubert_from_order(order: Sequence[int], subset: int) -> Matroid:
    """Matroid whose bases dominate `subset` in the Gale order of `order`.

    order lists the ground set from smallest to largest; a set B is a basis
    iff, after sorting both by the order, b_i >= a_i elementwise.
    """
    n = len(order)
    check_ground_size(n)
    if sorted(order) != list(range(n)):
        raise OmegacalcError("order must be a permutation of the ground set")
    if subset >> n:
        raise OmegacalcError("subset outside the ground set")
    return schubert_lower(n, *order_as_lower(order, subset))
