"""Shared helpers for the test suite."""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np

from omegacalc.altsum import alternating_chain_sum, popcounts
from omegacalc.bitops import bits, mask_of, popcount
from omegacalc.corpus import random_schubert
from omegacalc.crowding import crowded_sets
from omegacalc.engine import compute_omega
from omegacalc.errors import ConstraintOutOfRange
from omegacalc.matroid import Matroid
from omegacalc.paths import Mode, PathProblem
from omegacalc.polytopes import (
    RationalPoint,
    ScaledPoint,
    SubsetSums,
    batch_marks,
    check_identity,
    scaled_point,
    subset_sums,
)


def omega_of(matroid: Matroid, method: str = "final-flats") -> int:
    """Invariant via the dispatcher, which handles loops uniformly."""
    return compute_omega(matroid, [method]).results[0].omega


def marked(marks: np.ndarray) -> list[int]:
    """The masks marked in a boolean array over the 2^n masks, ascending
    by cardinality, then by value."""
    masks = np.flatnonzero(marks)
    n = len(marks).bit_length() - 1
    return masks[np.argsort(popcounts(n)[masks], kind="stable")].tolist()


def flats_by_rank(lattice) -> tuple[tuple[int, ...], ...]:
    """The flats of a FlatLattice of each rank 0, ..., r, ascending by mask."""
    rank = lattice.matroid.ensure_rank_table()
    flats = np.flatnonzero(lattice.is_flat)
    return tuple(tuple(flats[rank[flats] == k].tolist()) for k in range(lattice.matroid.r + 1))


def all_flats(lattice) -> list[int]:
    """Every flat of a FlatLattice, rank by rank."""
    return [f for level in flats_by_rank(lattice) for f in level]


def as_point(coords) -> RationalPoint:
    """An exact rational point from integer, Fraction or string coordinates."""
    return tuple(Fraction(c) for c in coords)


def as_fractions(row: ScaledPoint) -> RationalPoint:
    """The Fraction coordinates W_e / D of an integer row (D, W)."""
    scale, coords = row
    return tuple(Fraction(w, scale) for w in coords)


def coloops(matroid: Matroid) -> int:
    """The mask of the elements in every basis."""
    out = matroid.full_mask
    for b in matroid.bases:
        out &= b
    return out


def proper_crowding(matroid: Matroid) -> list[int]:
    """c(T) = |T| - 2r(T) of every nonempty proper T, one rank query each."""
    return [popcount(t) - 2 * matroid.rank(t) for t in range(1, matroid.full_mask)]


def is_connected_by_definition(matroid: Matroid) -> bool:
    """No nonempty proper T has r(T) + r(E - T) = r(E)."""
    full = matroid.full_mask
    return all(matroid.rank(t) + matroid.rank(full & ~t) != matroid.r for t in range(1, full))


def middle_omega(matroid: Matroid) -> int:
    """The paper's criterion for a connected loop-free matroid with n = 2r:
    0 if some nonempty proper subset is crowded, else 1."""
    return 0 if max(proper_crowding(matroid), default=-1) >= 0 else 1


# -- basis lists built one basis at a time, the oracles of the constructors
# that hand Matroid a boolean array of their bases


def uniform_bases(r: int, n: int) -> tuple[int, ...]:
    """The r-subsets of the n-element ground set."""
    return tuple(sorted(mask_of(c) for c in combinations(range(n), r)))


def schubert_lower_bases(n, chain, profile) -> tuple[int, ...]:
    """The r-subsets B with |B & S_i| <= a_i along the chain, one at a time."""
    interior = list(zip(chain[:-1], profile[1:-1]))
    found = uniform_bases(profile[-1], n)
    return tuple(b for b in found if all(popcount(b & s) <= a for s, a in interior))


def dual_bases(matroid: Matroid) -> tuple[int, ...]:
    """The complements of the bases."""
    return tuple(sorted(matroid.full_mask ^ b for b in matroid.bases))


def direct_sum_bases(first: Matroid, second: Matroid) -> tuple[int, ...]:
    """Every union of a basis of first with a basis of second, shifted past it."""
    return tuple(sorted(b1 | (b2 << first.n) for b1 in first.bases for b2 in second.bases))


def parallel_extend_bases(matroid: Matroid, element: int) -> tuple[int, ...]:
    """The bases, and those through element with the new element n in its place."""
    bit, new_bit = 1 << element, 1 << matroid.n
    swapped = [(b ^ bit) | new_bit for b in matroid.bases if b & bit]
    return tuple(sorted([*matroid.bases, *swapped]))


def graded_bases(matroid: Matroid, z) -> tuple[int, ...]:
    """The bases of largest z-weight."""
    weights = [sum(z[e] for e in bits(b)) for b in matroid.bases]
    top = max(weights)
    return tuple(b for b, w in zip(matroid.bases, weights) if w == top)


def loops_of(matroid: Matroid) -> int:
    """The mask of the elements in no basis."""
    out = 0
    for b in matroid.bases:
        out |= b
    return matroid.full_mask & ~out


def minimal_crowded_sets_scan(matroid: Matroid) -> list[int]:
    """Oracle for `crowding.minimal_crowded_sets`: the crowded sets by
    cardinality, each kept unless a kept one lies inside it."""
    found: list[int] = []
    for mask in marked(crowded_sets(matroid)):
        if mask and not any((t & ~mask) == 0 for t in found):
            found.append(mask)
    return found


def count_paths_brute(problem: PathProblem) -> int:
    """Independent oracle for `paths.count_paths`: enumerate every step
    sequence explicitly."""
    n, r = problem.n, problem.r
    if r == 0:
        return 0
    length = n - r - 1
    diagonals = r - 1
    if diagonals > length:
        return 0
    for c in problem.constraints:
        if c.x < 0 or c.x > n - r:
            raise ConstraintOutOfRange(f"column {c.x} outside [0, {n - r}]")
    total = 0
    for positions in combinations(range(length), diagonals):
        ok = True
        for c in problem.constraints:
            upto = min(c.x, length)
            d = sum(1 for p in positions if p < upto)
            if c.mode is Mode.BELOW:
                if not d < c.y:
                    ok = False
                    break
            else:
                if not d >= c.y:
                    ok = False
                    break
        if ok:
            total += 1
    return total


def identity_at(matroid: Matroid, kind, point) -> tuple[int, int]:
    """(lhs, rhs) of check_identity at one Fraction point, as a batch of one
    row."""
    marks = batch_marks(matroid, subset_sums([scaled_point(point)]))
    lhs, rhs = check_identity(matroid, kind, marks)
    return int(lhs[0]), int(rhs[0])


def inward_sets_identity(matroid: Matroid, sums: SubsetSums) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for the inward-sets kind, which check_identity reports from the
    outward-sets count: (lhs, rhs) at every row of the batch, with rhs the
    inward sum evaluated on its own, (-1)^(n+1) times the signed chain count
    through the subsets whose inequality the point satisfies."""
    n = matroid.n
    within = sums.scaled <= sums.scale[:, None] * matroid.ensure_rank_table()
    on_plane = sums.scaled[:, -1] == sums.scale * matroid.r
    lhs = (on_plane & within.all(axis=1)).astype(np.int64)
    live = on_plane & sums.in_box
    rhs = np.zeros(len(live), dtype=np.int64)
    rhs[live] = alternating_chain_sum(n, within[live]) * (1 if n % 2 == 1 else -1)
    return lhs, rhs


# Specs whose fields have the wrong JSON type, or a ground-set size far
# above the cap (checked before any mask or list is built over it); each
# must be rejected as a malformed spec (exit 2 on the command line), not
# raise a Python error.
BAD_FIELD_SPECS = {
    "string-n": {"kind": "uniform", "n": "6", "r": 2},
    "float-n": {"kind": "uniform", "n": 6.0, "r": 2},
    "string-order-entry": {"kind": "schubert_order", "n": 3, "order": [0, 1, "x"], "set": [0]},
    "non-object-parts": {"kind": "direct_sum", "parts": [1, 2]},
    "bool-element": {"kind": "bases", "n": 2, "bases": [[True]]},
    "huge-n-bases": {"kind": "bases", "n": 10**20, "bases": [[10**20 - 1]]},
    "huge-n-order": {"kind": "schubert_order", "n": 10**20, "order": [0], "set": [0]},
}


def random_derived_matroid(rng: random.Random, n_max: int) -> Matroid:
    """A matroid from the mixed family (duals, minors, sums, parallel
    extensions of Schubert cores), as an object."""
    n = rng.randint(2, n_max)
    m = random_schubert(rng, n)
    op = rng.choice(["none", "dual", "delete", "contract", "sum", "parallel"])
    if op == "dual":
        m = m.dual()
    elif op == "delete" and m.n > 1:
        m = m.delete(1 << rng.randrange(m.n))
    elif op == "contract" and m.n > 1:
        m = m.contract(1 << rng.randrange(m.n))
    elif op == "sum" and m.n + 2 <= n_max:
        m = m.direct_sum(random_schubert(rng, rng.randint(2, n_max - m.n)))
    elif op == "parallel" and m.n < n_max:
        non_loops = [e for e in range(m.n) if m.rank(1 << e) == 1]
        if non_loops:
            m = m.parallel_extend(rng.choice(non_loops))
    return m


def random_simple_matroid(rng: random.Random, n: int, r: int, tries: int = 200) -> Matroid | None:
    """A loop-free simple connected matroid of the requested rank and size."""
    for _ in range(tries):
        m = random_schubert(rng, n, r, loop_free=True)
        if m.r != r or m.has_loops():
            continue
        if coloops(m):
            continue
        simple = m.simplify()
        if simple.n != m.n:
            continue
        if len(m.connected_components()) != 1:
            continue
        return m
    return None
