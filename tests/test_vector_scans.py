"""The whole-cube array scans against the one-subset-at-a-time loops they
replaced.

Each reference below is the Python loop that once answered the question
by asking the rank table one mask at a time: the closure BFS for the
flats, the depth-first search for the bases of a minor, the definition
scans for crowded sets, overcrowded sets, crowding records, proper
crowded subsets and near-middle positivity, and the per-flat loops for
crowded flats and proper crowded flats.
"""

import random

import numpy as np
import pytest
from helpers import all_flats, random_derived_matroid

from omegacalc.altsum import submask_array
from omegacalc.bergman import level_chain
from omegacalc.bitops import bits, elements_of, mask_of, popcount
from omegacalc.closedform import _has_proper_crowded_flat, _has_proper_crowded_subset, _near_middle
from omegacalc.corpus import generate_corpus, random_schubert
from omegacalc.crowding import (
    crowded_flats,
    crowded_sets,
    crowding_array,
    has_overcrowded_set,
    is_crowding_record,
    record_arrays,
)
from omegacalc.errors import OmegacalcError
from omegacalc.lattice import flat_lattice
from omegacalc.matroid import from_bases, schubert_lower, uniform
from omegacalc.specfile import matroid_from_spec


# -- references -----------------------------------------------------------


def submasks(mask):
    """All submasks of mask, from mask itself down to 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def reference_crowding(m, mask):
    return popcount(mask) - 2 * m.rank(mask)


def reference_flats_by_rank(m):
    """Breadth-first search over covers: closures of F + e, level by level."""
    full = m.full_mask
    bottom = m.closure(0)
    levels = [(bottom,)]
    current = {bottom}
    seen = {bottom}
    while current:
        nxt = set()
        for f in current:
            for e in bits(full & ~f):
                g = m.closure(f | (1 << e))
                if g not in seen:
                    seen.add(g)
                    nxt.add(g)
        if not nxt:
            break
        levels.append(tuple(sorted(nxt)))
        current = nxt
    return tuple(levels)


def reference_minor_bases(m, keep, contracted, size):
    """Depth-first search extending independent sets of the contraction."""
    base_rank = m.rank(contracted)
    elems = elements_of(keep)
    out = []

    def extend(idx, cur, cur_size):
        if cur_size == size:
            out.append(cur)
            return
        if len(elems) - idx < size - cur_size:
            return
        for j in range(idx, len(elems)):
            bit = 1 << elems[j]
            if m.rank(contracted | cur | bit) == base_rank + cur_size + 1:
                extend(j + 1, cur | bit, cur_size + 1)

    extend(0, 0, 0)
    return out


def reference_crowded_sets(m):
    out = [s for s in range(1 << m.n) if reference_crowding(m, s) >= 0]
    out.sort(key=lambda s: (popcount(s), s))
    return out


def reference_crowded_flats(m):
    out = [f for f in all_flats(flat_lattice(m)) if reference_crowding(m, f) >= 0]
    out.sort(key=lambda s: (popcount(s), s))
    return out


def reference_has_proper_crowded_flat(m):
    full = m.full_mask
    return any(f not in (0, full) and reference_crowding(m, f) >= 0 for f in all_flats(flat_lattice(m)))


def reference_overcrowded_in(m, part, whole):
    sp, sw = reference_crowding(m, part), reference_crowding(m, whole)
    split = m.rank(part) + m.rank(whole & ~part) != m.rank(whole)
    return sp > sw or (sp == sw and split)


def reference_has_overcrowded_set(m):
    full = m.full_mask
    return any(reference_overcrowded_in(m, s, full) for s in range(1, full))


def reference_is_record(m, mask):
    return not any(reference_overcrowded_in(m, s, mask) for s in submasks(mask))


def reference_has_proper_crowded_subset(m):
    return any(reference_crowding(m, s) >= 0 for s in range(1, m.full_mask))


def reference_has_proper_positive_subset(m):
    """The first loop of the near-middle criterion."""
    return any(reference_crowding(m, s) > 0 for s in range(1, m.full_mask))


# -- inputs ---------------------------------------------------------------


def small_matroids():
    """Seeded matroids with n <= 8: loops, coloops, direct sums, Schubert."""
    out = [
        from_bases(1, [0]),
        uniform(1, 1),
        uniform(2, 5).direct_sum(from_bases(1, [0])),
        uniform(2, 4).direct_sum(uniform(1, 1)),
        uniform(1, 2).direct_sum(uniform(2, 3)),
        uniform(3, 7),
        uniform(4, 9).delete(1),
    ]
    rng = random.Random(20)
    out += [random_schubert(rng, rng.randint(1, 8)) for _ in range(12)]
    out += [random_derived_matroid(rng, 8) for _ in range(25)]
    return out


def large_matroids():
    """The auto-n16 corpus and one Schubert matroid with n = 16, r = 8."""
    specs = generate_corpus("schubert", 3, 94, 16, 5) + generate_corpus("schubert", 1, 1, 16, 8)
    return [matroid_from_spec(spec).matroid for spec in specs]


SMALL = small_matroids()
LARGE = large_matroids()
# the all-routes9 benchmark corpus
ROUTES9 = [matroid_from_spec(spec).matroid for spec in generate_corpus("closure", 30, 2, 9)]


def probe_masks(m, rng, count):
    """0, the ground set and `count` random masks: the large-n probes."""
    return [0, m.full_mask] + [rng.randrange(1 << m.n) for _ in range(count)]


# -- the array forms ------------------------------------------------------


def test_submask_array_lists_every_submask_ascending():
    rng = random.Random(3)
    for mask in [0, 1, 0b1011, (1 << 16) - 1] + [rng.randrange(1 << 12) for _ in range(20)]:
        subs = submask_array(mask)
        assert subs.dtype == np.int64
        assert subs.tolist() == sorted(submasks(mask))


def test_rank_array_is_the_read_only_table():
    for m in SMALL + LARGE[:1]:
        array = m.ensure_rank_table()
        assert array.dtype == np.int8 and not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1
    # a fresh matroid: the first call fills the one table, later calls and
    # rank queries read it
    fresh = uniform(3, 6)
    table = fresh.ensure_rank_table()
    assert table is fresh.ensure_rank_table()
    assert [fresh.rank(s) for s in range(1 << 6)] == table.tolist()


def test_crowding_array_matches_the_definition():
    for m in SMALL:
        stress = crowding_array(m)
        assert stress.dtype == np.int8
        assert stress.tolist() == [reference_crowding(m, s) for s in range(1 << m.n)]


# -- whole-cube scans against their loops ----------------------------------


@pytest.mark.parametrize("m", SMALL + LARGE, ids=repr)
def test_flats_match_the_closure_bfs(m):
    lattice = flat_lattice(m)
    assert lattice.flats_by_rank == reference_flats_by_rank(m)
    assert lattice.bottom == m.closure(0)


@pytest.mark.parametrize("m", SMALL + LARGE, ids=repr)
def test_scans_match_the_definition_loops(m):
    assert crowded_sets(m) == reference_crowded_sets(m)
    assert crowded_flats(m) == reference_crowded_flats(m)
    assert _has_proper_crowded_flat(m) == reference_has_proper_crowded_flat(m)
    assert has_overcrowded_set(m) == reference_has_overcrowded_set(m)
    assert _has_proper_crowded_subset(m) == reference_has_proper_crowded_subset(m)
    positive = bool((crowding_array(m)[1 : m.full_mask] > 0).any())
    assert positive == reference_has_proper_positive_subset(m)


def reference_proper_subset_max(m):
    """best(t) by brute force: the max crowding over the nonempty proper
    submasks of t, -128 where there is none."""
    stress = crowding_array(m)
    return [
        int(stress[subs[1:-1]].max()) if len(subs) > 2 else -128
        for subs in map(submask_array, range(1 << m.n))
    ]


def per_bit_proper_subset_max(stress):
    """The subset-max pass one element at a time on the mask-order array."""
    n = stress.size.bit_length() - 1
    f, best = stress.copy(), np.full_like(stress, -128)
    f[0] = -128
    for e in range(n):
        fv, bv = f.reshape(-1, 2, 1 << e), best.reshape(-1, 2, 1 << e)
        bv[:, 1] = np.maximum(bv[:, 1], fv[:, 0])
        fv[:, 1] = np.maximum(fv[:, 1], fv[:, 0])
    return best


def tie_masks(m):
    """The crowded masks t with best(t) = c(t): the record verdicts that
    need the components of M|t."""
    stress, best = record_arrays(m)
    return np.flatnonzero((stress >= 0) & (stress == best)).tolist()


def test_best_matches_the_brute_force_max():
    for m in SMALL:
        stress, best = record_arrays(m)
        assert stress.tolist() == crowding_array(m).tolist()
        assert best.tolist() == reference_proper_subset_max(m), m


def test_record_arrays_are_read_only_int8_built_once():
    m = uniform(3, 7)
    arrays = record_arrays(m)
    for array in arrays:
        assert array.dtype == np.int8 and not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1
    for mask in range(1 << m.n):
        is_crowding_record(m, mask)
    assert record_arrays(m) is arrays


@pytest.mark.parametrize("m", LARGE, ids=repr)
def test_transposed_pass_equals_the_per_bit_pass(m):
    stress, best = record_arrays(m)
    assert m.n == 16
    assert np.array_equal(best, per_bit_proper_subset_max(stress))


def test_records_match_the_definition_scan():
    for m in SMALL:
        for mask in range(1 << m.n):
            assert is_crowding_record(m, mask) == reference_is_record(m, mask), (m, mask)
    crowded, tie_verdicts = 0, []
    for m in ROUTES9:
        stress, _ = record_arrays(m)
        for mask in np.flatnonzero(stress >= 0).tolist()[1:]:  # 0 is crowded and first
            crowded += 1
            assert is_crowding_record(m, mask) == reference_is_record(m, mask), (m, mask)
        for mask in tie_masks(m):
            # a tie is decided on the components of M|t, cached per mask
            assert mask in m._restriction_components
            tie_verdicts.append(is_crowding_record(m, mask))
    assert crowded == 5787 and len(tie_verdicts) == 925
    assert set(tie_verdicts) == {True, False}
    rng = random.Random(5)
    tied_large = 0
    for m in LARGE:
        for mask in probe_masks(m, rng, 12):
            assert is_crowding_record(m, mask) == reference_is_record(m, mask), (m, mask)
        ties = [t for t in tie_masks(m) if popcount(t) <= 12]  # the oracle scans 2^|t| submasks
        for mask in rng.sample(ties, min(4, len(ties))):
            tied_large += 1
            assert is_crowding_record(m, mask) == reference_is_record(m, mask), (m, mask)
            assert mask in m._restriction_components
    assert tied_large >= 12


def test_record_edge_cases():
    assert is_crowding_record(uniform(2, 5), 0)
    coloop = uniform(1, 1)  # strict (no nonempty proper subset), but c = -1
    assert record_arrays(coloop)[1][1] == -128 and reference_crowding(coloop, 1) == -1
    assert not is_crowding_record(coloop, 1)
    loop = from_bases(1, [0])  # c = 1
    assert is_crowding_record(loop, 1)


def _crowded_and_strict(m):
    stress, best = record_arrays(m)
    return best[m.full_mask] < stress[m.full_mask] >= 0


def test_direct_sums_of_tied_parts():
    # five points on a line of a rank-3 matroid on 7 elements: c = 1 on
    # the line and on the whole connected matroid, a tie and no record
    line = schubert_lower(7, (0b11111, 0b1111111), (0, 2, 3))
    assert reference_crowding(line, 0b11111) == reference_crowding(line, line.full_mask) == 1
    assert line.component_count() == 1 and not _crowded_and_strict(line)
    assert not is_crowding_record(line, line.full_mask)
    parts = [uniform(1, 2), from_bases(1, [0]), uniform(1, 3), uniform(2, 4), line]
    verdicts = set()
    for i, a in enumerate(parts):
        for b in parts[i:]:
            if a.n + b.n > 12:
                continue
            whole = a.direct_sum(b)
            if whole.full_mask not in tie_masks(whole):
                continue
            expected = _crowded_and_strict(a) and _crowded_and_strict(b)
            assert is_crowding_record(whole, whole.full_mask) == expected
            assert reference_is_record(whole, whole.full_mask) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


def _outcome(fn, m):
    try:
        return fn(m)
    except OmegacalcError:
        return "error"


def reference_near_middle(m):
    """The near-middle criterion with its definition loop and the minimal
    crowded sets taken from the reference crowded sets."""
    full = m.full_mask
    if reference_has_proper_positive_subset(m):
        return 0
    minimal = []
    for mask in reference_crowded_sets(m):
        if mask and not any(t & ~mask == 0 for t in minimal):
            minimal.append(mask)
    p = len(minimal)
    if p < 2:
        raise OmegacalcError("fewer than two minimal crowded sets")
    pairs = [(a, b) for i, a in enumerate(minimal) for b in minimal[i + 1 :]]
    if all(not a & b for a, b in pairs):
        return 0
    if not all(a | b == full for a, b in pairs):
        raise OmegacalcError("neither disjoint nor covering")
    if p % 2 == 0:
        raise OmegacalcError("an even number of covering sets")
    return (p - 1) // 2


def test_near_middle_matches_the_definition_loop():
    rng = random.Random(8)
    matroids = [m for m in SMALL if m.n == 2 * m.r + 1]
    matroids += [random_schubert(rng, 2 * r + 1, r) for r in range(1, 8) for _ in range(3)]
    assert len(matroids) > 10
    for m in matroids:
        assert _outcome(_near_middle, m) == _outcome(reference_near_middle, m), m


# -- minors ---------------------------------------------------------------


def _minor_cases(m, rng, count):
    """(keep, contracted, size) triples: deletions, contractions and the
    blocks of a graded matroid along random weight levels."""
    full = m.full_mask
    cases = []
    for _ in range(count):
        drop = rng.randrange(1 << m.n) & ~(1 << rng.randrange(m.n))
        keep = full & ~drop
        cases.append((keep, 0, m.rank(keep)))
        cases.append((keep, drop, m.r - m.rank(drop)))
    z = [rng.randint(0, 3) for _ in range(m.n)]
    prev = 0
    for cur in level_chain(z):
        cases.append((cur & ~prev, prev, m.rank(cur) - m.rank(prev)))
        prev = cur
    return cases


def test_minor_bases_match_the_dfs():
    rng = random.Random(6)
    for m in SMALL:
        for keep, contracted, size in _minor_cases(m, rng, 4):
            got = m._minor_bases(keep, contracted, size)
            assert sorted(got) == sorted(reference_minor_bases(m, keep, contracted, size))
            assert all(b & ~keep == 0 and popcount(b) == size for b in got)
    for m in LARGE:
        for keep, contracted, size in _minor_cases(m, rng, 2):
            assert sorted(m._minor_bases(keep, contracted, size)) == sorted(
                reference_minor_bases(m, keep, contracted, size)
            )


def test_minors_are_the_relabelled_minor_bases():
    m = uniform(2, 4).direct_sum(uniform(1, 2))
    assert m.delete(mask_of([0])).bases == uniform(2, 3).direct_sum(uniform(1, 2)).bases
    assert m.contract(mask_of([4])).bases == uniform(2, 4).direct_sum(from_bases(1, [0])).bases
