import random
from itertools import combinations

from helpers import marked

from omegacalc.altsum import submask_array
from omegacalc.bitops import mask_of, popcount
from omegacalc.crowding import (
    crowded_flats,
    crowded_sets,
    crowding,
    has_overcrowded_set,
    is_crowding_record,
    minimal_crowded_sets,
    zero_part,
)
from omegacalc.matroid import from_bases, uniform


def test_crowding_values():
    m = uniform(2, 5)
    assert crowding(m, 0) == 0
    for c in combinations(range(5), 4):
        assert crowding(m, mask_of(c)) == 0
    assert crowding(m, m.full_mask) == 1


def test_overcrowded_basics():
    # neither the empty set nor the whole set is overcrowded in the whole
    # set, and no 3-subset of U(2,4) is: both ground sets are records
    m = uniform(2, 5)
    assert is_crowding_record(m, m.full_mask) and not has_overcrowded_set(m)
    m24 = uniform(2, 4)
    assert is_crowding_record(m24, m24.full_mask) and not has_overcrowded_set(m24)
    for c in combinations(range(4), 3):
        assert crowding(m24, mask_of(c)) < crowding(m24, m24.full_mask)


def test_overcrowded_against_definition_scan():
    rng = random.Random(12)
    for _ in range(12):
        n = rng.randint(2, 8)
        m = uniform(rng.randint(1, n), n)
        if rng.random() < 0.5:
            m = from_bases(n, m.bases)  # exercise the validated path too
        full = m.full_mask
        for whole in (full, rng.randint(1, full)):
            sw = popcount(whole) - 2 * m.rank(whole)
            overcrowded = []
            for part in submask_array(whole).tolist():
                sp = popcount(part) - 2 * m.rank(part)
                if sp > sw or (
                    sp == sw
                    and m.rank(part) + m.rank(whole & ~part) != m.rank(whole)
                ):
                    overcrowded.append(part)
            assert is_crowding_record(m, whole) == (not overcrowded)
            if whole == full:
                proper = [t for t in overcrowded if t not in (0, full)]
                assert has_overcrowded_set(m) == bool(proper)


def test_crowding_records():
    m = uniform(2, 5)
    assert is_crowding_record(m, 0)
    for c in combinations(range(5), 4):
        assert is_crowding_record(m, mask_of(c))
    assert is_crowding_record(m, m.full_mask)


def test_minimal_crowded_sets():
    m = uniform(2, 5)
    minimal = minimal_crowded_sets(m)
    assert sorted(minimal) == sorted(mask_of(c) for c in combinations(range(5), 4))
    assert minimal_crowded_sets(uniform(1, 2)) == [0b11]


def test_zero_part():
    m = uniform(2, 5)
    assert zero_part(m, m.full_mask) == 0  # one component, crowding 1
    q = mask_of([0, 1, 2, 3])
    assert zero_part(m, q) == q
    two_blocks = uniform(1, 2).direct_sum(uniform(1, 2))
    assert zero_part(two_blocks, two_blocks.full_mask) == two_blocks.full_mask
    mixed = uniform(1, 2).direct_sum(uniform(2, 5))  # crowding 0 and 1
    assert zero_part(mixed, mixed.full_mask) == 0b11


def test_summand_detection():
    # the summands of the restriction are the unions of its components
    s = uniform(1, 2).direct_sum(uniform(2, 3))
    assert s.restriction_components(s.full_mask) == (0b00011, 0b11100)
    assert s.rank(0b00011) + s.rank(0b11100) == s.rank(s.full_mask)
    assert s.rank(0b00111) + s.rank(0b11000) != s.rank(s.full_mask)


def test_overcrowded_set_detector():
    assert not has_overcrowded_set(uniform(2, 5))
    # a coloop forces one: the complement of the coloop is overcrowded
    assert has_overcrowded_set(uniform(2, 3))
    assert has_overcrowded_set(from_bases(2, [0b01]))


def test_profile_bundle():
    m = uniform(2, 5)
    assert crowding(m, m.full_mask) == 1
    assert len(minimal_crowded_sets(m)) == 5
    records = [t for t in marked(crowded_sets(m)) if is_crowding_record(m, t)]
    assert 0 in records and m.full_mask in records
    assert set(marked(crowded_flats(m))) == {0, m.full_mask}
