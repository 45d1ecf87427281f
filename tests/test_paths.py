import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import count_paths_brute

from omegacalc.errors import ConstraintOutOfRange
from omegacalc.paths import (
    ChainPathCounter,
    Mode,
    admits,
    advance,
    PathConstraint,
    PathProblem,
    count_paths,
)


def below(*pts):
    return tuple(PathConstraint(x, y, Mode.BELOW) for x, y in pts)


def above(*pts):
    return tuple(PathConstraint(x, y, Mode.ABOVE) for x, y in pts)


def test_worked_example_count():
    assert count_paths(PathProblem(10, 4, below((1, 1), (4, 3)))) == 3


def test_unconstrained_binomial():
    assert count_paths(PathProblem(9, 3)) == comb(5, 2) == 10
    for n in range(2, 13):
        for r in range(0, n + 1):
            expect = comb(n - r - 1, r - 1) if 1 <= r and 2 * r <= n else 0
            assert count_paths(PathProblem(n, r)) == expect


def test_zero_length_path():
    assert count_paths(PathProblem(2, 1)) == 1


def test_near_middle_point_count():
    # n = 2r + 1, one weakly-above pin at (k, k) leaves r - k paths
    for r in range(1, 6):
        n = 2 * r + 1
        for k in range(0, r + 1):
            got = count_paths(PathProblem(n, r, above((k, k))))
            assert got == r - k, (r, k, got)


def test_constraint_out_of_range():
    with pytest.raises(ConstraintOutOfRange):
        count_paths(PathProblem(6, 2, below((5, 1))))
    with pytest.raises(ConstraintOutOfRange):
        count_paths(PathProblem(6, 2, below((-1, 1))))


def test_dp_matches_brute_force_single_constraints():
    for n in range(2, 13):
        for r in range(1, n // 2 + 1):
            for x in range(n - r + 1):
                for y in range(r + 1):
                    for mode in Mode:
                        p = PathProblem(n, r, (PathConstraint(x, y, mode),))
                        assert count_paths(p) == count_paths_brute(p), (n, r, x, y, mode)


def test_dp_matches_brute_force_random_sets():
    rng = random.Random(20240817)
    for n in range(2, 13):
        for r in range(1, n // 2 + 1):
            pts = [(x, y) for x in range(n - r + 1) for y in range(r + 1)]
            for _ in range(40):
                cs = tuple(
                    PathConstraint(*rng.choice(pts), rng.choice(list(Mode)))
                    for _ in range(rng.randint(2, 5))
                )
                p = PathProblem(n, r, cs)
                assert count_paths(p) == count_paths_brute(p), (n, r, cs)


def test_modes_partition_paths():
    for n in range(2, 13):
        for r in range(1, n // 2 + 1):
            total = count_paths(PathProblem(n, r))
            for x in range(n - r + 1):
                for y in range(r + 1):
                    b = count_paths(PathProblem(n, r, below((x, y))))
                    a = count_paths(PathProblem(n, r, above((x, y))))
                    assert a + b == total


def test_crowding_extremes():
    # points left of the diagonal kill weakly-above; points at or past the
    # crowding of the whole ground set kill strictly-below (clamped corner
    # (n - r, r) excepted)
    for n in range(2, 13):
        for r in range(1, n // 2 + 1):
            total = count_paths(PathProblem(n, r))
            for x in range(n - r + 1):
                for y in range(r + 1):
                    if x - y < 0:
                        assert count_paths(PathProblem(n, r, above((x, y)))) == 0
                        assert count_paths(PathProblem(n, r, below((x, y)))) == total
                    if x - y >= n - 2 * r and (x, y) != (n - r, r):
                        assert count_paths(PathProblem(n, r, below((x, y)))) == 0
                        assert count_paths(PathProblem(n, r, above((x, y)))) == total


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_incremental_counter_matches_batch(data):
    n = data.draw(st.integers(2, 10))
    r = data.draw(st.integers(1, n // 2))
    pts = [(x, y) for x in range(n - r + 1) for y in range(r + 1)]
    k = data.draw(st.integers(0, 4))
    chosen = sorted(
        (data.draw(st.sampled_from(pts)) for _ in range(k)), key=lambda p: p[0]
    )
    modes = [data.draw(st.sampled_from(list(Mode))) for _ in range(k)]
    counter = ChainPathCounter(n, r)
    for (x, y), mode in zip(chosen, modes):
        counter.push(x, y, mode)
    cs = tuple(PathConstraint(x, y, m) for (x, y), m in zip(chosen, modes))
    assert counter.completed_count() == count_paths(PathProblem(n, r, cs))


def test_admits_matches_a_push_from_the_start():
    # the kernel's closed-form reached test against a push from the start
    for n in range(2, 17):
        for r in range(1, n // 2 + 1):
            length = n - r - 1
            for x in range(n - r + 1):
                for y in range(r + 1):
                    for mode in Mode:
                        pushed = ChainPathCounter(n, r).push(x, y, mode)
                        assert admits(min(x, length), y, mode, r) == pushed, (n, r, x, y, mode)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=9),
    st.integers(-20, 20),
    st.integers(-20, 20),
)
def test_advance_is_a_signed_group_action(state, j, k):
    assert advance(advance(state, k), -k) == state
    assert advance(advance(state, j), k) == advance(state, j + k)
