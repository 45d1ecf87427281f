"""Acceptance gate: every criterion, exact values, stated time budgets.

Each test prints one PASS line (visible with pytest -s or -rP); any
mismatch is a hard failure.  Budgets are asserted, not just observed.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb

from helpers import (
    coloops,
    flats_by_rank,
    count_paths_brute,
    omega_of,
    random_derived_matroid,
    random_simple_matroid,
)
from omegacalc.bergman import as_weights, bergman_contains, graded_matroid, x_values, y_values
from omegacalc.bitops import bits, mask_of, popcount
from omegacalc.chainsums import Variant, covalue, schubert_omega
from omegacalc.closedform import omega_closed_form
from omegacalc.corpus import random_schubert, random_schubert_data, sample_points
from omegacalc.crowding import has_overcrowded_set
from omegacalc.engine import compute_omega
from omegacalc.lattice import flat_lattice
from omegacalc.matroid import from_bases, schubert_lower, uniform
from omegacalc.paths import Mode, PathConstraint, PathProblem, count_paths
from omegacalc.polytopes import IdentityKind, batch_marks, check_identity, subset_sums

EXAMPLE_CHAIN = (mask_of(range(2)), mask_of(range(7)), mask_of(range(10)))
EXAMPLE_PROFILE = (0, 1, 3, 4)


def _pass(number: int, detail: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.1f}s) {detail}")


def test_criterion_1_worked_example_every_route():
    start = time.time()
    assert schubert_omega(10, EXAMPLE_CHAIN, EXAMPLE_PROFILE) == 3
    m = schubert_lower(10, EXAMPLE_CHAIN, EXAMPLE_PROFILE)
    values = {}
    for variant in Variant:
        values[variant.value] = compute_omega(m, [variant.value]).results[0].omega
    assert set(values.values()) == {3}, values
    elapsed = time.time() - start
    assert elapsed < 10.0
    _pass(1, "rank-4 Schubert example: direct formula and all ten chain sums give 3", elapsed)


def test_criterion_2_uniform_matroids():
    start = time.time()
    routes = (
        Variant.FINAL_FLATS,
        Variant.RECORD_FLATS,
        Variant.OUTWARD_FLATS,
        Variant.INWARD_FLATS,
    )
    checked = 0
    for n in range(2, 13):
        for r in range(1, n // 2 + 1):
            m = uniform(r, n)
            expect = comb(n - r - 1, r - 1)
            assert omega_closed_form(m) == expect, (r, n)
            for variant in routes:
                run = covalue(m, variant)  # uniform matroids are connected
                assert run.covalue == expect, (r, n, variant)
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    _pass(2, f"{checked} uniform matroids up to n=12 match the binomial by 4 routes", elapsed)


def test_criterion_3_cross_method_agreement_200():
    start = time.time()
    rng = random.Random(20250810)
    matroids = []
    while len(matroids) < 100:
        matroids.append(random_schubert(rng, rng.randint(4, 9)))
    while len(matroids) < 130:
        matroids.append(random_schubert(rng, rng.randint(4, 9)).dual())
    while len(matroids) < 160:
        m = random_schubert(rng, rng.randint(5, 9))
        e = 1 << rng.randrange(m.n)
        matroids.append(m.delete(e) if rng.random() < 0.5 else m.contract(e))
    while len(matroids) < 180:
        n1 = rng.randint(2, 5)
        matroids.append(
            random_schubert(rng, n1).direct_sum(random_schubert(rng, rng.randint(2, 9 - n1)))
        )
    while len(matroids) < 200:
        m = random_schubert(rng, rng.randint(4, 8))
        non_loops = [e for e in range(m.n) if m.rank(1 << e) == 1]
        matroids.append(m.parallel_extend(rng.choice(non_loops)) if non_loops else m)
    disagreements = []
    for i, m in enumerate(matroids):
        report = compute_omega(m, "all", f"corpus-{i}")
        if not report.agree:
            disagreements.append((i, m, {r.method: r.omega for r in report.results}))
    assert not disagreements, disagreements[:3]
    elapsed = time.time() - start
    assert elapsed < 600.0
    _pass(3, "200 seeded matroids with n <= 9: all ten chain sums and closed forms agree", elapsed)


def test_criterion_4_closed_form_regimes():
    start = time.time()
    rng = random.Random(99991)

    # rank 2 with parallel noise
    count = 0
    while count < 30:
        n = rng.randint(4, 8)
        m = uniform(2, n)
        for _ in range(rng.randint(0, 3)):
            m = m.parallel_extend(rng.randrange(m.n)) if m.n < 12 else m
        assert omega_closed_form(m) == n - 3 == omega_of(m)
        count += 1

    # rank 3, simple
    count = 0
    while count < 30:
        m = random_simple_matroid(rng, rng.randint(6, 9), 3)
        if m is None:
            continue
        value = omega_closed_form(m)
        assert value is not None and value == omega_of(m)
        count += 1

    # rank 4, simple (integrality of the fractional formula is asserted inside)
    count = 0
    while count < 30:
        m = random_simple_matroid(rng, rng.randint(8, 10), 4)
        if m is None:
            continue
        value = omega_closed_form(m)
        assert value is not None and value == omega_of(m)
        count += 1

    # n = 2r: value in {0, 1}
    count = 0
    while count < 30:
        r = rng.randint(1, 5)
        m = random_schubert(rng, 2 * r, r)
        value = omega_closed_form(m)
        assert value in (0, 1) and value == omega_of(m)
        count += 1

    # n = 2r + 1, including both dichotomy outcomes
    count = 0
    while count < 30:
        r = rng.randint(1, 5)
        m = random_schubert(rng, 2 * r + 1, r)
        value = omega_closed_form(m)
        got = omega_of(m)
        assert 0 <= got <= r
        assert value is None or value == got
        count += 1
    pinned = schubert_lower(11, (mask_of(range(4)), mask_of(range(11))), (0, 2, 5))
    assert omega_closed_form(pinned) == 2 == omega_of(pinned)  # covering case
    disjoint = uniform(5, 6)
    for e in range(5):
        disjoint = disjoint.parallel_extend(e)
    assert omega_closed_form(disjoint) == 0 == omega_of(disjoint)  # disjoint case
    elapsed = time.time() - start
    _pass(4, "closed forms match the cancelled flats sum on 5 regimes x 30 instances", elapsed)


def test_criterion_5_vanishing():
    start = time.time()
    rng = random.Random(555)
    loopy, coloopy, overfull, overcrowded = [], [], [], []
    while min(len(loopy), len(coloopy), len(overfull), len(overcrowded)) < 10:
        m = random_derived_matroid(rng, 8)
        if m.has_loops() and len(loopy) < 12:
            loopy.append(m)
        elif coloops(m) and len(coloopy) < 12:
            coloopy.append(m)
        elif m.n < 2 * m.r and len(overfull) < 12:
            overfull.append(m)
        elif (
            m.n >= 2 * m.r
            and not m.has_loops()
            and not coloops(m)
            and has_overcrowded_set(m)
            and len(overcrowded) < 12
        ):
            overcrowded.append(m)
    for group in (loopy, coloopy, overfull, overcrowded):
        for m in group:
            report = compute_omega(m, "all")
            assert report.agree and report.consensus == 0, m
    elapsed = time.time() - start
    _pass(5, "loops, coloops, oversize rank and overcrowded sets all vanish by every method", elapsed)


def test_criterion_6_structural_invariants():
    start = time.time()
    rng = random.Random(606)

    for _ in range(50):
        a = random_schubert(rng, rng.randint(2, 6))
        b = random_schubert(rng, rng.randint(2, 6))
        assert omega_of(a.direct_sum(b)) == omega_of(a) * omega_of(b)

    done = 0
    while done < 50:
        m = random_schubert(rng, rng.randint(2, 8))
        non_loops = [e for e in range(m.n) if m.rank(1 << e) == 1]
        if not non_loops or m.n >= 12:
            continue
        assert omega_of(m.parallel_extend(rng.choice(non_loops))) == omega_of(m)
        done += 1

    generated = 0
    zero_cases = 0
    while generated < 40:
        m = random_simple_matroid(rng, rng.randint(6, 9), 3)
        if m is None:
            continue
        generated += 1
        value = omega_of(m)
        assert value >= 0, m
        if value == 0:
            zero_cases += 1
            simple = m.simplify()
            iso_u35 = simple.n == 5 and len(simple.bases) == comb(5, 3)
            big_line = any(
                popcount(f) >= simple.n - 2
                for f in flats_by_rank(flat_lattice(simple))[2]
            )
            assert iso_u35 or big_line, m
    # force at least one member of the zero family through the characterization
    pinned = schubert_lower(7, (mask_of(range(5)), mask_of(range(7))), (0, 2, 3))
    assert omega_of(pinned) == 0
    elapsed = time.time() - start
    _pass(
        6,
        f"multiplicativity (50), parallel invariance (50), rank-3 nonnegativity ({generated}, {zero_cases} zeros)",
        elapsed,
    )


def test_criterion_7_identity_checker():
    start = time.time()
    rng = random.Random(777)
    matroids = [uniform(2, 5), uniform(3, 6), uniform(1, 2).direct_sum(uniform(2, 3))]
    while len(matroids) < 20:
        m = random_schubert(rng, rng.randint(2, 7), loop_free=True)
        if not m.has_loops():
            matroids.append(m)
    total_points = 0
    for m in matroids:
        points = sample_points(rng, m.n, m.r, 500)
        total_points += len(points)
        marks = batch_marks(m, subset_sums(points))
        for kind in IdentityKind:
            lhs, rhs = check_identity(m, kind, marks)
            for i in range(len(points)):
                assert lhs[i] == rhs[i], (m, kind, points[i])
    elapsed = time.time() - start
    assert elapsed < 300.0
    _pass(7, f"4 identities hold at {total_points} exact points over 20 matroids", elapsed)


def test_criterion_8_bergman_oracles():
    start = time.time()
    m = uniform(2, 3)
    w = as_weights([1, 0, 0])
    g = graded_matroid(m, w)
    assert sorted(g.bases) == [0b011, 0b101] and g.loops() == 0
    assert bergman_contains(m, w)

    rng = random.Random(888)
    done = 0
    while done < 50:
        mm = random_schubert(rng, rng.randint(2, 7), loop_free=True)
        if mm.has_loops():
            continue
        z = as_weights(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(mm.n)]
        )
        assert x_values(mm, z)[0] == max(z)
        done += 1

    done = 0
    while done < 50:
        mm = random_schubert(rng, rng.randint(2, 7))
        if mm.r == mm.n:
            continue
        z = as_weights(
            [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(mm.n)]
        )
        neg = tuple(-c for c in z)
        assert x_values(mm.dual(), z) == y_values(mm, neg)
        done += 1
    elapsed = time.time() - start
    _pass(8, "graded-matroid example, max-weight head and 50 duality pairs", elapsed)


def test_criterion_9_kernel_oracle():
    start = time.time()
    rng = random.Random(999)
    checked = 0
    for n in range(2, 13):
        for r in range(1, n // 2 + 1):
            points = [(x, y) for x in range(n - r + 1) for y in range(r + 1)]
            for x, y in points:
                for mode in Mode:
                    p = PathProblem(n, r, (PathConstraint(x, y, mode),))
                    assert count_paths(p) == count_paths_brute(p)
                    checked += 1
            if n <= 8:
                for (c1, c2) in combinations(
                    [PathConstraint(x, y, mode) for x, y in points for mode in Mode], 2
                ):
                    p = PathProblem(n, r, (c1, c2))
                    assert count_paths(p) == count_paths_brute(p)
                    checked += 1
            for _ in range(40):
                cs = tuple(
                    PathConstraint(*rng.choice(points), rng.choice(list(Mode)))
                    for _ in range(rng.randint(2, 5))
                )
                p = PathProblem(n, r, cs)
                assert count_paths(p) == count_paths_brute(p)
                checked += 1
    elapsed = time.time() - start
    _pass(9, f"path-count DP equals brute enumeration on {checked} constraint sets", elapsed)
