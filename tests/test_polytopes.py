import random
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from helpers import all_flats, as_fractions, as_point, identity_at
from omegacalc import polytopes
from omegacalc.altsum import alternating_chain_sum
from omegacalc.bitops import bits, mask_of
from omegacalc.corpus import generate_corpus, random_schubert, sample_points
from omegacalc.errors import VariantInapplicable
from omegacalc.lattice import flat_lattice
from omegacalc.matroid import from_bases, schubert_lower, uniform
from omegacalc.polytopes import IdentityKind, batch_marks, check_identity, scaled_point, subset_sums
from omegacalc.specfile import matroid_from_spec

HALF = Fraction(1, 2)


def test_base_polytope_membership():
    m = uniform(1, 2)
    assert identity_at(m, IdentityKind.INWARD_SETS, as_point([HALF, HALF]))[0]
    assert not identity_at(m, IdentityKind.INWARD_SETS, as_point([2, -1]))[0]


def test_vertices_belong():
    rng = random.Random(6)
    for _ in range(10):
        m = random_schubert(rng, rng.randint(2, 6))
        for b in m.bases:
            point = as_point([1 if b >> e & 1 else 0 for e in range(m.n)])
            assert identity_at(m, IdentityKind.INWARD_SETS, point)[0]


def test_dominating_vertex_in_lower_polytope():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(2, 7)
        m = random_schubert(rng, n)
        # the minimal basis built by the chain recipe is a vertex
        from omegacalc.corpus import random_schubert_data

        n, chain, profile = random_schubert_data(rng, n)
        m = schubert_lower(n, chain, profile)
        subset = 0
        prev_mask, prev_a = 0, 0
        for s, a in zip(chain, profile[1:]):
            block = [e for e in bits(s & ~prev_mask)]
            for e in block[: a - prev_a]:
                subset |= 1 << e
            prev_mask, prev_a = s, a
        assert subset in m.bases


def test_identity_hand_example():
    m = uniform(1, 2)
    z = as_point([HALF, HALF])
    for kind in IdentityKind:
        assert identity_at(m, kind, z) == (1, 1)


def test_identity_off_hyperplane_and_box():
    m = uniform(2, 4)
    z = as_point([1, 1, 1, 1])  # sum != r
    for kind in IdentityKind:
        assert identity_at(m, kind, z) == (0, 0)
    z = as_point([2, -1, HALF, HALF])  # on the hyperplane, outside the box
    for kind in IdentityKind:
        assert identity_at(m, kind, z) == (0, 0)


def test_identity_requires_loop_free_for_flats():
    m = from_bases(2, [0b10])
    with pytest.raises(VariantInapplicable):
        identity_at(m, IdentityKind.INNER_FLATS, as_point([0, 1]))
    lhs, rhs = identity_at(m, IdentityKind.INWARD_SETS, as_point([0, 1]))
    assert lhs == rhs


def test_identities_on_sampled_points():
    rng = random.Random(123)
    matroids = []
    while len(matroids) < 6:
        m = random_schubert(rng, rng.randint(2, 6), loop_free=True)
        if not m.has_loops():
            matroids.append(m)
    matroids.append(uniform(2, 5))
    matroids.append(uniform(1, 2).direct_sum(uniform(2, 3)))
    for m in matroids:
        points = sample_points(rng, m.n, m.r, 60)
        marks = batch_marks(m, subset_sums(points))
        for kind in IdentityKind:
            lhs, rhs = check_identity(m, kind, marks)
            for i in range(len(points)):
                assert lhs[i] == rhs[i], (m, kind, points[i])


def test_distinct_rows_give_every_point_its_own_rhs(monkeypatch):
    # one batch mixing duplicate rows, rows that fail nothing (the base
    # polytope's points), distinct sampled rows and dead rows (off the
    # hyperplane): every kind's (lhs, rhs) at a row equals its value in a
    # batch of that row alone, and each kind's one kernel call gets the
    # kind's distinct rows, counted here from the bytes of the rank test
    rows_seen = []
    kernel, walk = polytopes.alternating_chain_sum, polytopes.predecessor_walk

    def counting_kernel(n, good):
        rows_seen.append(len(good))
        return kernel(n, good)

    def counting_walk(members, relation, start, transfer):
        rows_seen.append(len(start))
        return walk(members, relation, start, transfer)

    monkeypatch.setattr(polytopes, "alternating_chain_sum", counting_kernel)
    monkeypatch.setattr(polytopes, "predecessor_walk", counting_walk)
    rng = random.Random(41)
    specs = generate_corpus("closure", 6, 5, 8)
    for m in [matroid_from_spec(spec).matroid for spec in specs] + [uniform(2, 5)]:
        # the sampler's first rows are the hypersimplex vertices, bases among them
        sampled = sample_points(rng, m.n, m.r, 40, bases=m.bases)
        batch = sampled + sampled[::3] + [(1, (1,) * m.n)] * 2
        sums = subset_sums(batch)
        marks = batch_marks(m, sums)
        failing = ~(sums.scaled <= sums.scale[:, None] * m.ensure_rank_table())[marks.live]
        families = {"sets": failing}
        if not m.has_loops():
            families["flats"] = failing & flat_lattice(m).is_flat
        for name, rows in families.items():
            distinct = {row.tobytes() for row in rows}
            assert len(distinct) < len(rows) and np.zeros_like(rows[0]).tobytes() in distinct
            assert len(getattr(marks, name).rows) == len(distinct), (m, name)
        kinds = list(IdentityKind)[:2] if m.has_loops() else list(IdentityKind)
        for kind in kinds:
            rows_seen.clear()
            lhs, rhs = check_identity(m, kind, marks)
            family = "sets" if kind in (IdentityKind.INWARD_SETS, IdentityKind.OUTWARD_SETS) else "flats"
            assert rows_seen == [len(getattr(marks, family).rows)], (m, kind)
            for i, row in enumerate(batch):
                one = check_identity(m, kind, batch_marks(m, subset_sums([row])))
                assert (lhs[i], rhs[i]) == (one[0][0], one[1][0]), (m, kind, row)


def test_identity_exhaustive_tiny_denominators():
    # n = 2: every rational point with denominator up to 8 on the line x+y=1
    m = uniform(1, 2)
    for den in range(1, 9):
        for num in range(-den, 2 * den + 1):
            x = Fraction(num, den)
            z = (x, 1 - x)
            for kind in IdentityKind:
                lhs, rhs = identity_at(m, kind, z)
                assert lhs == rhs, (z, kind)


def test_sampler_includes_all_vertices():
    rng = random.Random(1)
    pts = [as_fractions(row) for row in sample_points(rng, 5, 2, 10)]
    vertices = {
        tuple(Fraction(1 if e in c else 0) for e in range(5))
        for c in combinations(range(5), 2)
    }
    assert vertices.issubset(set(pts))
    for z in pts:
        assert sum(z) == 2


# -- differential test against the Fraction evaluation ---------------------
#
# The reference below is the earlier Fraction evaluation: every inequality
# in Fraction arithmetic, one subset and one flat at a time, with no
# scaling and nothing shared between kinds.  check_identity must give the
# same (lhs, rhs) on every kind.


def _fraction_subset_sums(point):
    sums = [Fraction(0)] * (1 << len(point))
    for mask in range(1, 1 << len(point)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + point[low.bit_length() - 1]
    return sums


def _fraction_identity(matroid, kind, point):
    n, r = matroid.n, matroid.r
    sums = _fraction_subset_sums(point)
    full = matroid.full_mask
    in_box = all(0 <= c <= 1 for c in point) and sums[full] == r
    rank = matroid.rank
    lhs = int(sums[full] == r and all(sums[mask] <= rank(mask) for mask in range(1, full)))
    if not in_box:
        return lhs, 0
    if kind is IdentityKind.INWARD_SETS:
        good = np.fromiter(
            (sums[mask] <= rank(mask) for mask in range(full + 1)), dtype=bool, count=full + 1
        )
        term = alternating_chain_sum(n, good)
        rhs = term if n % 2 == 1 else -term
    elif kind is IdentityKind.OUTWARD_SETS:
        good = np.fromiter(
            (sums[mask] > rank(mask) for mask in range(full + 1)), dtype=bool, count=full + 1
        )
        rhs = alternating_chain_sum(n, good)
    else:
        rhs = _fraction_flats_sum(matroid, kind, sums)
    return lhs, rhs


def _fraction_flats_sum(matroid, kind, sums):
    lattice = flat_lattice(matroid)
    full = matroid.full_mask
    rank = matroid.rank
    strict = kind is IdentityKind.OUTER_FLATS
    mobius = lattice.mobius

    def good(flat):
        if strict:
            return sums[flat] > rank(flat)
        return sums[flat] <= rank(flat)

    order = all_flats(lattice)
    t = {0: 1}
    for g in order:
        if g == 0:
            continue
        if g != full and not good(g):
            continue
        acc = 0
        for f, tf in t.items():
            if (f & ~g) == 0 and f != g:
                acc += tf * (mobius(f, g) if not strict else 1)
        t[g] = -acc
    total = t.get(full, 0)
    return total if not strict else -total


def _nudged(vertex, i, j, eps):
    point = list(vertex)
    point[i] += eps
    point[j] -= eps
    return tuple(point)


def _vertex(m, basis):
    return as_point([1 if basis >> e & 1 else 0 for e in range(m.n)])


def _probe_points(rng, m, samples):
    """Sampled points plus points off the hyperplane, outside the box (with
    and without negative coordinates) and with denominators whose LCM
    exceeds 2^64."""
    n, r = m.n, m.r
    points = [as_fractions(row) for row in sample_points(rng, n, r, samples, bases=m.bases)]
    vertex = _vertex(m, m.bases[0])
    primes = [(1 << 61) - 1, (1 << 31) - 1, 2**127 - 1]
    for _ in range(4):
        points.append(as_point([Fraction(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(n)]))
        points.append(as_point([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]))
        if n >= 2:
            i, j = rng.sample(range(n), 2)
            points.append(_nudged(vertex, i, j, Fraction(rng.randint(2, 5), 2)))
            points.append(_nudged(vertex, i, j, Fraction(1, 1 << 70)))
            points.append(_nudged(vertex, i, j, Fraction(1, primes[0] * primes[2])))
        if r >= 2:  # nonnegative, on the hyperplane, one coordinate above 1
            i, j = rng.sample([e for e in range(n) if vertex[e]], 2)
            points.append(_nudged(vertex, i, j, Fraction(rng.randint(1, 6), 7)))
        weights = [Fraction(rng.randint(1, 99), rng.choice(primes)) for _ in range(n)]
        total = sum(weights)
        points.append(tuple(w * r / total for w in weights))
        points.append(tuple(Fraction(rng.randint(-(1 << 80), 1 << 80), rng.choice(primes)) for _ in range(n)))
    return points


def _identity_matroids():
    rng = random.Random(2024)
    # closure corpus n = 8, seed 5: two of its six matroids have loops
    matroids = [matroid_from_spec(spec).matroid for spec in generate_corpus("closure", 6, 5, 8)]
    matroids += [random_schubert(rng, rng.randint(1, 7)) for _ in range(8)]
    matroids.append(uniform(2, 4).direct_sum(from_bases(1, [0])))  # a loop
    matroids.append(uniform(2, 5).direct_sum(uniform(1, 3)))
    return matroids


def test_integer_identities_match_fraction_evaluation():
    rng = random.Random(77)
    matroids = _identity_matroids()
    assert sum(m.has_loops() for m in matroids if m.n == 8) == 2
    big_lcm = in_box_on_plane = in_polytope = 0
    for m in matroids:
        kinds = list(IdentityKind)[:2] if m.has_loops() else list(IdentityKind)
        # the whole probe list is one batch, live and dead rows mixed
        points = _probe_points(rng, m, 15)
        sums = subset_sums([scaled_point(z) for z in points])
        marks = batch_marks(m, sums)
        batch = {kind: check_identity(m, kind, marks) for kind in kinds}
        for i, z in enumerate(points):
            big_lcm += sums.scale[i] > 1 << 64
            expected = {kind: _fraction_identity(m, kind, z) for kind in kinds}
            for kind in kinds:
                assert identity_at(m, kind, z) == expected[kind], (m, kind, z)
                lhs, rhs = batch[kind]
                assert (lhs[i], rhs[i]) == expected[kind], (m, kind, z)
            lhs = expected[kinds[0]][0]
            in_box_on_plane += sums.in_box[i] and sums.scaled[i, -1] == sums.scale[i] * m.r
            in_polytope += lhs
    assert big_lcm >= 100 and in_box_on_plane >= 500 and in_polytope >= 200


def test_integer_identities_match_fraction_evaluation_n12_to_n16():
    rng = random.Random(12)
    cases = []
    for spec in generate_corpus("closure", 2, 4, 12):
        m = matroid_from_spec(spec).matroid
        rows = sample_points(rng, m.n, m.r, 2, bases=m.bases)[-2:]
        points = [as_fractions(row) for row in rows]
        points += _probe_points(rng, m, 0)[-3:]
        cases.append((m, points))
    # low-rank Schubert matroids above the command-line identity cap, loop-free
    # so that every kind applies: a vertex and a midpoint of two bases, a row
    # off the hyperplane and a row on it with a negative coordinate
    for n in (13, 16):
        m = matroid_from_spec(generate_corpus("schubert", 1, 4, n, 3)[0]).matroid
        assert m.r == 3 and not m.has_loops() and len(m.bases) < comb(n, 3)
        vertex = _vertex(m, m.bases[0])
        midpoint = tuple((x + y) / 2 for x, y in zip(vertex, _vertex(m, m.bases[-1])))
        off_plane = vertex[:-1] + (vertex[-1] + Fraction(1, 3),)
        inside = next(e for e in range(n) if vertex[e])
        outside = next(e for e in range(n) if not vertex[e])
        negative = _nudged(vertex, inside, outside, Fraction(2))
        cases.append((m, [vertex, midpoint, off_plane, negative]))
    for m, points in cases:
        kinds = list(IdentityKind)[:2] if m.has_loops() else list(IdentityKind)
        for z in points:
            for kind in kinds:
                assert identity_at(m, kind, z) == _fraction_identity(m, kind, z), (m, kind, z)


def _assert_matches_fractions(points, sums):
    n = len(points[0])
    references = [_fraction_subset_sums(z) for z in points]
    for r in range(n + 1):
        # the array comparison check_identity makes, against an int8 rank table
        within = sums.scaled <= sums.scale[:, None] * np.full(1 << n, r, dtype=np.int8)
        assert within.dtype == bool
        for i, reference in enumerate(references):
            assert within[i].tolist() == [x <= r for x in reference], (i, r)
    for i, (z, reference) in enumerate(zip(points, references)):
        for mask in range(1 << n):
            assert Fraction(int(sums.scaled[i, mask]), int(sums.scale[i])) == reference[mask]
        for r in range(n + 1):
            assert (sums.scaled[i, -1] == sums.scale[i] * r) == (reference[-1] == r), (i, r)
        assert sums.in_box[i] == all(0 <= c <= 1 for c in z)


def test_subset_sums_scaled_exactly():
    rng = random.Random(5)
    big = (1 << 89) - 1
    point = tuple(Fraction(rng.randint(-big, big), rng.choice([big, 3, 1 << 70])) for _ in range(6))
    # one batch, one row per point, each row with its own scale
    points = [point, as_point([HALF, 0, 1, 2, -1, Fraction(1, 3)]), as_point([1] * 6)]
    sums = subset_sums([scaled_point(z) for z in points])
    assert sums.scale[0] > 1 << 64 and sums.scale.tolist()[1:] == [6, 1]
    _assert_matches_fractions(points, sums)


def test_subset_sums_int64_boundary():
    # B * (n + 1) with B the largest |scaled coordinate| or scale of the
    # batch: 2^63 - 1 = 7 * top stays in int64 at n = 6, 2^63 does not
    top = ((1 << 63) - 1) // 7
    assert 7 * top == (1 << 63) - 1
    fits = [
        as_point([top] * 6),
        as_point([-top] * 6),
        as_point([top, -top, 0, 1, -1, top - 1]),
        as_point([1, 1, 1, 1, 1, Fraction(top - 1, top)]),
        as_point([Fraction(-1, top), 0, 1, Fraction(2, top), 0, 0]),
    ]
    at_2_63 = [
        as_point([1 << 60] * 7),
        # B is the scale here: every |scaled coordinate| is below 2^60
        as_point([Fraction(1, 1 << 60), Fraction(-3, 1 << 60), 0, 0, 0, 0, HALF]),
    ]
    mixed = fits[:2] + [as_point([top + 1, 0, 0, 0, 0, 1])]
    batches = [fits, at_2_63, at_2_63[:1], at_2_63[1:], mixed]
    for points, dtype in zip(batches, [np.int64, object, object, object, object]):
        sums = subset_sums([scaled_point(z) for z in points])
        assert sums.scaled.dtype == dtype and sums.scale.dtype == dtype
        _assert_matches_fractions(points, sums)
    assert subset_sums([scaled_point(fits[3])]).scale.tolist() == [top]
