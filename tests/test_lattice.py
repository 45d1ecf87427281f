from itertools import combinations

import numpy as np
import pytest
from helpers import all_flats, flats_by_rank

from omegacalc.altsum import alternating_chain_sum, predecessor_walk
from omegacalc.bitops import mask_of
from omegacalc.lattice import flat_lattice
from omegacalc.matroid import from_bases, uniform


def test_two_element_chain():
    lat = flat_lattice(uniform(1, 2))
    assert all_flats(lat) == [0, 0b11]
    assert lat.mobius(0, 0b11) == -1


def test_u23_lattice():
    lat = flat_lattice(uniform(2, 3))
    assert len(lat) == 5  # bottom, three points, top
    assert lat.mobius(0, 0b111) == 2
    assert [len(level) for level in flats_by_rank(lat)] == [1, 3, 1]


def _k4_graphic_matroid():
    # edges of the complete graph on 4 vertices, bases = spanning trees
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    bases = []
    for combo in combinations(range(6), 3):
        parent = list(range(4))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        acyclic = True
        for i in combo:
            u, v = edges[i]
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            bases.append(mask_of(combo))
    return from_bases(6, bases)


def test_k4_rank_two_flats():
    lat = flat_lattice(_k4_graphic_matroid())
    level2 = flats_by_rank(lat)[2]
    assert len(level2) == 7
    sizes = sorted(bin(f).count("1") for f in level2)
    assert sizes == [2, 2, 2, 3, 3, 3, 3]


def test_mobius_alternating_sum_vanishes():
    # for every flat pair F < G the interval sums of mu are zero
    for m in (uniform(2, 4), uniform(3, 5), _k4_graphic_matroid()):
        lat = flat_lattice(m)
        flats = all_flats(lat)
        for f in flats:
            for g in flats:
                if f == g or (f & ~g) != 0:
                    continue
                total = sum(
                    lat.mobius(f, h)
                    for h in flats
                    if (f & ~h) == 0 and (h & ~g) == 0
                )
                assert total == 0, (m, f, g)


def test_bottom_is_closure_of_empty():
    m = from_bases(2, [0b10])  # element 0 is a loop
    lat = flat_lattice(m)
    assert lat.bottom == 0b01


def _mobius_reference(lat, lower):
    """mu(lower, -) by the defining recursion, one flat at a time."""
    above = [g for g in all_flats(lat) if g != lower and lower & ~g == 0]
    known = {}
    for g in above:
        known[g] = -1 - sum(v for h, v in known.items() if h & ~g == 0)
    return known


def test_mobius_matches_the_recursion_in_python_ints():
    from omegacalc.corpus import generate_corpus
    from omegacalc.specfile import matroid_from_spec

    specs = generate_corpus("closure", 30, 2, 9) + generate_corpus("schubert", 4, 5, 11)
    checked = 0
    for spec in specs:
        m = matroid_from_spec(spec).matroid
        if m.has_loops():
            continue
        lat = flat_lattice(m)
        for f in all_flats(lat):
            for g, value in _mobius_reference(lat, f).items():
                assert lat.mobius(f, g) == value, (spec["id"], f, g)
                checked += 1
    assert checked > 10_000


def test_mobius_rejects_a_set_that_is_not_a_flat():
    # in U(2, 4) the flats are the empty set, the four points and E
    lat = flat_lattice(uniform(2, 4))
    outside = [(0, -1), (-1, 0b1111), (0, 1 << 4), (1 << 4, 1 << 4), (0, 1 << 70)]
    for lower, upper in [(0, 0b11), (0b11, 0b1111), (0b11, 0b11), (0b1, 0b11)] + outside:
        with pytest.raises(ValueError, match="comparable flats"):
            lat.mobius(lower, upper)
        with pytest.raises(ValueError, match="comparable flats"):
            lat.mobius([0, lower], [0b1111, upper])
    assert lat.mobius(0b1, 0b1111) == -1
    with pytest.raises(ValueError, match="comparable flats"):
        lat.mobius(0b1, 0b10)  # incomparable flats, as before


def test_mobius_on_arrays_matches_scalar_calls_and_the_recursion():
    from omegacalc.corpus import generate_corpus
    from omegacalc.specfile import matroid_from_spec

    matroids = [matroid_from_spec(spec).matroid for spec in generate_corpus("closure", 10, 2, 9)]
    checked = 0
    for m in [m for m in matroids if not m.has_loops()] + [uniform(9, 9)]:
        lat = flat_lattice(m)
        flats = all_flats(lat)
        lower, upper = [], []
        for f in flats:
            reference = _mobius_reference(lat, f)
            lower += [f] * (len(reference) + 1)
            upper += [f] + list(reference)
            expected = [1] + list(reference.values())
            assert lat.mobius(f, np.array(upper[-len(expected) :])).tolist() == expected
        values = lat.mobius(np.array(lower), np.array(upper))
        assert values.dtype == np.int64 and values.shape == (len(lower),)
        scalars = [lat.mobius(f, g) for f, g in zip(lower, upper)]
        assert all(type(v) is int for v in scalars)
        assert values.tolist() == scalars
        checked += len(scalars)
    assert checked > 20_000  # U(9,9) alone: 3^9 pairs F <= G


def test_mobius_table_does_not_depend_on_the_block_size(monkeypatch):
    from omegacalc import lattice
    from omegacalc.corpus import generate_corpus
    from omegacalc.specfile import matroid_from_spec

    specs = generate_corpus("closure", 4, 2, 9) + generate_corpus("schubert", 2, 5, 11)

    def tables():
        out = []
        for m in [matroid_from_spec(spec).matroid for spec in specs] + [uniform(9, 9)]:
            lat = flat_lattice(m)
            order, (upper, below, weight) = lat.weighted_predecessors()
            out.append((lat.mobius(order[below], order[upper]), order, upper, below, weight))
        return out

    default = tables()
    monkeypatch.setattr(lattice, "BLOCK_ENTRIES", 3)
    small = tables()
    for expected, got in zip(default, small):
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(expected, got))
    # in U(9,9), a link H < G whose triples F < H < G alone exceed the block
    _, order, upper, below, _ = default[-1]
    assert np.bincount(upper, minlength=len(order))[below].max() > 3


def test_chain_sum_against_the_cube_kernel():
    # on loop-free closure matroids at n = 8, the predecessor walk over the
    # flats with Mobius weights: the inner-flats recursion
    # t(G) = -good(G) Z(G) ends at the signed chain count through the
    # flats that fail (altsum on ~good & is_flat), and the doubled count
    # column S = -2 Z ends at minus the number of chains of flats
    from omegacalc.corpus import generate_corpus
    from omegacalc.specfile import matroid_from_spec

    rng = np.random.default_rng(0)
    checked = 0
    for seed in (1, 2, 3):
        for spec in generate_corpus("closure", 15, seed, 8):
            m = matroid_from_spec(spec).matroid
            if m.has_loops():
                continue
            lat = flat_lattice(m)
            flats = lat.weighted_predecessors()
            cube = rng.random((6, 1 << m.n)) < 0.5
            start = np.ones(6, dtype=np.int64)
            inner = -predecessor_walk(*flats, start, lambda masks, z: -z * cube.T[masks])
            expected = alternating_chain_sum(m.n, ~cube & lat.is_flat)
            assert inner.tolist() == expected.tolist(), spec["id"]
            chains = -predecessor_walk(*flats, [1], lambda masks, z: -2 * z)
            count = alternating_chain_sum(m.n, lat.is_flat, (1,), lambda masks, z: z)
            assert chains.tolist() == count.tolist(), spec["id"]
            checked += 1
    assert checked == 38
