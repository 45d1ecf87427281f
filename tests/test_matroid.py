import ast
import random
import re
from itertools import combinations
from pathlib import Path

import pytest
from helpers import all_flats, coloops, schubert_lower_bases, uniform_bases

import omegacalc
from omegacalc.altsum import LOW_BITS, submask_array
from omegacalc.bitops import bits, mask_of, popcount
from omegacalc.corpus import random_schubert_data
from omegacalc.errors import (
    EmptyGroundSet,
    InvalidProfile,
    InvalidRank,
    LoopsPresent,
    NotAMatroid,
    OmegacalcError,
)
from omegacalc.matroid import (
    Matroid,
    from_bases,
    schubert_from_order,
    schubert_lower,
    schubert_upper,
    uniform,
)

EXAMPLE_CHAIN = (mask_of(range(2)), mask_of(range(7)), mask_of(range(10)))
EXAMPLE_PROFILE = (0, 1, 3, 4)


def rank4_example():
    return schubert_lower(10, EXAMPLE_CHAIN, EXAMPLE_PROFILE)


def test_from_bases_accepts_uniform():
    m = from_bases(3, [0b110, 0b101, 0b011])
    assert (m.n, m.r) == (3, 2)
    assert m.bases == uniform(2, 3).bases


def test_from_bases_rejects_exchange_failure():
    with pytest.raises(NotAMatroid):
        from_bases(4, [0b1100, 0b0011])


def _exchange_holds(bases: set[int]) -> bool:
    """Brute-force basis exchange: for all B1, B2 and e in B1 - B2 there is
    an f in B2 - B1 with B1 - e + f a basis."""
    return all(
        any((b1 ^ (1 << e)) | (1 << f) in bases for f in bits(b2 & ~b1))
        for b1 in bases
        for b2 in bases
        for e in bits(b1 & ~b2)
    )


def _max_meet(bases, s: int) -> int:
    return max(popcount(b & s) for b in bases)


def _random_family(rng: random.Random, low: int = 4, high: int = 7) -> tuple[int, set[int]]:
    """An equal-size family on n <= high: a matroid's bases, possibly with
    one r-subset toggled, or a random sample of r-subsets with n >= low."""
    from helpers import random_derived_matroid

    if rng.random() < 0.5:
        m = random_derived_matroid(rng, high)
        n, r, family = m.n, m.r, set(m.bases)
        if rng.random() > 0.6:
            return n, family
    else:
        # below rank 2 or corank 2 every equal-size family is a matroid
        n = rng.randint(low, high)
        r = rng.randint(2, n - 2)
        family = set()
    subsets = [mask_of(c) for c in combinations(range(n), r)]
    if family:
        family ^= {rng.choice(subsets)}
    else:
        family = set(rng.sample(subsets, rng.randint(1, len(subsets))))
    return n, family or {subsets[0]}


def _witness(error: NotAMatroid) -> tuple[int, int, int]:
    """(S, e, f) as masks from the message of a NotAMatroid."""
    found = re.search(r"S=\[([\d, ]*)\], e=(\d+), f=(\d+)", str(error))
    assert found, str(error)
    s = mask_of(int(x) for x in found[1].split(",") if x.strip())
    return s, 1 << int(found[2]), 1 << int(found[3])


def _assert_violated(family, s, e, f):
    assert not s & (e | f) and e != f

    def r(x):
        return _max_meet(family, x)

    assert r(s | e) + r(s | f) < r(s | e | f) + r(s)


def _side(e: int, f: int) -> str:
    """Where the elements of the masks e < f lie against LOW_BITS: the
    elements below it step on the transposed layout of `subset_pass`."""
    low = 1 << LOW_BITS
    return "both below" if f < low else "both at or above" if e >= low else "one each side"


def test_validation_matches_exchange_oracle():
    rng = random.Random(2024)
    verdicts = {True: 0, False: 0}
    sides = {"both below": 0, "both at or above": 0, "one each side": 0}
    for trial in range(4500):
        # then families with n = 6..8, whose violations lie on either side
        # of LOW_BITS, or across it
        n, family = _random_family(rng) if trial < 2500 else _random_family(rng, 6, 8)
        try:
            m = from_bases(n, family)
        except NotAMatroid as error:
            accepted = False
            s, e, f = _witness(error)
            _assert_violated(family, s, e, f)
            sides[_side(e, f)] += 1
        else:
            accepted = True
            for s in (0, m.full_mask, rng.getrandbits(n), rng.getrandbits(n)):
                assert m.rank(s) == _max_meet(family, s)
        assert accepted == _exchange_holds(family), (n, sorted(family))
        verdicts[accepted] += 1
    assert min(verdicts.values()) >= 500, verdicts
    assert min(sides.values()) >= 5, sides


def test_non_matroid_error_names_its_witness():
    # rank 2 on {0,1,2,3}: {2,3} cannot trade 2 for 0 or 1, since {0,3} and
    # {1,3} are missing
    family = {0b0011, 0b0101, 0b0110, 0b1100}
    assert not _exchange_holds(family)
    with pytest.raises(NotAMatroid) as info:
        from_bases(4, family)
    _assert_violated(family, *_witness(info.value))


@pytest.mark.parametrize(
    "side, a, b, c, d",
    [("both below", 1, 3, 6, 7), ("both at or above", 5, 7, 0, 2), ("one each side", 2, 6, 4, 0)],
)
def test_planted_violation_is_named_at_n8(side, a, b, c, d):
    # the family above on a, b, c, d, whose one violation is S = {d},
    # e = a, f = b, summed with U(2, 4) on the other four elements
    part = {1 << x | 1 << y for x, y in ((a, b), (a, c), (b, c), (c, d))}
    rest = [x for x in range(8) if x not in (a, b, c, d)]
    family = {p | 1 << x | 1 << y for p in part for x, y in combinations(rest, 2)}
    with pytest.raises(NotAMatroid) as info:
        from_bases(8, family)
    s, e, f = _witness(info.value)
    _assert_violated(family, s, e, f)
    assert (s, e, f) == (1 << d, 1 << a, 1 << b) and _side(e, f) == side
def test_rank_table_entries_are_python_ints():
    base = from_bases(4, [0b0011, 0b0101, 0b0110, 0b1001, 0b1010])
    minor = rank4_example().contract(0b1).delete(0b10)
    # the table is an int8 array; rank() reads each entry as a Python int
    for m in (base, minor, rank4_example()):
        ranks = [m.rank(s) for s in range(1 << m.n)]
        assert all(type(v) is int for v in ranks), m
        assert ranks == m.ensure_rank_table().tolist(), m


def test_from_bases_accepts_single_loop():
    m = from_bases(1, [0])
    assert m.r == 0
    assert m.loops() == 0b1


def test_from_bases_rejects_empty_ground_set():
    with pytest.raises(EmptyGroundSet):
        from_bases(0, [0])


def test_from_bases_rejects_mixed_cardinalities():
    with pytest.raises(NotAMatroid):
        from_bases(3, [0b110, 0b001])


def test_from_bases_dedups_and_reads_a_generator_once():
    bases = [0b110, 0b101, 0b011]
    assert from_bases(3, bases + bases[:2]).bases == (0b011, 0b101, 0b110)
    assert from_bases(3, (b for b in bases)).bases == (0b011, 0b101, 0b110)


@pytest.mark.parametrize(
    "bases, message",
    [
        ([], "a matroid must have at least one basis"),
        ([1 << 70], "basis mask uses elements outside the ground set"),
        ([-1], "basis mask uses elements outside the ground set"),
        ([0b011, 1 << 70], "basis mask uses elements outside the ground set"),
        ([0b110, 0b001], "bases must all have the same cardinality"),
    ],
)
def test_from_bases_rejects_bad_lists_as_not_a_matroid(bases, message):
    with pytest.raises(NotAMatroid) as info:
        from_bases(3, bases)
    assert str(info.value) == message
    with pytest.raises(NotAMatroid) as info:
        from_bases(3, iter(bases))
    assert str(info.value) == message


def test_matroid_is_constructed_only_in_matroid_and_bergman():
    """Matroid() trusts its marks; everything else goes through from_bases
    or the checked constructors."""
    package = Path(omegacalc.__file__).parent
    callers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name == "Matroid":
                    callers.add(path.name)
    assert callers == {"matroid.py", "bergman.py"}


def test_uniform_counts():
    assert len(uniform(2, 3).bases) == 3
    assert len(uniform(1, 2).bases) == 2
    assert uniform(0, 1).bases == (0,)
    with pytest.raises(InvalidRank):
        uniform(3, 2)


def test_schubert_lower_trivial_chain_is_uniform():
    m = schubert_lower(5, (mask_of(range(5)),), (0, 2))
    assert m.bases == uniform(2, 5).bases


def test_schubert_lower_two_coloops():
    m = schubert_lower(2, (0b01, 0b11), (0, 1, 2))
    assert m.bases == (0b11,)
    assert coloops(m) == 0b11


def test_schubert_lower_rejects_bad_profile():
    with pytest.raises(InvalidProfile):
        schubert_lower(4, (0b0011, 0b1111), (0, 3, 2))


def test_schubert_upper_trivial_chain_is_uniform():
    m = schubert_upper(4, (mask_of(range(4)),), (0, 2))
    assert m.bases == uniform(2, 4).bases


def test_schubert_upper_small_example_matches_lower():
    lower = schubert_lower(2, (0b01, 0b11), (0, 1, 2))
    upper = schubert_upper(2, (0b01, 0b11), (0, 1, 2))
    assert lower.bases == upper.bases == (0b11,)


def test_schubert_upper_satisfies_lower_bounds():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 8)
        r = rng.randint(1, n - 1)
        k = rng.randint(1, 3)
        sizes = sorted(rng.sample(range(1, n), min(k, n - 1))) + [n]
        perm = list(range(n))
        rng.shuffle(perm)
        chain = tuple(mask_of(perm[:s]) for s in sizes)
        profile = [0]
        prev = 0
        for i, s in enumerate(sizes):
            if i == len(sizes) - 1:
                profile.append(r)
                break
            lo = max(profile[-1], r - (n - s))
            hi = min(r, profile[-1] + s - prev)
            profile.append(rng.randint(lo, hi))
            prev = s
        m = schubert_upper(n, chain, tuple(profile))
        # oracle: enumerate r-subsets against the defining lower bounds
        expect = tuple(
            sorted(
                mask_of(c)
                for c in combinations(range(n), r)
                if all(
                    popcount(mask_of(c) & s) >= a
                    for s, a in zip(chain[:-1], profile[1:-1])
                )
            )
        )
        assert m.bases == expect


def test_three_schubert_indexings_coincide():
    # convert (chain, profile) to an order and a dominating set
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 8)
        r = rng.randint(1, n - 1)
        sizes = sorted(rng.sample(range(1, n), rng.randint(0, min(2, n - 1)))) + [n]
        perm = list(range(n))
        rng.shuffle(perm)
        chain = tuple(mask_of(perm[:s]) for s in sizes)
        profile = [0]
        prev = 0
        for i, s in enumerate(sizes):
            if i == len(sizes) - 1:
                profile.append(r)
                break
            lo = max(profile[-1], r - (n - s))
            hi = min(r, profile[-1] + s - prev)
            profile.append(rng.randint(lo, hi))
            prev = s
        m1 = schubert_lower(n, chain, tuple(profile))
        # order: any total order making each chain member an initial segment
        order = perm
        # dominating set: first a_i - a_{i-1} elements of each block
        subset = 0
        prev_size = 0
        for s_size, a_prev, a_cur in zip(sizes, profile, profile[1:]):
            block = order[prev_size:s_size]
            for e in block[: a_cur - a_prev]:
                subset |= 1 << e
            prev_size = s_size
        m2 = schubert_from_order(order, subset)
        assert m1.bases == m2.bases


def test_rank4_example_equals_order_indexing():
    assert rank4_example().bases == schubert_from_order(
        list(range(10)), mask_of([0, 2, 3, 7])
    ).bases


def _gale_bases_by_combinations(order, subset):
    """Oracle: the sets B dominating subset in the Gale order, b_i >= a_i."""
    position = {e: i for i, e in enumerate(order)}
    a_pos = sorted(position[e] for e in bits(subset))
    return tuple(sorted(
        mask_of(c)
        for c in combinations(range(len(order)), len(a_pos))
        if all(bp >= ap for bp, ap in zip(sorted(position[e] for e in c), a_pos))
    ))


def test_cube_constructions_match_combination_oracles():
    rng = random.Random(2024)
    for i in range(80):
        n = 16 if i < 4 else rng.randint(1, 13)
        _, chain, profile = random_schubert_data(rng, n, r=rng.randint(0, 5) if n == 16 else None)
        assert schubert_lower(n, chain, profile).bases == schubert_lower_bases(
            n, chain, profile
        )
        order = list(range(n))
        rng.shuffle(order)
        subset = mask_of(rng.sample(range(n), rng.randint(0, min(n, 5) if n == 16 else n)))
        assert schubert_from_order(order, subset).bases == _gale_bases_by_combinations(
            order, subset
        )
        r = rng.randint(0, n)
        assert uniform(r, n).bases == uniform_bases(r, n)


def test_order_subset_outside_ground_set_rejected():
    with pytest.raises(OmegacalcError):
        schubert_from_order(list(range(3)), mask_of([0, 3]))


def test_rank_examples():
    m = uniform(2, 3)
    assert m.rank(0b111) == 2
    assert m.rank(0b100) == 1
    assert rank4_example().rank(mask_of(range(7))) == 3


def test_rank_table_properties():
    rng = random.Random(1)
    for _ in range(10):
        n = rng.randint(2, 7)
        m = schubert_lower(
            n, (mask_of(range(n)),), (0, rng.randint(1, n))
        ) if rng.random() < 0.3 else uniform(rng.randint(1, n), n)
        m.ensure_rank_table()
        full = m.full_mask
        assert m.rank(0) == 0
        for mask in range(full + 1):
            for e in range(n):
                if mask >> e & 1:
                    continue
                step = m.rank(mask | (1 << e)) - m.rank(mask)
                assert step in (0, 1)
        for _ in range(50):
            a = rng.randint(0, full)
            b = rng.randint(0, full)
            assert m.rank(a | b) + m.rank(a & b) <= m.rank(a) + m.rank(b)


def test_closure_examples():
    m = uniform(2, 3)
    assert m.closure(0b110) == 0b111
    assert m.closure(0b100) == 0b100
    loop_plus_coloop = from_bases(2, [0b10])
    assert loop_plus_coloop.closure(0) == 0b01


def test_dual_and_minors():
    assert uniform(2, 5).dual().bases == uniform(3, 5).bases
    assert len(uniform(1, 2).direct_sum(uniform(1, 2)).bases) == 4
    assert uniform(2, 3).contract(0b001).bases == uniform(1, 2).bases
    assert uniform(2, 5).delete(0b00011).bases == uniform(2, 3).bases


def test_dual_involution():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(1, 8)
        m = uniform(rng.randint(0, n), n)
        assert m.dual().dual().bases == m.bases


def test_contract_everything_errors():
    with pytest.raises(EmptyGroundSet):
        uniform(1, 2).contract(0b11)
    with pytest.raises(EmptyGroundSet):
        uniform(1, 2).delete(0b11)


def test_loops_coloops():
    m = schubert_from_order(list(range(4)), mask_of([1, 3]))
    assert m.loops() == 0b0001  # smallest element not dominated
    assert uniform(2, 4).loops() == 0 and coloops(uniform(2, 4)) == 0
    assert coloops(uniform(3, 3)) == 0b111


def test_components():
    assert uniform(2, 4).component_count() == 1
    s = uniform(1, 2).direct_sum(uniform(2, 3))
    assert s.component_count() == 2
    m = schubert_from_order(list(range(5)), mask_of([0, 2]))  # min in, max out
    assert m.component_count() == 1
    assert s.component_count(0) == 0


def _assert_components_separate(m, s):
    # unions of components of M|S are exactly the T inside S with
    # rank(T) + rank(S - T) == rank(S)
    comps = m.restriction_components(s)
    assert sum(comps) == s and all(comps)  # nonempty, disjoint, cover S
    unions = set()
    for pick in range(1 << len(comps)):
        u = 0
        for i, c in enumerate(comps):
            if pick >> i & 1:
                u |= c
        unions.add(u)
    for t in submask_array(s).tolist():
        separator = m.rank(t) + m.rank(s & ~t) == m.rank(s)
        assert separator == (t in unions), (m, s, t)


def test_component_separator_agreement():
    rng = random.Random(9)
    matroids = []
    for _ in range(15):
        n = rng.randint(2, 8)
        r = rng.randint(1, n)
        m = uniform(r, n) if rng.random() < 0.4 else schubert_from_order(
            list(range(n)), mask_of(sorted(rng.sample(range(n), r)))
        )
        matroids.append(m)
    for _ in range(8):
        a, b = rng.sample(matroids, 2)
        if a.n + b.n <= 10:
            s = a.direct_sum(b)
            assert s.component_count() == a.component_count() + b.component_count()
            matroids.append(s)
    for m in matroids:
        assert m.connected_components() == m.restriction_components(m.full_mask)
        _assert_components_separate(m, m.full_mask)
        for _ in range(6):
            _assert_components_separate(m, rng.getrandbits(m.n))


def test_direct_sum_basis_count_multiplies():
    rng = random.Random(3)
    for _ in range(10):
        na, nb = rng.randint(2, 4), rng.randint(2, 4)
        a = uniform(rng.randint(1, na), na)
        b = uniform(rng.randint(1, nb), nb)
        assert len(a.direct_sum(b).bases) == len(a.bases) * len(b.bases)


def test_simplify_collapses_parallel_classes():
    m = uniform(2, 3)
    for _ in range(2):
        m = m.parallel_extend(0)
    assert m.simplify().bases == uniform(2, 3).bases


def test_simplify_rejects_loops():
    with pytest.raises(LoopsPresent):
        from_bases(2, [0b01]).simplify()


def test_rank_of_nonloops_is_full():
    rng = random.Random(21)
    for _ in range(15):
        n = rng.randint(2, 8)
        m = schubert_from_order(
            list(range(n)), mask_of(sorted(rng.sample(range(n), rng.randint(0, n))))
        )
        assert m.rank(m.full_mask & ~m.loops()) == m.r


def test_rank_zero_schubert():
    m = schubert_lower(3, (0b111,), (0, 0))
    assert m.bases == (0,)
    assert m.loops() == 0b111


def test_delete_nothing_is_identity():
    m = uniform(2, 4)
    assert m.delete(0).bases == m.bases
    assert m.contract(0).bases == m.bases


def test_ground_set_cap():
    import omegacalc.errors as errors

    with pytest.raises(errors.OmegacalcError):
        uniform(2, 17)


def test_rank_table_at_n15_n16():
    # the full table answers every rank query, up to the ground-set cap
    rng = random.Random(16)
    for n in (15, 16):
        order = rng.sample(range(n), n)
        m = schubert_from_order(order, mask_of(rng.sample(range(n), 5)))
        masks = [0, m.full_mask] + [rng.getrandbits(n) for _ in range(100)]
        for s in masks:
            assert m.rank(s) == max(popcount(b & s) for b in m.bases), (n, s)
            assert type(m.rank(s)) is int
        table = m.ensure_rank_table()
        assert table is m.ensure_rank_table() and len(table) == 1 << n


def test_dual_rank_identity():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def run(data):
        n = data.draw(st.integers(2, 8))
        r = data.draw(st.integers(0, n))
        subset = mask_of(sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=r))))
        m = schubert_from_order(list(range(n)), mask_of(range(r)))
        m = m if data.draw(st.booleans()) else uniform(r, n)
        d = m.dual()
        assert d.rank(subset) == bin(subset).count("1") + m.rank(m.full_mask & ~subset) - m.r

    run()


def test_flats_closed_under_intersection_and_closure():
    from omegacalc.lattice import flat_lattice

    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(2, 7)
        m = schubert_from_order(
            list(range(n)), mask_of(sorted(rng.sample(range(n), rng.randint(1, n)))),
        )
        lat = flat_lattice(m)
        flats = all_flats(lat)
        for f in flats:
            assert m.closure(f) == f
        flat_set = set(flats)
        for f in flats:
            for g in flats:
                assert f & g in flat_set
