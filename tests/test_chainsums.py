import random
import time
from itertools import combinations
from math import comb, prod

import numpy as np
import pytest
from helpers import all_flats, coloops, count_paths_brute, marked, random_derived_matroid

from omegacalc import chainsums
from omegacalc.altsum import alternating_chain_sum, block_rows, popcounts
from omegacalc.bitops import mask_of, popcount
from omegacalc.chainsums import (
    Variant,
    _link_steps,
    component_sign,
    covalue,
    omega_by_variant,
    schubert_omega,
)
from omegacalc.corpus import generate_corpus, random_schubert
from omegacalc.closedform import omega_closed_form
from omegacalc.crowding import (
    crowded_flats,
    crowded_sets,
    crowding,
    is_crowding_record,
    record_arrays,
    zero_part,
)
from omegacalc.engine import compute_omega
from omegacalc.errors import VariantInapplicable
from omegacalc.lattice import flat_lattice
from omegacalc.matroid import from_bases, schubert_lower, uniform
from omegacalc.paths import Mode, PathConstraint, PathProblem, advance, restrict
from omegacalc.specfile import matroid_from_spec

EXAMPLE_CHAIN = (mask_of(range(2)), mask_of(range(7)), mask_of(range(10)))
EXAMPLE_PROFILE = (0, 1, 3, 4)


def test_series_parallel_unit():
    m = uniform(1, 2)
    for v in Variant:
        assert omega_by_variant(m, v) == 1, v
        assert covalue(m, v).covalue == 1, v


def test_u25_all_variants():
    m = uniform(2, 5)
    for v in Variant:
        assert omega_by_variant(m, v) == 2, v


def test_worked_example_all_routes():
    m = schubert_lower(10, EXAMPLE_CHAIN, EXAMPLE_PROFILE)
    assert schubert_omega(10, EXAMPLE_CHAIN, EXAMPLE_PROFILE) == 3
    for v in Variant:
        assert omega_by_variant(m, v) == 3, v


def test_schubert_omega_special_cases():
    # trivial chain: the unconstrained binomial
    assert schubert_omega(9, (mask_of(range(9)),), (0, 3)) == comb(5, 2)
    # a loop (first profile entry 0 on a nonempty member) kills every path
    assert schubert_omega(6, (0b000011, 0b111111), (0, 0, 2)) == 0


def test_coloop_vanishes_everywhere():
    m = uniform(2, 3).direct_sum(uniform(1, 1))
    for v in Variant:
        assert omega_by_variant(m, v) == 0, v


def test_loop_vanishes_sets_variants():
    m = from_bases(3, [0b010, 0b100])  # element 0 is a loop
    for v in (Variant.INWARD_SETS, Variant.OUTWARD_SETS, Variant.CROWDED_SETS,
              Variant.RECORD_SETS, Variant.FINAL_SETS):
        assert omega_by_variant(m, v) == 0, v
    for v in (Variant.INWARD_FLATS, Variant.OUTWARD_FLATS):
        with pytest.raises(VariantInapplicable):
            covalue(m, v)


def test_small_rank_zero():
    m = from_bases(1, [0])
    for v in (Variant.INWARD_SETS, Variant.OUTWARD_SETS):
        assert omega_by_variant(m, v) == 0


def test_sets_variants_on_uniform_n12_to_n16():
    # the set routes run at every n <= 16: U(r, n) has omega C(n - r - 1, r - 1)
    for r, n, expect in [(4, 12, comb(7, 3)), (6, 13, 6), (8, 16, 1)]:
        m = uniform(r, n)
        assert omega_by_variant(m, Variant.INWARD_SETS) == expect, (r, n)
        assert omega_by_variant(m, Variant.OUTWARD_SETS) == expect, (r, n)


def test_alternating_chain_sum_complement_duality():
    # Mobius inversion on the boolean lattice, mu(S, T) = (-1)^|T - S|:
    # the signed chain count through the marked sets is (-1)^(n + 1) times
    # the one through the unmarked sets.  Inward-sets marks the sets with
    # D(x) < rank and outward-sets the rest, so this identity alone makes
    # the two routes equal path by path; their independent oracles are the
    # kernel routes and the Schubert count.  No chain is enumerated, so
    # n = 14 and 16 are checked as well.
    rng = np.random.default_rng(2411)
    cases = [(n, density) for n in range(1, 13) for density in (0.0, 0.2, 0.5, 0.8, 1.0)]
    cases += [(14, 0.3), (14, 0.7), (16, 0.5), (16, 0.9)]
    for n, density in cases:
        sign = (-1) ** (n + 1)
        predicates = [rng.random(1 << n) < density for _ in range(3 if n <= 12 else 1)]
        values = []
        for good in predicates:
            value = alternating_chain_sum(n, good)
            assert value == sign * alternating_chain_sum(n, ~good), (n, density)
            values.append(value)
        if len(predicates) == 3:
            # the three predicates as one (3, 2^n) stack, one result per row
            stack = np.array(predicates)
            rows = alternating_chain_sum(n, stack).tolist()
            assert rows == (sign * alternating_chain_sum(n, ~stack)).tolist(), (n, density)
            # a 1-D call gives one value, equal to its row's int
            for value, row in zip(values, rows):
                assert np.ndim(value) == 0 and type(row) is int and value == row, (n, density)


def test_vector_mode_matches_the_scalar_sum():
    # start (1,) and transfer -Z give U(t) = v(t), the scalar recursion,
    # whose result 1 + sum of v is the sum of U
    rng = np.random.default_rng(77)
    for n in range(1, 11):
        for density in (0.0, 0.3, 0.7, 1.0):
            good = rng.random(1 << n) < density
            vector = alternating_chain_sum(n, good, start=(1,), transfer=lambda m, z: -z)
            assert vector.tolist() == [int(alternating_chain_sum(n, good))], (n, density)
    # 17 coordinates: transfer sees 2^16 // 17^2 = 226 masks at a time, so a
    # level of up to C(12, 6) = 924 masks spreads over several calls; each
    # coordinate is a scaled copy
    good = rng.random(1 << 12) < 0.5
    vector = alternating_chain_sum(12, good, start=range(1, 18), transfer=lambda m, z: -z)
    assert vector.tolist() == [k * int(alternating_chain_sum(12, good)) for k in range(1, 18)]
    # a stack with a start: one (w,) result per row, equal to the scalar
    # rows, although the rows share every zeta block of the mask-major U
    for n in (1, 5, 9):
        stack = rng.random((7, 1 << n)) < 0.6
        vector = alternating_chain_sum(n, stack, start=(1,), transfer=lambda m, z: -z)
        assert vector.shape == (7, 1) and vector.dtype == np.int64
        assert vector[:, 0].tolist() == alternating_chain_sum(n, stack).tolist(), n
    # a transfer that reads its masks, on a stack: transfer gets masks, not
    # positions in U, also when a level of three rows at n = 12 spreads over
    # several chunks of 226 masks; each row equals its own call
    seen = []

    def weighted(masks, z):
        seen.append(masks)
        return z * (masks % 3 + 1)[:, None]

    stack = rng.random((3, 1 << 12)) < 0.5
    expected = [alternating_chain_sum(12, row, range(1, 18), weighted).tolist() for row in stack]
    seen.clear()
    assert alternating_chain_sum(12, stack, range(1, 18), weighted).tolist() == expected
    masks = np.concatenate(seen)
    assert len(seen) > 11 and masks.min() >= 0 and masks.max() < 1 << 12


def test_alternating_chain_sum_across_blocks():
    # a stack taller than one block of rows gives the rows of one call each
    rng = np.random.default_rng(16)
    for n, rows in [(12, 17), (16, 3)]:
        assert rows > block_rows(n)
        stack = rng.random((rows, 1 << n)) < 0.6
        expected = [int(alternating_chain_sum(n, row)) for row in stack]
        assert len(set(expected)) > 1, n
        assert alternating_chain_sum(n, stack).tolist() == expected, n


def test_stacked_rows_whose_lowest_marked_levels_differ():
    # the kernel skips the zeta pass at a block's lowest marked level only,
    # where Z = start; a row whose own lowest marked level is higher still
    # needs every pass above it.  Each row of the stack, scalar and vector,
    # equals its one-row call; the last row marks nothing
    rng = np.random.default_rng(9)
    n = 9
    levels = popcounts(n)
    stack = rng.random((6, 1 << n)) < 0.4
    for row, lowest in zip(stack, [5, 1, 8, 3, 2, n]):
        row &= levels >= lowest
        row[(1 << lowest) - 1] = lowest < n
    assert [int(levels[row].min(initial=n)) for row in stack] == [5, 1, 8, 3, 2, n]
    expected = [int(alternating_chain_sum(n, row)) for row in stack]
    assert expected[-1] == 1 and len(set(expected)) > 2
    assert alternating_chain_sum(n, stack).tolist() == expected

    def weighted(masks, z):
        return z * (masks % 3 + 1)[:, None]

    for start, transfer in [((1,), lambda m, z: -z), ((2, -1, 5), weighted)]:
        expected = [alternating_chain_sum(n, row, start, transfer).tolist() for row in stack]
        assert alternating_chain_sum(n, stack, start, transfer).tolist() == expected, start


def test_alternating_chain_sum_scratch_bound():
    # the kernel keeps U and one scratch copy of it for the zeta pass, so a
    # call peaks near twice the bytes of U; the rest is one level's masks
    # and the transfer's chunk, which BATCH_SUMS // w^2 keeps small
    import tracemalloc

    def peak(*args, **kwargs):
        tracemalloc.start()
        try:
            alternating_chain_sum(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    popcounts(16)
    good = np.ones(1 << 16, dtype=bool)
    u_bytes = (1 << 16) * 9 * 8
    assert peak(16, good, start=[1] * 9, transfer=lambda m, z: -z) <= 2.5 * u_bytes
    # a scalar stack is the width-1 case in one block of 2^16 entries: U,
    # its copy and the level's index arrays stay well under 2 MiB
    stack = np.random.default_rng(8).random((256, 1 << 8)) < 0.5
    assert peak(8, stack) < 2 << 20


def test_empty_set_is_a_crowded_record_and_a_flat():
    # the crowded, record and final routes start every chain at the empty
    # set without testing it: it is crowded and a crowding record of every
    # matroid, and a crowded flat of every loop-free one
    loop_free = 0
    for n in range(1, 17):
        for family in ("closure", "schubert"):
            for spec in generate_corpus(family, 3, n, n):
                m = matroid_from_spec(spec).matroid
                assert is_crowding_record(m, 0) and crowded_sets(m)[0], spec
                if not m.has_loops():
                    loop_free += 1
                    assert crowded_flats(m)[0] and 0 in all_flats(flat_lattice(m)), spec
    assert loop_free >= 32


def test_multiplicativity_of_covalue_sign():
    # the invariant multiplies over direct sums; the covalue carries the
    # component sign
    a, b = uniform(2, 5), uniform(1, 2)
    s = a.direct_sum(b)
    assert omega_by_variant(s, Variant.FINAL_FLATS) == 2
    assert covalue(s, Variant.FINAL_FLATS).covalue == -2


def test_cancellation_reduces_chains():
    m = schubert_lower(10, EXAMPLE_CHAIN, EXAMPLE_PROFILE)
    counts = {v: covalue(m, v).chains for v in Variant if covalue(m, v).chains is not None}
    assert counts[Variant.CROWDED_FLATS] <= counts[Variant.INWARD_FLATS]
    assert counts[Variant.RECORD_FLATS] <= counts[Variant.CROWDED_FLATS]
    assert counts[Variant.FINAL_FLATS] <= counts[Variant.RECORD_FLATS]
    assert counts[Variant.RECORD_SETS] <= counts[Variant.CROWDED_SETS]


def test_zero_part_inclusion_reads_only_the_smaller_set():
    # the final routes link s -> t on zero(t) <= s in place of
    # zero(t) <= zero(s) (proof in _final_sum): the two agree on every
    # pair s < t, records or not
    outcomes = set()
    for n in (6, 7):
        for family in ("closure", "schubert"):
            for spec in generate_corpus(family, 6, n, n):
                m = matroid_from_spec(spec).matroid
                zero = [zero_part(m, t) for t in range(1 << n)]
                for t in range(1, 1 << n):
                    s = (t - 1) & t
                    while True:
                        inside = zero[t] & ~s == 0
                        assert (zero[t] & ~zero[s] == 0) == inside, (spec["id"], s, t)
                        outcomes.add((zero[t] != 0, inside))
                        if not s:
                            break
                        s = (s - 1) & t
    assert outcomes == {(False, True), (True, True), (True, False)}


def test_uniform_final_flats_single_chain():
    run = covalue(uniform(5, 12), Variant.FINAL_FLATS)
    assert run.covalue == comb(6, 4)
    assert run.chains == 1


def test_uniform_4_10_all_methods():
    rep = compute_omega(uniform(4, 10), "all", "u410")
    assert rep.agree and rep.consensus == comb(5, 3)
    assert len(rep.results) >= 11  # closed form plus the ten chain sums


def test_flats_variants_agree_above_nine():
    rng = random.Random(1012)
    flats = (
        Variant.INWARD_FLATS,
        Variant.OUTWARD_FLATS,
        Variant.CROWDED_FLATS,
        Variant.RECORD_FLATS,
        Variant.FINAL_FLATS,
    )
    done = 0
    while done < 4:
        m = random_schubert(rng, rng.randint(10, 12), loop_free=True)
        if m.has_loops():
            continue
        values = {covalue(m, v).covalue for v in flats}
        assert len(values) == 1, (m, values)
        done += 1


def test_cross_method_agreement_random():
    rng = random.Random(314)
    for _ in range(40):
        m = random_derived_matroid(rng, 9)
        rep = compute_omega(m, "all", "x")
        assert rep.agree, (m, {r.method: r.omega for r in rep.results})


@pytest.mark.parametrize("ident", ["closure-1-0035", "closure-1-0090"])
def test_all_routes_at_n10_within_budget(ident):
    # crowded-sets counts over 20 million chains here: the sum must not walk them
    spec = next(s for s in generate_corpus("closure", 100, 1, 10) if s["id"] == ident)
    m = matroid_from_spec(spec).matroid
    start = time.perf_counter()
    rep = compute_omega(m, "all", ident)
    elapsed = time.perf_counter() - start
    assert rep.agree and len({res.omega for res in rep.results}) == 1, rep.results
    assert len(rep.results) == 11
    assert elapsed < 10, elapsed


def test_schubert_value_equals_covalue():
    rng = random.Random(15)
    from omegacalc.corpus import random_schubert_data

    for _ in range(30):
        n, chain, profile = random_schubert_data(rng, rng.randint(2, 9))
        m = schubert_lower(n, chain, profile)
        direct = schubert_omega(n, chain, profile)
        if m.has_loops():
            assert direct == 0
            assert omega_by_variant(m, Variant.OUTWARD_SETS) == 0
            continue
        assert omega_by_variant(m, Variant.FINAL_FLATS) == direct
        assert covalue(m, Variant.OUTWARD_FLATS).covalue == direct



def test_inward_flats_on_a_large_lattice():
    # Schubert n = 16, r = 7, seed 1, input 0: 14,685 flats; the chain
    # count is pinned from the chain walk that once took ~500 s here
    loaded = matroid_from_spec(generate_corpus("schubert", 3, 1, 16, 7)[0])
    m = loaded.matroid
    assert len(flat_lattice(m)) == 14_685
    run = covalue(m, Variant.INWARD_FLATS)
    assert component_sign(m) * run.covalue == schubert_omega(*loaded.schubert) == 28
    assert run.chains == 39_179_067


def test_inward_flats_at_rank_8():
    # Schubert n = 16, r = 8, seed 1, input 1: 22,660 flats, the largest
    # rank the inward-flats route meets at n = 16
    loaded = matroid_from_spec(generate_corpus("schubert", 2, 1, 16, 8)[1])
    m = loaded.matroid
    assert (m.r, len(flat_lattice(m))) == (8, 22_660)
    run = covalue(m, Variant.INWARD_FLATS)
    assert component_sign(m) * run.covalue == schubert_omega(*loaded.schubert)
    assert run.chains == 479_979_965

# (covalue, chains) of the final routes at n = 16, pinned from the
# transfer recursion with Python-int path states that the predecessor
# walk replaced; None where the flats route does not apply (loops)
FINAL_ROUTE_PINS = [
    (("closure", 4, 2, 16), 2, (6, 4_349_492), (6, 2)),
    (("schubert", 3, 94, 16, 5), 1, (25, 12_142), (25, 2)),
    (("schubert", 3, 94, 16, 5), 2, (0, 1_082), None),
]


@pytest.mark.parametrize("corpus_args, index, sets, flats", FINAL_ROUTE_PINS)
def test_final_routes_at_n16(corpus_args, index, sets, flats):
    m = matroid_from_spec(generate_corpus(*corpus_args)[index]).matroid
    run = covalue(m, Variant.FINAL_SETS)
    assert (run.covalue, run.chains) == sets
    if flats is None:
        with pytest.raises(VariantInapplicable):
            covalue(m, Variant.FINAL_FLATS)
    else:
        run = covalue(m, Variant.FINAL_FLATS)
        assert (run.covalue, run.chains) == flats


def _link_steps_by_columns(r, length, mode):
    """The link matrices one unit vector at a time: advance by x columns,
    restrict, advance back, negate (the oracle of `_link_steps`)."""
    steps = np.zeros(((length + 1) * (r + 1), r + 1, r + 1), dtype=np.int64)
    steps[:, r, r] = 1
    for (x, y), step in zip(np.ndindex(length + 1, r + 1), steps):
        for j in range(r):
            state = advance([0] * j + [1] + [0] * (r - 1 - j), x)
            restrict(state, y, mode)
            step[j, :r] = [-v for v in advance(state, -x)]
    return steps


def test_link_steps_match_advance_and_restrict():
    # every (r, L) with a path at n <= 16: 1 <= r, r - 1 <= L <= 15 - r
    tables = 0
    for r in range(1, 9):
        for length in range(r - 1, 16 - r):
            for mode in Mode:
                expected = _link_steps_by_columns(r, length, mode)
                assert np.array_equal(_link_steps(r, length, mode), expected), (r, length, mode)
                tables += 1
    assert tables == 128


# The per-path oracle of the set routes (`_sets_by_path`, one alternating
# chain sum per path) takes 5-7 s per input at n = 16, r = 5, so on that
# corpus it checks the worst input only (input 1: 210 paths, omega 25).
# The set routes themselves run on every input of every cross-route corpus.
SET_ROUTE_INPUTS = {("schubert", 3, 94, 16, 5): {1}}

CROWDED_SET_ROUTES = [
    Variant.CROWDED_SETS.value, Variant.RECORD_SETS.value, Variant.FINAL_SETS.value
]


CROSS_ROUTE_CORPORA = [
    (("schubert", 4, 1, 13, 5), 35),
    (("schubert", 3, 94, 16, 5), 25),
    (("schubert", 6, 2, 13), 56),
    (("schubert", 6, 3, 14), 84),
    (("schubert", 6, 4, 15), 126),
    (("schubert", 6, 5, 16), 66),
]


@pytest.mark.parametrize("corpus_args, top", CROSS_ROUTE_CORPORA)
def test_cross_route_agreement_n13_to_n16(corpus_args, top):
    # auto, the closed form where one applies, the five flats routes, the
    # two set routes and the three crowded-set routes against the Schubert
    # path count, above n = 12
    from omegacalc.chainsums import FLAT_VARIANTS

    values = []
    for spec in generate_corpus(*corpus_args):
        loaded = matroid_from_spec(spec)
        m = loaded.matroid
        expected = schubert_omega(*loaded.schubert)
        values.append(expected)
        assert omega_closed_form(m) in (None, expected), spec["id"]
        methods = ["auto"] + sorted(v.value for v in FLAT_VARIANTS)
        methods += [Variant.INWARD_SETS.value, Variant.OUTWARD_SETS.value] + CROWDED_SET_ROUTES
        results = compute_omega(m, methods).results
        assert len(results) == len(methods)
        assert all(res.omega == expected for res in results), (spec["id"], results)
    assert max(values) == top


# Consensus of every route on closure inputs above n = 12, which carry no
# Schubert data: the routes are checked against each other only.
CLOSURE_CONSENSUS = [
    (("closure", 4, 2, 16), [0, 0, 6, 0]),
    (("closure", 4, 1, 16), [210, 0, 120, 0]),
    (("closure", 6, 3, 14), [0, 45, 11, 0, 0, 1]),
]


@pytest.mark.parametrize("corpus_args, expected", CLOSURE_CONSENSUS)
def test_all_routes_agree_on_closure_n14_n16(corpus_args, expected):
    values = []
    for spec in generate_corpus(*corpus_args):
        m = matroid_from_spec(spec).matroid
        report = compute_omega(m, "all")
        assert report.agree and len(report.results) >= len(Variant), (spec["id"], report.results)
        assert compute_omega(m, "auto").results[0].omega == report.consensus, spec["id"]
        values.append(report.consensus)
    assert values == expected


@pytest.mark.parametrize("r, expected", [(4, 120), (5, 126)])
def test_series_and_parallel_extension_from_n15_to_n16(r, expected):
    # a value no route computed at n = 16: a parallel extension at a
    # non-coloop keeps the g-polynomial and the rank, so every route gives
    # the n = 15 value; a series extension keeps the g-polynomial but
    # raises the rank by one, so its top coefficient, the invariant, is 0
    loaded = matroid_from_spec(generate_corpus("schubert", 2, 15, 15, r)[0])
    m = loaded.matroid
    assert (m.n, m.r, schubert_omega(*loaded.schubert)) == (15, r, expected)
    e = next(e for e in range(m.n) if not coloops(m) >> e & 1)
    for extended, value in ((m.parallel_extend(e), expected), (m.dual().parallel_extend(e).dual(), 0)):
        assert extended.n == 16
        results = compute_omega(extended, "all").results
        assert {res.method for res in results} >= {v.value for v in Variant}
        assert all(res.omega == value for res in results), results


def _relabelled(m, seed):
    """m with its elements renamed by a seeded permutation, through from_bases."""
    perm = random.Random(seed).sample(range(m.n), m.n)
    return from_bases(m.n, [sum(1 << perm[e] for e in range(m.n) if b >> e & 1) for b in m.bases])


def _uniform_with_copies(r, n0, copies, seed):
    """U(r, n0) with one parallel copy of each element below `copies`,
    relabelled, and its invariant C(n0 - r - 1, r - 1) by the Schubert path
    count, which no chain route computes: parallel copies and relabelling
    keep the invariant."""
    m = uniform(r, n0)
    for e in range(copies):
        m = m.parallel_extend(e)
    return _relabelled(m, seed), schubert_omega(n0, ((1 << n0) - 1,), (0, r))


# (r, n0, copies, invariant): connected inputs of rank 5-7 with parallel
# elements, which no closed form decides, so `auto` falls back to final-flats
KNOWN_FALLBACK = [
    (5, 11, 5, 5), (6, 13, 3, 6), (7, 15, 1, 7), (5, 13, 3, 35),
    (5, 11, 1, 5), (5, 11, 2, 5), (5, 11, 3, 5), (5, 11, 4, 5),
]


@pytest.mark.parametrize("r, n0, copies, expected", KNOWN_FALLBACK)
def test_known_answers_through_the_auto_fallback_n12_to_n16(r, n0, copies, expected):
    m, value = _uniform_with_copies(r, n0, copies, seed=n0 + copies)
    assert (m.n, m.r, value, comb(n0 - r - 1, r - 1)) == (n0 + copies, r, expected, expected)
    assert m.component_count() == 1
    assert omega_closed_form(m) is None
    auto = compute_omega(m, "auto").results
    assert [(res.method, res.omega) for res in auto] == [(Variant.FINAL_FLATS.value, expected)]
    report = compute_omega(m, "all")
    assert len(report.results) == len(Variant)
    assert report.agree and report.consensus == expected, report.results


@pytest.mark.parametrize(
    "parts, expected",
    [
        (((2, 5), (5, 11)), 10),
        (((2, 5), (2, 5), (2, 6)), 12),
        (((1, 3), (2, 5), (2, 4), (1, 4)), 2),
    ],
)
def test_known_answers_of_direct_sums_at_n16(parts, expected):
    # the invariant multiplies over a direct sum of U(r, n0), C(n0 - r - 1,
    # r - 1) each; relabelled, so the components interleave, and two, three
    # and four components take both signs of (-1)^(components - 1)
    m = uniform(*parts[0])
    for part in parts[1:]:
        m = m.direct_sum(uniform(*part))
    m = _relabelled(m, seed=16)
    value = prod(schubert_omega(n0, ((1 << n0) - 1,), (0, r)) for r, n0 in parts)
    assert (m.n, value, m.component_count()) == (16, expected, len(parts))
    for method in ("closed", "auto"):
        assert [res.omega for res in compute_omega(m, method).results] == [expected]
    report = compute_omega(m, [v.value for v in Variant])
    assert len(report.results) == len(Variant)
    assert report.agree and report.consensus == expected, report.results


def _sets_by_path(m, mode):
    """The set-route sum one path at a time: one alternating chain sum per
    path, on the masks whose constraint point the path meets."""
    n, r = m.n, m.r
    length = n - r - 1
    if r == 0 or r - 1 > length:
        return 0
    table = m.ensure_rank_table()
    corank = popcounts(n) - table
    total = 0
    for steps in combinations(range(length), r - 1):
        d_at = np.array([sum(s < min(x, length) for s in steps) for x in range(n - r + 1)])[corank]
        good = d_at < table if mode is Mode.BELOW else d_at >= table
        total += int(alternating_chain_sum(n, good))
    return (-1 if mode is Mode.BELOW and n % 2 == 0 else 1) * total


@pytest.mark.parametrize("corpus_args", [args for args, _ in CROSS_ROUTE_CORPORA])
def test_set_routes_match_the_per_path_sum_n13_to_n16(corpus_args):
    set_inputs = SET_ROUTE_INPUTS.get(corpus_args)
    for i, spec in enumerate(generate_corpus(*corpus_args)):
        if set_inputs is not None and i not in set_inputs:
            continue
        m = matroid_from_spec(spec).matroid
        for variant, mode in ((Variant.INWARD_SETS, Mode.BELOW), (Variant.OUTWARD_SETS, Mode.ABOVE)):
            assert covalue(m, variant).covalue == _sets_by_path(m, mode), (spec["id"], mode)


# (record-sets, record-flats) distinct masks asked of is_crowding_record
# per input of the all-routes9 corpus (closure, n = 9, seed 2), each route
# on a fresh matroid; None where record-flats does not apply (loops).
# The routes ask it at E, and `crowding_records` at the ties best(t) =
# c(t) among the members that admit a path prefix; every other verdict is
# read off the record arrays.
RECORD_SCANS = [
    (0, 0), (1, 1), (0, None), (1, 1), (0, 0), (1, 1), (1, None), (4, None), (1, 1), (0, 0),
    (1, None), (0, 0), (1, 1), (1, 1), (63, None), (1, 1), (0, 0), (0, 0), (0, 0), (1, None),
    (1, 1), (1, 1), (0, 0), (2, None), (0, 0), (0, 0), (0, 0), (1, 1), (0, 0), (0, 0),
]


def test_record_routes_scan_only_reachable_members(monkeypatch):
    asked = set()

    def counted(matroid, mask):
        asked.add(mask)
        return is_crowding_record(matroid, mask)

    monkeypatch.setattr(chainsums, "is_crowding_record", counted)
    monkeypatch.setattr("omegacalc.crowding.is_crowding_record", counted)
    scans = []
    for spec in generate_corpus("closure", 30, 2, 9):
        row = []
        for variant in (Variant.RECORD_SETS, Variant.RECORD_FLATS):
            m = matroid_from_spec(spec).matroid
            asked.clear()
            try:
                covalue(m, variant)
            except VariantInapplicable:
                row.append(None)
                continue
            stress, best = record_arrays(m)
            assert all(t == m.full_mask or stress[t] == best[t] for t in asked), spec["id"]
            row.append(len(asked))
        scans.append(tuple(row))
    assert scans == RECORD_SCANS


# -- brute-force chain oracle for the eight chain-sum routes ----------------


def _chains_between(members, lo, hi):
    """Every chain lo < t_1 < ... < t_k < hi of members, as (t_1, ..., t_k)."""
    inner = [t for t in members if t not in (lo, hi) and lo & ~t == 0 and t & ~hi == 0]
    above = {t: [u for u in inner if u != t and t & ~u == 0] for t in [lo] + inner}
    out = []
    stack = [((), lo)]
    while stack:
        prefix, last = stack.pop()
        out.append(prefix)
        stack.extend((prefix + (t,), t) for t in above[last])
    return out


def _admits_prefix(m, t, mode):
    """Some path prefix of min(x, L) steps meets t's own bound."""
    length, top = m.n - m.r - 1, m.r - 1
    if m.r == 0 or top > length:
        return False
    rk = m.rank(t)
    column = min(popcount(t) - rk, length)
    return any(d < rk if mode is Mode.BELOW else d >= rk for d in range(min(column, top) + 1))


def _oracle(m, terms, mode):
    """(sum of sign times the brute path count, number of chains whose every
    constrained member admits a path prefix) over (sign, members) terms."""
    total = chains = 0
    members = {}  # member -> (its constraint, whether it admits a prefix)
    brute = {}  # member tuple -> brute-force path count
    for sign, constrained in terms:
        key = tuple(constrained)
        if key not in brute:
            for t in key:
                if t not in members:
                    rk = m.rank(t)
                    point = PathConstraint(popcount(t) - rk, rk, mode)
                    members[t] = (point, _admits_prefix(m, t, mode))
            points = tuple(members[t][0] for t in key)
            brute[key] = count_paths_brute(PathProblem(m.n, m.r, points))
        total += sign * brute[key]
        chains += all(members[t][1] for t in constrained)
    return total, chains


def _oracle_poset(m, poset, mode=Mode.ABOVE, weight=None):
    full = m.full_mask
    if 0 not in poset or full not in poset:
        return 0, 0
    terms = []
    for chain in _chains_between(poset, 0, full):
        sign = -1 if len(chain) % 2 else 1
        if weight is not None:
            links = (0,) + chain + (full,)
            sign = -sign
            for lo, hi in zip(links, links[1:]):
                sign *= weight(lo, hi)
        terms.append((sign, chain))
    return _oracle(m, terms, mode)


def _hall_mobius(flats):
    """mu(s, t) by Philip Hall: the alternating count of chains from s to t."""
    cache = {}

    def mu(s, t):
        if (s, t) not in cache:
            cache[s, t] = 1 if s == t else sum(
                -1 if len(c) % 2 == 0 else 1 for c in _chains_between(flats, s, t)
            )
        return cache[s, t]

    return mu


def _oracle_final(m, universe):
    full = m.full_mask
    records = [t for t in universe if crowding(m, t) >= 0 and is_crowding_record(m, t)]
    if full not in records:
        return 0, 0

    crowd = {t: crowding(m, t) for t in records}
    zero = {t: zero_part(m, t) for t in records}

    def comps(t):
        return m.component_count(t) if t else 0

    def admissible(h):
        steps = zip(h, h[1:])
        return crowd[h[0]] == 0 and all(
            crowd[b] > crowd[a] and zero[b] & ~zero[a] == 0 for a, b in steps
        )

    terms = []
    for chain in _chains_between(records, 0, full):
        # read the chain once from H_0 = 0 and once from H_0 = its first member
        for h in ((0,) + chain + (full,), chain + (full,)):
            if h[0] in records and admissible(h):
                sign = -1 if (comps(h[0]) + len(h) - 2) % 2 else 1
                terms.append((sign, [t for t in h if t not in (0, full)]))
    return _oracle(m, terms, Mode.ABOVE)


def _oracle_routes(m):
    sets = marked(crowded_sets(m))
    out = {
        Variant.CROWDED_SETS: _oracle_poset(m, sets),
        Variant.RECORD_SETS: _oracle_poset(m, [t for t in sets if is_crowding_record(m, t)]),
        Variant.FINAL_SETS: _oracle_final(m, sets),
    }
    if m.has_loops():
        return out
    flats = all_flats(flat_lattice(m))
    cflats = marked(crowded_flats(m))
    out[Variant.CROWDED_FLATS] = _oracle_poset(m, cflats)
    out[Variant.RECORD_FLATS] = _oracle_poset(m, [t for t in cflats if is_crowding_record(m, t)])
    out[Variant.OUTWARD_FLATS] = _oracle_poset(m, flats)
    out[Variant.INWARD_FLATS] = _oracle_poset(m, flats, Mode.BELOW, _hall_mobius(flats))
    out[Variant.FINAL_FLATS] = _oracle_final(m, flats)
    return out


def _oracle_matroids():
    rng = random.Random(4711)
    found = [random_derived_matroid(rng, 7) for _ in range(170)]
    found += [random_schubert(rng, rng.randint(3, 7)) for _ in range(20)]
    for seed in (8, 9):
        found += [matroid_from_spec(spec).matroid for spec in generate_corpus("closure", 10, seed, 6)]
    found += [
        uniform(4, 6),  # r - 1 > n - r - 1: no path exists
        uniform(3, 7),
        uniform(2, 4).direct_sum(uniform(1, 1)),  # a coloop
        uniform(2, 4).direct_sum(uniform(0, 1)),  # a loop
        uniform(1, 3).direct_sum(uniform(1, 3)),
        schubert_lower(7, (0b11, 0b1111111), (0, 1, 3)),
    ]
    return found


def test_kernel_matches_brute_force_chain_oracle():
    matroids = _oracle_matroids()
    assert len(matroids) >= 200
    assert any(m.has_loops() for m in matroids)
    assert any(m.rank(m.full_mask & ~(1 << e)) == m.r - 1
               for m in matroids for e in range(m.n))  # a coloop
    assert any(m.component_count() > 1 for m in matroids)
    assert any(m.r - 1 > m.n - m.r - 1 for m in matroids)
    for m in matroids:
        assert m.n <= 7
        for variant, expected in _oracle_routes(m).items():
            run = covalue(m, variant)
            assert (run.covalue, run.chains) == expected, (m, variant)
