import random
from math import comb

import pytest

from omegacalc.bitops import mask_of
from omegacalc.chainsums import (
    Variant,
    covalue,
    omega_by_variant,
    schubert_omega,
)
from omegacalc.corpus import random_derived_matroid
from omegacalc.engine import compute_omega
from omegacalc.errors import Infeasible, VariantInapplicable
from omegacalc.matroid import from_bases, schubert_lower, uniform

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


def test_sets_variants_cap():
    m = uniform(6, 13)
    with pytest.raises(Infeasible):
        covalue(m, Variant.INWARD_SETS)


def test_sets_variants_at_cap_size():
    m = uniform(4, 12)
    expect = comb(7, 3)
    assert omega_by_variant(m, Variant.INWARD_SETS) == expect
    assert omega_by_variant(m, Variant.OUTWARD_SETS) == expect


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


def test_uniform_final_flats_single_chain():
    run = covalue(uniform(5, 12), Variant.FINAL_FLATS)
    assert run.covalue == comb(6, 4)
    assert run.chains == 1


def test_uniform_4_10_all_methods():
    rep = compute_omega(uniform(4, 10), "all", "u410")
    assert rep.agree and rep.consensus == comb(5, 3)
    assert len(rep.results) >= 11  # closed form plus the ten chain sums


def test_flats_variants_agree_above_nine():
    from omegacalc.corpus import random_schubert

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


@pytest.mark.parametrize(
    "corpus_args, top",
    [(("schubert", 4, 1, 13, 5), 35), (("schubert", 3, 94, 16, 5), 25)],
)
def test_cross_route_agreement_n13_to_n16(corpus_args, top):
    # auto, the closed form where one applies and the five flats routes
    # against the Schubert path count, above n = 12
    from omegacalc.chainsums import FLAT_VARIANTS
    from omegacalc.closedform import omega_closed_form
    from omegacalc.corpus import generate_corpus
    from omegacalc.specfile import matroid_from_spec

    values = []
    for spec in generate_corpus(*corpus_args):
        loaded = matroid_from_spec(spec)
        m = loaded.matroid
        expected = schubert_omega(*loaded.schubert)
        values.append(expected)
        assert omega_closed_form(m) in (None, expected), spec["id"]
        methods = ["auto"] + sorted(v.value for v in FLAT_VARIANTS)
        results = compute_omega(m, methods).results
        assert len(results) == 6
        assert all(res.omega == expected for res in results), (spec["id"], results)
    assert max(values) == top
