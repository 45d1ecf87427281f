import random
from collections import Counter
from math import comb
from pathlib import Path

import pytest

from helpers import (
    flats_by_rank,
    is_connected_by_definition,
    loops_of,
    middle_omega,
    omega_of,
    proper_crowding,
    random_derived_matroid,
    random_simple_matroid,
)
from omegacalc import closedform
from omegacalc.bitops import mask_of, popcount
from omegacalc.chainsums import Variant, omega_by_variant
from omegacalc.cli import main
from omegacalc.closedform import omega_closed_form
from omegacalc.corpus import generate_corpus, random_schubert
from omegacalc.crowding import crowded_flats, has_overcrowded_set
from omegacalc.engine import compute_omega
from omegacalc.errors import OmegacalcError
from omegacalc.lattice import flat_lattice
from omegacalc.matroid import from_bases, schubert_lower, uniform
from omegacalc.specfile import matroid_from_spec


def test_uniform_values():
    assert omega_closed_form(uniform(2, 6)) == 3
    assert omega_closed_form(uniform(3, 6)) == 1
    assert omega_closed_form(uniform(2, 5)) == 2
    assert omega_closed_form(uniform(4, 10)) == comb(5, 3)


def test_vanishing_rules():
    assert omega_closed_form(uniform(3, 5)) == 0  # n < 2r
    assert omega_closed_form(from_bases(2, [0b10])) == 0  # loop
    assert omega_closed_form(uniform(1, 1)) == 0  # singleton coloop
    assert omega_closed_form(uniform(2, 3).direct_sum(uniform(1, 1))) == 0


def test_rank_one():
    assert omega_closed_form(uniform(1, 2)) == 1
    assert omega_closed_form(uniform(1, 7)) == 1


def test_rank_two_with_parallels():
    m = uniform(2, 6)
    for _ in range(3):
        m = m.parallel_extend(1)
    assert omega_closed_form(m) == 3
    assert omega_of(m) == 3


def test_rank_three_formula_and_zero_family():
    # a rank-2 flat holding all but two points forces the value to zero
    n = 7
    chain = (mask_of(range(n - 2)), mask_of(range(n)))
    m = schubert_lower(n, chain, (0, 2, 3))
    assert m.rank(chain[0]) == 2 and popcount(chain[0]) == n - 2
    assert omega_closed_form(m) == 0
    assert omega_of(m) == 0


def test_rank_three_nonnegative_with_characterization():
    rng = random.Random(99)
    seen = 0
    while seen < 40:
        n = rng.randint(6, 9)
        m = random_simple_matroid(rng, n, 3)
        if m is None:
            continue
        seen += 1
        value = omega_closed_form(m)
        assert value is not None and value >= 0
        assert value == omega_of(m)
        if value == 0:
            simple = m.simplify()
            iso_u35 = simple.n == 5 and len(simple.bases) == comb(5, 3)
            lat = flat_lattice(simple)
            big_line = any(
                popcount(f) >= simple.n - 2 for f in flats_by_rank(lat)[2]
            )
            assert iso_u35 or big_line, m


def test_rank_four_integrality_and_agreement():
    rng = random.Random(41)
    seen = 0
    while seen < 25:
        n = rng.randint(8, 10)
        m = random_simple_matroid(rng, n, 4)
        if m is None:
            continue
        seen += 1
        value = omega_closed_form(m)
        assert value is not None
        assert value == omega_of(m), m


def test_low_rank_formulas_match_the_recorded_bytes(tmp_path, monkeypatch):
    # low_rank_corpus.jsonl: generate_corpus("schubert", 40, 7, 16, 4),
    # ("schubert", 40, 8, 16, 3) and ("closure", 50, 1, 12); `auto` reaches
    # the rank 4 formula 9 times, rank 3 11 times and rank 2 twice, and its
    # JSON output must stay byte-identical
    reached = Counter()
    low_rank = closedform._low_rank

    def counted(matroid):
        reached[matroid.simplify().r] += 1
        return low_rank(matroid)

    monkeypatch.setattr(closedform, "_low_rank", counted)
    data = Path(__file__).resolve().parent / "data"
    out = tmp_path / "auto.jsonl"
    argv = ["compute", "-i", str(data / "low_rank_corpus.jsonl"), "--method", "auto"]
    assert main(argv + ["--format", "json", "--jobs", "1", "--out", str(out)]) == 0
    assert out.read_bytes() == (data / "low_rank_auto.jsonl").read_bytes()
    assert reached == {2: 2, 3: 11, 4: 9}


def test_middle_zero_one():
    # n = 2r: value is 0 or 1, and on connected loop-free inputs the
    # paper's criterion, which the dispatcher has no rule for
    rng = random.Random(4242)
    seen = []
    for _ in range(30):
        r = rng.randint(1, 5)
        m = random_schubert(rng, 2 * r, r)
        value = omega_closed_form(m)
        assert value in (0, 1)
        assert value == omega_of(m)
    for _ in range(60):
        r = rng.randint(1, 5)
        m = random_schubert(rng, 2 * r, r, loop_free=True)
        if not loops_of(m) and is_connected_by_definition(m):
            assert omega_closed_form(m) == middle_omega(m), m
            seen.append(middle_omega(m))
    assert len(seen) >= 20 and set(seen) == {0, 1}


def test_overcrowded_rule_sees_connected_loop_free_inputs_only(monkeypatch):
    # the lemma behind the missing rank-1 and n = 2r rules and the missing
    # positivity check at n = 2r + 1: where the dispatcher asks for an
    # overcrowded set, M is connected and loop-free, so no set is
    # overcrowded iff every nonempty proper T has c(T) < c(E) = n - 2r
    from omegacalc import closedform

    calls = []

    def spy(m):
        verdict = has_overcrowded_set(m)
        calls.append((m, verdict))
        return verdict

    monkeypatch.setattr(closedform, "has_overcrowded_set", spy)
    rng = random.Random(31)
    matroids = [random_derived_matroid(rng, 10) for _ in range(300)]
    matroids += [
        random_schubert(rng, 2 * r + k, r, loop_free=True)
        for r in range(1, 7)
        for k in (0, 1, 2)
        for _ in range(10)
    ]
    for m in matroids:
        omega_closed_form(m)
    for m, verdict in calls:
        assert not loops_of(m) and is_connected_by_definition(m), m
        assert verdict == (max(proper_crowding(m)) >= m.n - 2 * m.r), m
    assert len(calls) >= 50 and {verdict for _, verdict in calls} == {True, False}
    middle = [verdict for m, verdict in calls if m.n == 2 * m.r]
    assert len(middle) >= 10 and all(middle)  # without an overcrowded set the binomial decided
    assert sum(not v and m.n == 2 * m.r + 1 for m, v in calls) >= 10


def test_product_rule_with_an_unknown_component():
    # a component without a closed form leaves the product unknown unless
    # another component gives 0, in either order of the components
    unknown = matroid_from_spec(generate_corpus("schubert", 5, 2, 12, 5)[1]).matroid
    assert omega_closed_form(unknown) is None
    assert omega_of(unknown) == 6
    for other, closed in ((uniform(1, 2), None), (uniform(2, 3), 0)):
        for m in (unknown.direct_sum(other), other.direct_sum(unknown)):
            assert len(m.connected_components()) == 2
            assert omega_closed_form(m) == closed, (other, m)
            (result,) = compute_omega(m, "auto").results
            expected = ("final-flats", 6) if closed is None else ("closed", 0)
            assert (result.method, result.omega) == expected, (other, m)


def test_middle_plus_one_cases():
    # pairwise-covering minimal crowded sets: a pinned stress-0 flat
    m = schubert_lower(11, (mask_of(range(4)), mask_of(range(11))), (0, 2, 5))
    assert omega_closed_form(m) == 2
    assert omega_of(m) == 2
    # pairwise-disjoint minimal crowded sets: parallel pairs
    m2 = uniform(5, 6)
    for e in range(5):
        m2 = m2.parallel_extend(e)
    assert (m2.n, m2.r) == (11, 5)
    assert omega_closed_form(m2) == 0
    assert omega_of(m2) == 0
    # the all-subsets-uniform case: value r
    assert omega_closed_form(uniform(5, 11)) == 5


def test_bounds_near_middle():
    rng = random.Random(77)
    for _ in range(25):
        r = rng.randint(1, 5)
        m = random_schubert(rng, 2 * r + 1, r)
        value = omega_of(m)
        assert 0 <= value <= r, m
        cf = omega_closed_form(m)
        assert cf is None or cf == value


def test_multiplicativity():
    rng = random.Random(2718)
    for _ in range(25):
        a = random_schubert(rng, rng.randint(2, 6))
        b = random_schubert(rng, rng.randint(2, 6))
        left = omega_of(a.direct_sum(b))
        right = omega_of(a) * omega_of(b)
        assert left == right


def test_parallel_extension_invariance():
    rng = random.Random(1618)
    for _ in range(25):
        m = random_schubert(rng, rng.randint(2, 8))
        non_loops = [e for e in range(m.n) if m.rank(1 << e) == 1]
        if not non_loops or m.n >= 12:
            continue
        extended = m.parallel_extend(rng.choice(non_loops))
        assert omega_of(m) == omega_of(extended)


@pytest.mark.parametrize(
    "minimal, message",
    [
        ([0b1], "at least two"),
        ([0b011, 0b110, 0b101], "disjoint or pairwise covering"),
        ([0b00000111111, 0b11111110000], "odd in number"),
    ],
)
def test_near_middle_dichotomy_errors(monkeypatch, minimal, message):
    # a broken dichotomy is a typed error, not an assert that python -O drops
    from omegacalc import closedform

    monkeypatch.setattr(closedform, "minimal_crowded_sets", lambda m: minimal)
    with pytest.raises(OmegacalcError, match=message):
        closedform._near_middle(uniform(5, 11))


_LOOP = from_bases(1, [0])
# n = 13 to 16: closure n = 16 seed 2, Schubert n = 16 at r = 8 seed 1 and
# r = 5 seed 94, closure n = 13 seed 3
_LEMMA_CORPORA = {
    "closure-16-s2": ("closure", 3, 2, 16),
    "schubert-16-r8-s1": ("schubert", 1, 1, 16, 8),
    "schubert-16-r5-s94": ("schubert", 3, 94, 16, 5),
    "closure-13-s3": ("closure", 6, 3, 13),
}


@pytest.mark.parametrize("corpus_args", _LEMMA_CORPORA.values(), ids=_LEMMA_CORPORA.keys())
def test_proper_crowded_flat_test_reads_the_rank_table(corpus_args):
    # the lemma of `_has_proper_crowded_flat`: some flat other than 0 and E
    # is crowded iff some nonempty S with r(S) < r is; it needs no
    # loop-freeness, so each input is also taken with its last element
    # swapped for a loop, and with its dual and the restrictions to the
    # components of each
    seen = Counter()
    for spec in generate_corpus(*corpus_args):
        m = matroid_from_spec(spec).matroid
        looped = m.delete(1 << (m.n - 1)).direct_sum(_LOOP)
        for whole in (m, m.dual(), looped, looped.dual()):
            parts = [whole.restrict(comp) for comp in whole.connected_components()]
            for part in [whole, *parts]:
                expected = bool(crowded_flats(part)[1 : part.full_mask].any())
                assert closedform._has_proper_crowded_flat(part) == expected, (spec["id"], part)
                seen[expected, part.has_loops()] += 1
    # both answers, and a crowded proper flat made of loops
    assert seen[True, False] and seen[False, False] and seen[True, True]
