import json
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from helpers import BAD_FIELD_SPECS, scaled_point
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from omegacalc.bitops import elements_of, mask_of
from omegacalc.corpus import generate_corpus
from omegacalc.errors import SpecFileError
from omegacalc.matroid import schubert_lower, uniform
from omegacalc.specfile import (
    load_matroid_file,
    load_points_file,
    matroid_from_spec,
    spec_to_json,
)


def test_uniform_spec():
    loaded = matroid_from_spec({"kind": "uniform", "n": 5, "r": 2, "id": "u25"})
    assert loaded.matroid.bases == uniform(2, 5).bases
    assert loaded.matroid_id == "u25"


def test_bases_spec_validates():
    spec = {"kind": "bases", "n": 4, "bases": [[0, 1], [2, 3]]}
    with pytest.raises(SpecFileError):
        matroid_from_spec(spec)


def test_schubert_lower_spec_carries_formula_data():
    spec = {
        "kind": "schubert_lower",
        "n": 10,
        "chain": [[0, 1], list(range(7)), list(range(10))],
        "profile": [0, 1, 3, 4],
    }
    loaded = matroid_from_spec(spec)
    assert loaded.schubert is not None
    n, chain, profile = loaded.schubert
    assert (n, profile) == (10, (0, 1, 3, 4))
    assert chain == (mask_of(range(2)), mask_of(range(7)), mask_of(range(10)))


def test_schubert_upper_spec_reverses_data():
    spec = {
        "kind": "schubert_upper",
        "n": 4,
        "chain": [[0], [0, 1, 2, 3]],
        "profile": [0, 1, 2],
    }
    loaded = matroid_from_spec(spec)
    n, chain, profile = loaded.schubert
    # reversed-complemented presentation is a lower description of the same matroid
    assert loaded.matroid.bases == schubert_lower(n, chain, profile).bases


def test_schubert_order_spec():
    from omegacalc.engine import compute_omega

    spec = {"kind": "schubert_order", "n": 5, "order": [4, 3, 2, 1, 0], "set": [1, 3]}
    loaded = matroid_from_spec(spec)
    assert loaded.matroid.r == 2
    assert loaded.schubert is not None
    rep = compute_omega(loaded.matroid, "all", "order-spec", loaded.schubert)
    assert rep.agree


def test_nested_kinds():
    spec = {
        "kind": "dual",
        "of": {
            "kind": "delete",
            "set": [5],
            "of": {"kind": "uniform", "n": 6, "r": 2},
        },
    }
    loaded = matroid_from_spec(spec)
    assert loaded.matroid.bases == uniform(3, 5).bases


def test_direct_sum_spec():
    spec = {
        "kind": "direct_sum",
        "parts": [{"kind": "uniform", "n": 2, "r": 1}, {"kind": "uniform", "n": 3, "r": 2}],
    }
    loaded = matroid_from_spec(spec)
    assert loaded.matroid.n == 5
    assert loaded.matroid.component_count() == 2


def test_unknown_kind_rejected():
    with pytest.raises(SpecFileError):
        matroid_from_spec({"kind": "mystery", "n": 3})


def test_file_roundtrip_single_and_corpus(tmp_path):
    single = tmp_path / "one.json"
    single.write_text(json.dumps({"kind": "uniform", "n": 4, "r": 2}))
    loaded = load_matroid_file(single)
    assert len(loaded) == 1 and loaded[0].matroid_id == "one"

    corpus = tmp_path / "many.jsonl"
    lines = [
        spec_to_json({"kind": "uniform", "n": 4, "r": 2, "id": "a"}),
        spec_to_json({"kind": "uniform", "n": 5, "r": 2, "id": "b"}),
    ]
    corpus.write_text("\n".join(lines) + "\n")
    loaded = load_matroid_file(corpus)
    assert [l.matroid_id for l in loaded] == ["a", "b"]


def test_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecFileError):
        load_matroid_file(bad)


def test_points_file(tmp_path):
    path = tmp_path / "pts.json"
    path.write_text(json.dumps([[[1, 2], [1, 2]], [[1, 1], [0, 1]]]))
    # each point as its row (D, W): x_e = W_e / D
    assert load_points_file(path) == [(2, (1, 1)), (1, (1, 0))]
    bad = tmp_path / "badpts.json"
    bad.write_text(json.dumps([[[1, 0]]]))
    with pytest.raises(SpecFileError):
        load_points_file(bad)


def test_points_file_rows_are_the_fraction_rows(tmp_path):
    # the loader builds each row from the integer pairs; the reference
    # reduces every pair to a Fraction first.  Pairs in other than lowest
    # terms, with negative denominators, zeros and 2^80-sized entries
    rng = random.Random(5)

    def entry():
        size = rng.choice([4, 12, 80])
        value = rng.randint(-(1 << size), 1 << size) * rng.choice([1, 1, 6, -4])
        return value or rng.choice([1, -1])

    rows = [
        [[rng.choice([0, entry()]), entry()] for _ in range(rng.randint(1, 6))]
        for _ in range(3000)
    ]
    assert sum(map(len, rows)) >= 10_000
    path = tmp_path / "pts.json"
    path.write_text(json.dumps(rows))
    expected = [scaled_point(tuple(Fraction(num, den) for num, den in row)) for row in rows]
    assert load_points_file(path) == expected


def test_points_file_rejects_bools(tmp_path):
    for row in ([[True, 2], [1, 2]], [[1, 2], [1, False]], [[1, True]]):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps([row]))
        with pytest.raises(SpecFileError):
            load_points_file(path)


@pytest.mark.parametrize("spec", BAD_FIELD_SPECS.values(), ids=BAD_FIELD_SPECS.keys())
def test_wrongly_typed_fields_rejected(spec):
    with pytest.raises(SpecFileError):
        matroid_from_spec(spec)


def test_bool_rejected_as_integer():
    for spec in (
        {"kind": "uniform", "n": True, "r": 1},
        {"kind": "uniform", "n": 3, "r": True},
        {"kind": "schubert_lower", "n": 2, "chain": [[0, 1]], "profile": [0, True]},
        {"kind": "delete", "set": [False], "of": {"kind": "uniform", "n": 3, "r": 1}},
    ):
        with pytest.raises(SpecFileError):
            matroid_from_spec(spec)


def test_large_bases_specs_validate_fast():
    # input 1 has 5,148 bases on 15 elements: the pairwise exchange scan
    # that used to validate it took minutes
    found = generate_corpus("closure", 4, 7, 15)[1]
    u816 = {"kind": "bases", "n": 16, "bases": [list(c) for c in combinations(range(16), 8)]}
    rng = random.Random(15)
    for spec, count in ((found, 5148), (u816, 12870)):
        start = time.perf_counter()
        m = matroid_from_spec(spec).matroid
        assert time.perf_counter() - start < 10
        assert len(m.bases) == count
        intervals = [mask_of(range(i, i + 8)) for i in range(m.n - 7)]
        for s in [0, m.full_mask, *intervals, *(rng.getrandbits(m.n) for _ in range(60))]:
            assert m.rank(s) == max(bin(b & s).count("1") for b in m.bases), elements_of(s)


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=2),
    st.integers(-3, 40),
    st.lists(st.one_of(st.integers(-2, 20), st.booleans(), st.text(max_size=1)), max_size=3),
)
_KINDS = ["uniform", "bases", "schubert_lower", "schubert_upper", "schubert_order", "mystery"]


def _mostly(good):
    """good three times in four, a junk JSON value otherwise."""
    return st.integers(0, 3).flatmap(lambda i: good if i else _JUNK)


@st.composite
def _leaf(draw):
    """A spec of a base kind, mostly well-typed, sometimes infeasible or invalid."""
    n = draw(_mostly(st.integers(-2, 20)))
    top = n if type(n) is int and n > 0 else 4
    element = st.integers(0, top - 1)
    size = draw(st.integers(0, top))
    order = draw(st.permutations(range(top)))
    cuts = sorted(draw(st.sets(st.integers(1, top), max_size=4)) | {top})
    profile = [0]
    for lo, hi in zip([0, *cuts], cuts):
        profile.append(profile[-1] + draw(st.integers(0, hi - lo + 1)))
    fields = {
        "uniform": {"r": _mostly(st.integers(-1, 20))},
        "bases": {
            "bases": _mostly(
                st.lists(
                    st.lists(element, unique=True, min_size=size, max_size=size),
                    min_size=1,
                    max_size=8,
                )
            )
        },
        "schubert_order": {
            "order": _mostly(st.just(order)),
            "set": _mostly(st.lists(element, unique=True, max_size=top)),
        },
        "mystery": {},
    }
    chain = {
        "chain": _mostly(st.just([sorted(order[:c]) for c in cuts])),
        "profile": _mostly(st.just(profile)),
    }
    fields["schubert_lower"] = fields["schubert_upper"] = chain
    kind = draw(st.sampled_from(_KINDS))
    spec = {"kind": kind, "n": n, **{key: draw(f) for key, f in fields[kind].items()}}
    if draw(st.integers(0, 9)) == 0:
        del spec[draw(st.sampled_from(sorted(spec)))]
    return spec


def _nested(inner):
    subset = _mostly(st.lists(st.integers(0, 16), unique=True, max_size=3))
    parts = st.lists(inner, min_size=1, max_size=3)
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("dual"), "of": _mostly(inner)}),
        st.fixed_dictionaries({"kind": st.just("delete"), "of": _mostly(inner), "set": subset}),
        st.fixed_dictionaries({"kind": st.just("contract"), "of": _mostly(inner), "set": subset}),
        st.fixed_dictionaries({"kind": st.just("direct_sum"), "parts": _mostly(parts)}),
    )


@settings(max_examples=300, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(st.recursive(_leaf(), _nested, max_leaves=6))
def test_fuzzed_specs_load_or_raise_spec_errors(spec):
    # any other exception fails the example; the deadline catches hangs
    try:
        loaded = matroid_from_spec(spec)
    except SpecFileError:
        return
    assert 1 <= loaded.matroid.n <= 16
