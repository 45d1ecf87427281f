import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import BAD_FIELD_SPECS, as_fractions, inward_sets_identity
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import omegacalc
from omegacalc import cli, engine, polytopes
from omegacalc.altsum import block_rows
from omegacalc.cli import LIST_CAP, main, worker_count
from omegacalc.corpus import generate_corpus, sample_points
from omegacalc.engine import ALL_METHOD_NAMES, compute_omega
from omegacalc.polytopes import IdentityKind
from omegacalc.specfile import load_matroid_file, load_points_file, matroid_from_spec

EXAMPLE_SPEC = {
    "kind": "schubert_lower",
    "n": 10,
    "chain": [[0, 1], list(range(7)), list(range(10))],
    "profile": [0, 1, 3, 4],
    "id": "schubert-10-4",
}


@pytest.fixture()
def example_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(json.dumps(EXAMPLE_SPEC))
    return str(path)


DATA = Path(__file__).resolve().parent / "data"


def test_compute_all_json_matches_the_recorded_bytes(tmp_path):
    # chains_corpus.jsonl: closure n = 9 (seed 2, 30 inputs) and four
    # Schubert inputs whose kernel routes count more than 10^4 chains: n = 13
    # (r = 4, 34,912 crowded, record and final set chains each), n = 14
    # (r = 3, 2,274,436 each), n = 15 (r = 6, 861,123 inward-flats chains)
    # and n = 16 (r = 3, 22,201,590 crowded-set and 334,982 record chains);
    # no other test checks kernel chain counts above n = 7, and the default
    # JSON output must stay byte-identical
    out = tmp_path / "all.jsonl"
    corpus = str(DATA / "chains_corpus.jsonl")
    argv = ["compute", "-i", corpus, "--method", "all", "--format", "json", "--jobs", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "chains_all.jsonl").read_bytes()


def test_compute_all_json_at_n16_matches_the_recorded_bytes(tmp_path):
    # all_n16.jsonl: every route on the three inputs of Schubert n = 16,
    # r = 5, seed 94 (the auto-n16 corpus) and on closure n = 16, seed 2,
    # input 2 (60,614 crowded sets), about 0.2 s per input.  The Schubert
    # r = 8 inputs, whose inward-flats route takes seconds on its Mobius
    # table, are left out until that route runs on the cube kernel
    specs = generate_corpus("schubert", 3, 94, 16, 5) + generate_corpus("closure", 3, 2, 16)[2:]
    corpus = tmp_path / "n16.jsonl"
    corpus.write_text("".join(json.dumps(spec) + "\n" for spec in specs))
    out = tmp_path / "all.jsonl"
    argv = ["compute", "-i", str(corpus), "--method", "all", "--format", "json", "--jobs", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "all_n16.jsonl").read_bytes()


def test_no_route_or_check_imports_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call (numpy 2.x), which cost a
    # cold run ~16 ms and 1.5 MiB of peak RSS; no route or check needs it
    corpus = DATA / "chains_corpus.jsonl"
    lines = corpus.read_text().splitlines(keepends=True)
    small = tmp_path / "n9.jsonl"
    small.write_text("".join(line for line in lines if '"closure-2-' in line))
    runs = [
        ["compute", "-i", str(corpus), "--method", "all", "--format", "json"],
        ["check-identities", "-i", str(small), "--samples", "20", "--format", "json"],
    ]
    script = "\n".join(
        ["import sys", "from omegacalc.cli import main"]
        + [f"main({argv + ['--jobs', '1', '--out', str(tmp_path / 'out')]!r})" for argv in runs]
        + ["print('numpy.ma' in sys.modules)"]
    )
    src = str(Path(omegacalc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_compute_all_methods_agree(example_file, tmp_path, capsys):
    out = tmp_path / "res.jsonl"
    rc = main(
        ["compute", "-i", example_file, "--method", "all", "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(rec["omega"] == 3 for rec in records)
    assert all(rec["consensus"] == 3 and rec["agree"] for rec in records)
    methods = {rec["method"] for rec in records}
    assert "schubert" in methods and "final-flats" in methods
    assert not any("seconds" in rec for rec in records)


def test_compute_auto(tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"kind": "uniform", "n": 10, "r": 4, "id": "u410"}))
    rc = main(["compute", "-i", str(path), "--method", "auto"])
    assert rc == 0
    assert "consensus=10" in capsys.readouterr().out


def test_compute_loop_matroid_zero(tmp_path, capsys):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"kind": "bases", "n": 2, "bases": [[1]], "id": "loop"}))
    rc = main(["compute", "-i", str(path), "--method", "all"])
    assert rc == 0
    assert "consensus=0" in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["compute", "-i", str(path)]) == 2


@pytest.mark.parametrize("spec", BAD_FIELD_SPECS.values(), ids=BAD_FIELD_SPECS.keys())
def test_wrongly_typed_spec_exits_2(spec, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main(["compute", "-i", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_named_set_route_runs_at_n13(tmp_path, capsys):
    # the set routes have no size cap: exit 3 comes from the identity cap
    # alone (test_check_identities_oversized_exit)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": "uniform", "n": 13, "r": 6}))
    rc = main(["compute", "-i", str(path), "--method", "inward-sets", "--format", "json"])
    assert rc == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(rec["method"], rec["omega"]) for rec in records] == [("inward-sets", 6)]


def test_oversized_ground_set_rejected_before_enumeration(tmp_path):
    # U(20, 40) has ~1.4e11 bases; the cap must be checked before listing them
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"kind": "uniform", "n": 40, "r": 20}))
    src = str(Path(omegacalc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "omegacalc.cli", "compute", "-i", str(path)],
        env=env,
        capture_output=True,
        timeout=10,
    )
    assert proc.returncode == 2, proc.stderr


def test_random_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    args = ["random", "--family", "schubert", "--n", "9", "--r", "4", "--count", "50", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    loaded = load_matroid_file(a)
    assert len(loaded) == 50
    assert all(item.matroid.n == 9 and item.matroid.r == 4 for item in loaded)


def test_random_closure_family_valid(tmp_path):
    out = tmp_path / "c.jsonl"
    rc = main(["random", "--family", "closure", "--n", "7", "--count", "30", "--seed", "3", "--out", str(out)])
    assert rc == 0
    loaded = load_matroid_file(out)  # every spec loads into a validated matroid
    assert len(loaded) == 30


@pytest.mark.parametrize("n", range(1, 17))
def test_random_closure_specs_have_the_requested_size(n):
    # the parallel-extension branch once built its core on max(2, n - 1)
    # elements, so at n = 1 and 2 about one spec in eight had n = 3
    count = 200 if n <= 8 else 20
    for spec in generate_corpus("closure", count, 0, n):
        assert matroid_from_spec(spec).matroid.n == n, spec


def test_random_empty_corpus(tmp_path):
    out = tmp_path / "empty.jsonl"
    rc = main(["random", "--family", "schubert", "--count", "0", "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert out.read_text() == ""


@pytest.mark.parametrize("target", ["missing-dir", "a-dir"])
@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--method", "auto"],
        ["check-identities", "--samples", "2"],
        ["random", "--family", "closure", "--n", "5", "--count", "2", "--seed", "1"],
        ["bench", "--methods", "auto"],
    ],
    ids=["compute", "check-identities", "random", "bench"],
)
def test_unwritable_out_exits_2(argv, target, example_file, tmp_path, capsys, monkeypatch):
    # rejected before any input is read or any work starts, and nothing is
    # created or truncated
    for work in ("load_matroid_file", "compute_omega", "check_identities", "generate_corpus"):
        monkeypatch.setattr(cli, work, _never)
    out = tmp_path / "no-such-dir" / "out.txt" if target == "missing-dir" else tmp_path
    if argv[0] != "random":
        argv = [*argv, "-i", example_file]
    before = sorted(tmp_path.rglob("*"))
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("target", ["missing-dir", "a-dir"])
def test_out_that_fails_after_the_work_still_exits_2(target, example_file, tmp_path, capsys, monkeypatch):
    # the early check passes (the target is free when main starts), and the
    # write itself fails: the late OSError handler still maps it to exit 2
    out = tmp_path / "late" / "out.txt"
    out.parent.mkdir()
    compute_omega = cli.compute_omega

    def then_break_the_target(*args, **kwargs):
        if target == "missing-dir":
            out.parent.rmdir()
        else:
            out.mkdir(exist_ok=True)
        return compute_omega(*args, **kwargs)

    monkeypatch.setattr(cli, "compute_omega", then_break_the_target)
    assert main(["compute", "-i", example_file, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


def _exit_code(argv):
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _never(*args, **kwargs):
    """Stands in for the work that a rejected argument must never start."""
    raise AssertionError("work started")


@pytest.mark.parametrize(
    "flags",
    [
        ["--family", "schubert", "--n", "17", "--count", "2"],
        ["--family", "schubert", "--n", "0", "--count", "2"],
        ["--family", "schubert", "--n", "8", "--r", "20", "--count", "2"],
        ["--family", "closure", "--n", "0", "--count", "2"],
        ["--family", "closure", "--n", "17", "--count", "2"],
        ["--family", "closure", "--n", "6", "--count", "-1"],
        ["--family", "closure", "--n", "6", "--count", str(LIST_CAP + 1)],
        ["--family", "schubert", "--n", "6", "--count", str(10**30)],
    ],
    ids=[
        "schubert-n17", "schubert-n0", "schubert-r20", "closure-n0", "closure-n17", "count-neg",
        "count-cap+1", "count-1e30",
    ],
)
def test_random_bad_arguments_exit_2(flags, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "generate_corpus", _never)
    out = tmp_path / "never.jsonl"
    assert _exit_code(["random", *flags, "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1, err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["check-identities", "--samples", "-5"],
        ["check-identities", "--jobs", "0"],
        ["check-identities", "--jobs", "-2"],
        ["compute", "--jobs", "0"],
        ["compute", "--jobs", "-2"],
        ["check-identities", "--samples", str(LIST_CAP + 1)],
        ["check-identities", "--samples", str(10**30)],
    ],
    ids=[
        "samples-neg", "identities-jobs0", "identities-jobs-neg", "compute-jobs0",
        "compute-jobs-neg", "samples-cap+1", "samples-1e30",
    ],
)
def test_bad_samples_and_jobs_exit_2(argv, example_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_load_inputs", _never)
    monkeypatch.setattr(cli, "sample_points", _never)
    assert _exit_code([*argv, "-i", example_file]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_list_sizes_at_cap_are_accepted(monkeypatch, capsys):
    # the cap itself parses, and --help states it; nothing is built here
    counts = []

    def generate_corpus(family, count, *rest):
        counts.append(count)
        return []

    monkeypatch.setattr(cli, "generate_corpus", generate_corpus)
    monkeypatch.setattr(cli, "_load_inputs", lambda paths: [])
    assert main(["random", "--family", "closure", "--seed", "1", "--count", str(LIST_CAP)]) == 0
    assert main(["check-identities", "-i", "unread.json", "--samples", str(LIST_CAP)]) == 0
    assert counts == [LIST_CAP]
    for command in ("random", "check-identities"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert f"at most {LIST_CAP}" in capsys.readouterr().out


def test_worker_count_clamps_to_inputs_and_cpus():
    # computed only: no pool is started here
    cpus = os.cpu_count() or 1
    assert worker_count(1, 50) == 1
    assert worker_count(2, 2) == min(2, cpus)
    assert worker_count(10**6, 3) == min(3, cpus)
    assert worker_count(10**6, 10**6) == cpus
    assert worker_count(4, 1) == 1
    assert worker_count(4, 0) == 1


def test_check_identities_clean(tmp_path, capsys):
    path = tmp_path / "u25.json"
    path.write_text(json.dumps({"kind": "uniform", "n": 5, "r": 2, "id": "u25"}))
    rc = main(["check-identities", "-i", str(path), "--samples", "40", "--seed", "42"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 failures" in out and "MISMATCH" not in out


def test_check_identities_points_file(tmp_path, capsys):
    spec = tmp_path / "u12.json"
    spec.write_text(json.dumps({"kind": "uniform", "n": 2, "r": 1, "id": "u12"}))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[[1, 2], [1, 2]], [[0, 1], [1, 1]]]))
    rc = main(["check-identities", "-i", str(spec), "--points", str(pts)])
    assert rc == 0


def test_check_identities_malformed_points(tmp_path):
    spec = tmp_path / "u12.json"
    spec.write_text(json.dumps({"kind": "uniform", "n": 2, "r": 1}))
    pts = tmp_path / "pts.json"
    pts.write_text("[[[1]]]")
    assert main(["check-identities", "-i", str(spec), "--points", str(pts)]) == 2


# an integer of more than sys.get_int_max_str_digits() (4,300) digits makes
# json.loads raise a plain ValueError, and bytes that are not UTF-8 make
# read_text raise one; nesting deeper than the stack makes json.loads, or
# the spec builder on a spec JSON still parses, raise a RecursionError
_HUGE = "9" * 5000
_U13 = json.dumps({"kind": "uniform", "n": 3, "r": 1})
_DUALS_600 = '{"kind": "dual", "of": ' * 600 + _U13 + "}" * 600
_JSON_2000 = '{"kind": "dual", "of": ' * 2000 + _U13 + "}" * 2000
_POINTS_100000 = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "spec_text, points_text",
    [
        (f'{{"kind": "uniform", "n": {_HUGE}, "r": 1}}', None),
        (f'{_U13}\n{{"kind": "uniform", "n": 3, "r": {_HUGE}}}\n', None),
        (_U13, f"[[[{_HUGE}, 1], [0, 1], [0, 1]]]"),
        (b"\xff\xfe{}", None),
        (_U13, b"\xff\xfe[]"),
        (_DUALS_600, None),
        (_JSON_2000, None),
        (_U13, _POINTS_100000),
    ],
    ids=[
        "spec", "corpus-line", "points", "spec-not-utf8", "points-not-utf8",
        "spec-600-duals", "spec-2000-levels", "points-100000-levels",
    ],
)
def test_unreadable_input_files_exit_2(spec_text, points_text, tmp_path, capsys):
    def write(name, text):
        path = tmp_path / name
        (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
        return str(path)

    argv = ["check-identities", "-i", write("in.json", spec_text), "--samples", "1"]
    if points_text is not None:
        argv += ["--points", write("pts.json", points_text)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_check_identities_wrong_dimension_points_exit_2(tmp_path, capsys):
    spec = tmp_path / "u48.json"
    spec.write_text(json.dumps({"kind": "uniform", "n": 8, "r": 4, "id": "u48"}))
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[[1, 2], [1, 2]]]))
    assert main(["check-identities", "-i", str(spec), "--points", str(pts)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "u48" in captured.err
    assert captured.out == ""


def test_check_identities_one_element_ground_set(tmp_path, capsys):
    path = tmp_path / "u11.json"
    path.write_text(json.dumps({"kind": "uniform", "n": 1, "r": 1, "id": "u11"}))
    rc = main(["check-identities", "-i", str(path), "--samples", "20"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("21 points, 0 failures") == 4


def test_unknown_method_exit_code(tmp_path):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"kind": "uniform", "n": 4, "r": 2}))
    assert main(["compute", "-i", str(path), "--method", "mystery"]) == 2


def test_check_identities_loopy_sets_only(tmp_path, capsys):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"kind": "bases", "n": 2, "bases": [[1]], "id": "loopy"}))
    rc = main(["check-identities", "-i", str(path), "--samples", "10", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "set identities only" in out
    assert "inner-flats" not in out


def test_check_identities_oversized_exit(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": "uniform", "n": 13, "r": 2}))
    assert main(["check-identities", "-i", str(path), "--samples", "1"]) == 3


def test_bench_standard_corpus(capsys):
    rc = main(["bench"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final-flats" in out
    assert "cancellation" in out


def test_compute_timings_flag(tmp_path):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"kind": "uniform", "n": 5, "r": 2, "id": "u"}))
    out = tmp_path / "res.jsonl"
    rc = main(["compute", "-i", str(path), "--method", "final-flats", "--format", "json",
               "--timings", "--out", str(out)])
    assert rc == 0
    rec = json.loads(out.read_text().splitlines()[0])
    assert "seconds" in rec and rec["omega"] == 2


def test_json_list_corpus_file(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([
        {"kind": "uniform", "n": 4, "r": 2, "id": "a"},
        {"kind": "uniform", "n": 5, "r": 2, "id": "b"},
    ]))
    loaded = load_matroid_file(path)
    assert [item.matroid_id for item in loaded] == ["a", "b"]


def test_compute_jobs_matches_serial(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    assert main(["random", "--family", "schubert", "--n", "7", "--count", "6", "--seed", "11", "--out", str(corpus)]) == 0
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    base = ["compute", "-i", str(corpus), "--method", "all", "--format", "json"]
    assert main(base + ["--out", str(serial)]) in (0, 1)
    assert main(base + ["--jobs", "3", "--out", str(parallel)]) in (0, 1)
    assert serial.read_bytes() == parallel.read_bytes()


SCHUBERT_13 = {
    "kind": "schubert_lower",
    "n": 13,
    "chain": [[0, 1, 2], list(range(8)), list(range(13))],
    "profile": [0, 1, 3, 4],
    "id": "schubert-13-4",
}


@pytest.fixture()
def schubert13_file(tmp_path):
    path = tmp_path / "s13.json"
    path.write_text(json.dumps(SCHUBERT_13))
    return str(path)


def test_bench_at_n13_shows_every_chain_sum_route(schubert13_file, capsys):
    # no route is capped: all ten chain sums run at n = 13
    assert main(["bench", "-i", schubert13_file, "--format", "json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [rec["method"] for rec in records] == [v.value for v in omegacalc.Variant]
    assert {rec["omega"] for rec in records} == {19}


def test_bench_named_set_route_at_n13_exits_0(schubert13_file, capsys):
    # a set route named at n = 13 runs like any other
    assert main(["bench", "-i", schubert13_file, "--methods", "inward-sets", "--format", "json"]) == 0
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert [(rec["method"], rec["omega"]) for rec in records] == [("inward-sets", 19)]
    assert captured.err == ""


def _no_route(monkeypatch):
    """Every route of the engine fails the test if it starts."""
    for route in ("_run", "omega_closed_form", "covalue", "schubert_omega"):
        monkeypatch.setattr(engine, route, _never)


def test_bench_unknown_method_exits_2(schubert13_file, capsys, monkeypatch):
    # the whole list is checked before the first route runs
    _no_route(monkeypatch)
    assert main(["bench", "-i", schubert13_file, "--methods", "final-flats,bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unknown method 'bogus'\n"
    assert captured.out == ""


@pytest.mark.parametrize("methods", ["", "auto,", "all,inward-flats,,auto"])
def test_bench_empty_method_name_exits_2_before_any_route(methods, schubert13_file, capsys, monkeypatch):
    # an empty --methods is the unknown method '', not the default selection
    _no_route(monkeypatch)
    assert main(["bench", "-i", schubert13_file, "--methods", methods]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unknown method ''\n"
    assert captured.out == ""


def test_bench_methods_all_lists_every_route_that_applies(schubert13_file, capsys):
    assert main(["bench", "-i", schubert13_file, "--methods", "all", "--format", "json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    # the input carries its chain data and has a closed form
    assert [rec["method"] for rec in records] == ALL_METHOD_NAMES
    assert {rec["omega"] for rec in records} == {19}


def test_all_inside_a_method_list_runs_every_route_after_the_others():
    item = matroid_from_spec(SCHUBERT_13)
    args = (item.matroid_id, item.schubert)
    report = compute_omega(item.matroid, ["auto", "all"], *args)
    expected = compute_omega(item.matroid, "auto", *args).results
    expected += compute_omega(item.matroid, "all", *args).results

    def rows(results):
        return [(res.method, res.omega, res.chains) for res in results]

    assert rows(report.results) == rows(expected)
    assert len(expected) == 1 + len(ALL_METHOD_NAMES)
    assert report.agree and report.consensus == 19


def test_bench_json_is_compute_all_without_the_hidden_rows(tmp_path, capsys):
    corpus = tmp_path / "bench.jsonl"
    corpus.write_text("".join(json.dumps(spec) + "\n" for spec in cli._BENCH_SPECS))

    def records(argv):
        assert main(argv) == 0
        out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        for rec in out:
            del rec["seconds"]
        return out

    bench = records(["bench", "--format", "json"])
    compute = records(["compute", "-i", str(corpus), "--method", "all", "--timings", "--format", "json"])
    assert bench == [rec for rec in compute if rec["method"] not in ("closed", "schubert")]


# -- check-identities reports inward-sets from the outward-sets call ---------


def test_check_identities_output_matches_the_recorded_bytes(tmp_path):
    # recorded when every kind ran its own kernel call: identities8's base
    # corpus (closure n = 8, seed 1, 6 inputs) as a table and as JSON, and
    # the lines of SCHUBERT_13 at 500 samples
    corpus = tmp_path / "closure8.jsonl"
    corpus.write_text("".join(json.dumps(spec) + "\n" for spec in generate_corpus("closure", 6, 1, 8)))
    for fmt, recorded in [("table", "identities_closure8.txt"), ("json", "identities_closure8.jsonl")]:
        out = tmp_path / recorded
        argv = ["check-identities", "-i", str(corpus), "--samples", "100", "--seed", "0"]
        assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / recorded).read_bytes()
    lines, _, failures = cli._identities_one((matroid_from_spec(SCHUBERT_13), 500, 42, None))
    assert failures == 0
    assert "".join(line + "\n" for line in lines) == (DATA / "identities_schubert13.txt").read_text()


def _identity_cases():
    """(item, samples, explicit rows): closure inputs at n = 8-13, loops
    among them, and low-rank Schubert inputs at n = 14-16 with explicit
    batches: two hypersimplex vertices and the four sampled points."""
    cases = []
    for n, seed, count in [(8, 5, 3), (9, 3, 3), (10, 3, 3), (11, 2, 3), (12, 3, 4), (13, 3, 3)]:
        cases += [(matroid_from_spec(spec), 5, None) for spec in generate_corpus("closure", count, seed, n)]
    rng = random.Random(16)
    for n in (14, 15, 16):
        item = matroid_from_spec(generate_corpus("schubert", 1, 4, n, 3)[0])
        rows = sample_points(rng, n, 3, 4, bases=item.matroid.bases)
        cases.append((item, 0, rows[:2] + rows[-4:]))
    return cases


def test_reported_inward_sets_match_the_independent_evaluation(monkeypatch):
    # every row inward-sets is reported with is the outward-sets call's
    # (lhs, rhs); it must equal the inward sum evaluated on its own, from
    # the subset sums of the call's batch
    calls, batch = [], []
    check_identity, batch_marks = polytopes.check_identity, polytopes.batch_marks

    def recording_sums(matroid, sums):
        batch[:] = [sums]
        return batch_marks(matroid, sums)

    def recording(matroid, kind, marks):
        lhs, rhs = check_identity(matroid, kind, marks)
        calls.append((kind, batch[0], lhs, rhs))
        return lhs, rhs

    monkeypatch.setattr(polytopes, "batch_marks", recording_sums)
    monkeypatch.setattr(polytopes, "check_identity", recording)
    cases = _identity_cases()
    assert any(item.matroid.has_loops() for item, _, _ in cases)
    for item, samples, explicit in cases:
        calls.clear()
        _, records, failures = cli._identities_one((item, samples, 0, explicit))
        assert failures == 0 and records[0]["kind"] == "inward-sets"
        assert IdentityKind.INWARD_SETS not in [call[0] for call in calls]
        rows = 0
        for kind, sums, lhs, rhs in calls:
            if kind is IdentityKind.OUTWARD_SETS:
                oracle_lhs, oracle_rhs = inward_sets_identity(item.matroid, sums)
                assert lhs.tolist() == oracle_lhs.tolist(), item.matroid_id
                assert rhs.tolist() == oracle_rhs.tolist(), item.matroid_id
                rows += len(lhs)
        assert rows == records[0]["points"]


def test_a_set_kinds_mismatch_is_reported_under_both_kinds(monkeypatch):
    check_identity = polytopes.check_identity

    def off_by_one(matroid, kind, marks):
        lhs, rhs = check_identity(matroid, kind, marks)
        rhs[0] += 1
        return lhs, rhs

    monkeypatch.setattr(polytopes, "check_identity", off_by_one)
    item = matroid_from_spec({"kind": "uniform", "n": 4, "r": 2, "id": "u24"})
    # the point (1/2, 1/2, 1/2, 1/2) as its row (D, W)
    lines, _, failures = cli._identities_one((item, 0, 0, [(2, (1, 1, 1, 1))]))
    point = json.dumps([[1, 2]] * 4)
    assert failures == 4
    assert lines == [
        line
        for kind in IdentityKind
        for line in (
            f"MISMATCH id=u24 kind={kind.value} point={point} lhs=1 rhs=2",
            f"u24: {kind.value}: 1 points, 1 failures",
        )
    ]


def test_mismatch_lines_print_points_in_lowest_terms(monkeypatch, tmp_path):
    # every row mismatches here, and each coordinate of a MISMATCH line
    # prints as its Fraction in lowest terms: an explicit point written in
    # other terms, and sampled rows whose D is not every coordinate's
    # denominator
    check_identity = polytopes.check_identity

    def all_wrong(matroid, kind, marks):
        lhs, rhs = check_identity(matroid, kind, marks)
        return lhs, rhs + 1

    monkeypatch.setattr(polytopes, "check_identity", all_wrong)
    item = matroid_from_spec({"kind": "uniform", "n": 4, "r": 2, "id": "u24"})
    path = tmp_path / "points.json"
    path.write_text(json.dumps([[[2, 4], [3, 6], [0, 5], [-4, -4]]]))
    lines, _, _ = cli._identities_one((item, 0, 0, load_points_file(path)))
    point = json.dumps([[1, 2], [1, 2], [0, 1], [1, 1]])
    assert lines[0] == f"MISMATCH id=u24 kind=inward-sets point={point} lhs=1 rhs=2"

    lines, _, failures = cli._identities_one((item, 40, 3, None))
    rows = sample_points(random.Random(3), 4, 2, 40, bases=item.matroid.bases)
    assert failures == 4 * len(rows)
    shown = [
        json.loads(line.split(" point=")[1].split(" lhs=")[0])
        for line in lines
        if line.startswith("MISMATCH id=u24 kind=outer-flats ")
    ]
    assert shown == [[[c.numerator, c.denominator] for c in as_fractions(row)] for row in rows]
    # vertices (D = 1), midpoints (D = 2) and rows with a larger D, some of
    # which print a coordinate with a denominator below D
    assert {d for d, _ in rows} > {1, 2}
    assert any(pair[1] < d for (d, _), coords in zip(rows, shown) for pair in coords)


def test_mismatch_lines_print_the_point_of_their_batch(monkeypatch):
    # 300 samples at n = 8 fill two batches of block_rows(8) = 256 rows; row
    # 1 of each batch disagrees, so the second batch's line must print the
    # point at global index 257, not 1
    check_identity = polytopes.check_identity

    def one_wrong_per_batch(matroid, kind, marks):
        lhs, rhs = check_identity(matroid, kind, marks)
        rhs[1] += 1
        return lhs, rhs

    monkeypatch.setattr(polytopes, "check_identity", one_wrong_per_batch)
    item = matroid_from_spec({"kind": "uniform", "n": 8, "r": 4, "id": "u48"})
    rows = sample_points(random.Random(0), 8, 4, 300, bases=item.matroid.bases)
    assert block_rows(8) == 256 and 256 < len(rows) <= 512
    lines, _, failures = cli._identities_one((item, 300, 0, None))
    assert failures == 2 * 4
    expected = [[[c.numerator, c.denominator] for c in as_fractions(rows[i])] for i in (1, 257)]
    assert expected[0] != expected[1]
    for kind in IdentityKind:
        shown = [
            json.loads(line.split(" point=")[1].split(" lhs=")[0])
            for line in lines
            if line.startswith(f"MISMATCH id=u48 kind={kind.value} ")
        ]
        assert shown == expected, kind


# one loop-free and one loopy matroid on six elements, and explicit points
# written in other than lowest terms, with negative denominators, off the
# rank hyperplane, outside the box and with a 2^70 denominator (the last
# takes subset_sums' `object` fallback)
_POINTS6_SPECS = [
    {"kind": "uniform", "n": 6, "r": 3, "id": "u36"},
    {"kind": "schubert_lower", "n": 6, "chain": [[0], [0, 1, 2, 3, 4, 5]], "profile": [0, 0, 3],
     "id": "loop6"},
]
_POINTS6 = [
    [[1, 2]] * 6,
    [[2, 4], [3, 6], [4, 8], [5, 10], [6, 12], [7, 14]],
    [[-1, -2], [1, 2], [-3, -6], [1, 2], [1, 2], [1, 2]],
    [[1, -2], [3, 2], [1, 2], [1, 2], [1, 2], [1, 2]],
    [[1, 1], [1, 1], [1, 1], [0, 1], [0, 1], [0, 1]],
    [[0, 1], [1, 1], [1, 1], [1, 1], [0, 1], [0, 1]],
    [[0, 3], [2, 2], [-5, -5], [0, -7], [1, 1], [0, 1]],
    [[2**69 + 1, 2**70], [2**69 - 1, 2**70], [1, 2], [1, 2], [1, 2], [1, 2]],
    [[1, 3], [2, 3], [1, 1], [1, 1], [0, 1], [0, 1]],
    [[1, 4], [1, 4], [1, 2], [1, 2], [1, 2], [1, 1]],
    [[2, 1], [1, 1], [0, 1], [0, 1], [0, 1], [0, 1]],
    [[1, 1], [1, 1], [0, 1], [0, 1], [0, 1], [0, 1]],
]


def test_check_identities_points_file_matches_the_recorded_bytes(monkeypatch, tmp_path):
    corpus = tmp_path / "six.jsonl"
    corpus.write_text("".join(json.dumps(spec) + "\n" for spec in _POINTS6_SPECS))
    points = tmp_path / "points.json"
    points.write_text(json.dumps(_POINTS6))
    argv = ["check-identities", "-i", str(corpus), "--points", str(points)]

    def output(fmt, recorded):
        out = tmp_path / recorded
        assert main(argv + ["--format", fmt, "--out", str(out)]) == (1 if "mismatch" in recorded else 0)
        assert out.read_bytes() == (DATA / recorded).read_bytes()

    output("table", "identities_points6.txt")
    output("json", "identities_points6.jsonl")
    # with every row disagreeing, each MISMATCH line prints its point in
    # lowest terms
    check_identity = polytopes.check_identity

    def all_wrong(matroid, kind, marks):
        lhs, rhs = check_identity(matroid, kind, marks)
        return lhs, rhs + 1

    monkeypatch.setattr(polytopes, "check_identity", all_wrong)
    output("table", "identities_points6_mismatch.txt")


def test_check_identities_kernel_calls_per_batch(monkeypatch):
    # two alternating_chain_sum calls per batch on a loop-free matroid (the
    # set kinds, outer-flats) and one with loops (the set kinds), after one
    # rank test per batch that every kind shares
    count = [0]
    tests = [0]
    kernel, batch_marks = polytopes.alternating_chain_sum, polytopes.batch_marks

    def counting(*args):
        count[0] += 1
        return kernel(*args)

    def counting_tests(*args):
        tests[0] += 1
        return batch_marks(*args)

    monkeypatch.setattr(polytopes, "alternating_chain_sum", counting)
    monkeypatch.setattr(polytopes, "batch_marks", counting_tests)
    items = [matroid_from_spec(spec) for spec in generate_corpus("closure", 3, 5, 8)]
    for item, calls_per_batch in [(items[0], 2), (items[2], 1)]:
        assert item.matroid.has_loops() == (calls_per_batch == 1)
        count[0] = tests[0] = 0
        _, records, _ = cli._identities_one((item, 300, 0, None))
        batches = -(-records[0]["points"] // block_rows(8))
        assert batches == 2 and count[0] == calls_per_batch * batches
        assert tests[0] == batches


def test_random_closure_rejects_rank(tmp_path, capsys):
    out = tmp_path / "never.jsonl"
    argv = ["random", "--family", "closure", "--n", "8", "--r", "3", "--count", "2", "--seed", "3"]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: --r applies only to --family schubert\n"
    assert not out.exists()


# -- argv fuzz: any command line ends in a documented exit code --------------

_EXTREME_INTS = st.one_of(
    st.integers(-3, 17), st.sampled_from([-(10**30), -(2**63), 2**31, 2**63, 10**30])
)
_JUNK_TOKENS = st.sampled_from(["", "-", "--", "--bogus", "nan", "1e9", "0x10", "é", "-1", "{}"])


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    files = {
        "u25.json": json.dumps({"kind": "uniform", "n": 5, "r": 2, "id": "u25"}),
        "loop.json": json.dumps({"kind": "bases", "n": 2, "bases": [[1]], "id": "loop"}),
        "s13.json": json.dumps(SCHUBERT_13),
        "broken.json": "{broken",
        "points5.json": json.dumps([[[2, 5]] * 5, [[1, 1], [1, 1], [0, 1], [0, 1], [0, 1]]]),
        "points-bad.json": "[[[1]]]",
    }
    for name, text in files.items():
        (root / name).write_text(text)
    return [str(root / name) for name in [*files, "missing.json"]]


def _argv(paths: list[str]):
    path = st.sampled_from(paths)
    method_names = ["auto", "all", *ALL_METHOD_NAMES, "bogus"]
    values = {
        "-i": path,
        "--points": path,
        "--method": st.sampled_from(method_names),
        "--methods": st.lists(st.sampled_from(method_names), max_size=3).map(",".join),
        "--format": st.sampled_from(["table", "json", "xml"]),
        "--family": st.sampled_from(["schubert", "closure", "other"]),
        # bounded: every draw must stay a small amount of work
        "--jobs": st.integers(-2, 2),
        "--count": st.integers(-3, 50),
        "--samples": st.integers(-3, 50),
        "--seed": _EXTREME_INTS,
        "--n": _EXTREME_INTS,
        "--r": _EXTREME_INTS,
        "--timings": st.just(None),
    }
    flags = {
        "compute": ["-i", "--method", "--format", "--jobs", "--timings"],
        "check-identities": ["-i", "--samples", "--seed", "--points", "--format", "--jobs"],
        "random": ["--family", "--count", "--seed", "--n", "--r"],
        "bench": ["-i", "--methods", "--format"],
    }
    required = {"compute": ["-i"], "check-identities": ["-i"],
                "random": ["--family", "--count", "--seed"]}

    @st.composite
    def build(draw):
        command = draw(st.sampled_from([*flags, "bogus"]))
        chosen = required.get(command, []) + draw(
            st.lists(st.sampled_from(flags.get(command, sorted(values))), max_size=4)
        )
        argv = [command]
        for flag in chosen:
            # one value in ten is junk
            value = draw(_JUNK_TOKENS if draw(st.integers(0, 9)) == 0 else values[flag])
            argv += [flag] if value is None else [flag, str(value)]
        if draw(st.integers(0, 4)) == 0:  # a stray token or a foreign flag
            stray = draw(st.one_of(_JUNK_TOKENS, st.sampled_from(sorted(values))))
            argv.insert(draw(st.integers(1, len(argv))), stray)
        return argv

    return build()


def test_fuzzed_argv_ends_in_a_documented_exit_code(fuzz_files):
    @settings(max_examples=150, deadline=5000, suppress_health_check=[HealthCheck.too_slow])
    @given(_argv(fuzz_files))
    def run(argv):
        err = io.StringIO()
        # any exception other than argparse's SystemExit fails the example
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = _exit_code(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue()

    run()
