import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import BAD_FIELD_SPECS

import omegacalc
from omegacalc.cli import main
from omegacalc.specfile import load_matroid_file

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


def test_infeasible_exit_code(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"kind": "uniform", "n": 13, "r": 6}))
    rc = main(["compute", "-i", str(path), "--method", "inward-sets"])
    assert rc == 3


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


def test_random_empty_corpus(tmp_path):
    out = tmp_path / "empty.jsonl"
    rc = main(["random", "--family", "schubert", "--count", "0", "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert out.read_text() == ""


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
