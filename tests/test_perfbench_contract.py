"""The benchmark's contract with the package.

perfbench/ drives more of `src/` than the CLI does: child.py calls
`engine.compute_omega`, `cli._identities_one` and
`specfile.load_matroid_file` directly, run.py calls
`chainsums.schubert_omega` and pins the digests of `corpus.generate_corpus`
output, and tracer.py patches some forty names by `getattr`.  A change to
any of them breaks the benchmark before it produces a number, so each
workload is run here the way run.py runs it: the real CLI and one traced
child pass on the first relabelled copy at the default seed, both checked
against the pinned values, the CLI's records and the tracer's coverage.
"""

import os
import sys
from pathlib import Path

import pytest

import omegacalc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(omegacalc.__file__).resolve().parents[1]
DEADLINE_S = 60.0

_writes_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # no __pycache__ in perfbench/
sys.path.insert(0, str(PERFBENCH))
try:
    import run
    from workloads import DEFAULT_SEED, WORKLOADS, base_specs, load_pins, seeded_specs, sha256, to_jsonl
finally:
    sys.path.remove(str(PERFBENCH))
    sys.dont_write_bytecode = _writes_bytecode


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_as_the_benchmark_runs_it(name, tmp_path):
    w = WORKLOADS[name]
    pins = load_pins()["workloads"][name]
    expected = pins["expected"]

    base = base_specs(w)
    specs = seeded_specs(w, base, DEFAULT_SEED, 0)
    assert sha256(to_jsonl(base)) == pins["base_sha256"]
    assert sha256(to_jsonl(specs)) == pins["sha256_at_default_seed"]
    if w.command == "compute":
        assert run.schubert_cross_check(specs, expected) == []
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(to_jsonl(specs), encoding="utf-8")

    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    cli_out = tmp_path / "cli.out"
    cli_run = run.run_child(
        [sys.executable, "-m", "omegacalc.cli", *w.cli_args(str(corpus))], env, cli_out, DEADLINE_S
    )
    assert cli_run.finished, cli_out.with_suffix(".err").read_text()
    cli = run.cli_entries(w, cli_out.read_text(encoding="utf-8"))

    records = tmp_path / "child.records"
    log = tmp_path / "child.log"
    child = [
        sys.executable, str(PERFBENCH / "child.py"), "--src", str(SRC),
        "--command", w.command, "--method", w.method, "--samples", str(w.samples),
        "--identity-seed", str(w.identity_seed), "--corpus", str(corpus),
        "--out", str(records), "--trace", str(tmp_path / "spans.jsonl"),
    ]
    traced = run.read_pass(run.run_child(child, env, log, DEADLINE_S), records)
    assert traced.finished, log.with_suffix(".err").read_text()

    for input_id, value in expected.items():
        assert run.is_correct(w, cli.get(input_id), value), ("cli", input_id)
        rec = traced.records.get(input_id)
        assert run.is_correct(w, rec, value), ("traced child", input_id)
        assert run.same_as_cli(w, rec, cli.get(input_id)), input_id
    assert traced.trace is not None
    assert [m for m in run.COVERAGE[name] if not traced.trace.get(m)] == []
