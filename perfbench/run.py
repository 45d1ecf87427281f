"""Benchmark of omegacalc: ``omega compute`` and ``omega check-identities``.

Run from the repository root:

    python3 perfbench/run.py --workload auto-n16 --seed 3 --seconds 10 --trace 0

One run of a workload:

1. checks the base corpus and the default-seed inputs against the
   SHA-256 digests in pins.json;
2. runs the real CLI once, untimed (``python -m omegacalc.cli ...
   --format json --jobs 1``), on the first relabelled copy of the inputs
   for ``--seed``, and checks its records against the pinned values;
3. times whole passes over the inputs, each in a fresh child process
   (child.py) on the next relabelled copy, for ``--seconds`` seconds and
   at least two passes.  Each pass must reproduce the pinned values and
   the CLI's records;
4. takes further set-up-only samples until set-up time has seven;
5. with ``--trace 1``, makes one more pass with every layer wrapped
   (tracer.py) and reports per-layer metrics instead of end-to-end ones.

Times are in reference seconds: each is scaled by the host's speed at the
moment it was taken, measured by the probes of speed.py, which run inside
each timed child and in this process around each pass.

Every pass has a deadline.  An input still unfinished when it passes, or
any input of a pass that exits nonzero, counts as failed, and the pass's
time is not recorded.  Peak memory is read per child with ``os.wait4``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import STARTUP_EXPONENT, probes, reference_seconds

HERE = Path(__file__).resolve().parent
RUN_BUDGET_S = 170.0  # the whole run, inside the 180 s limit
PASS_DEADLINE_S = 60.0
MIN_PASSES = 2
MIN_SETUP_SAMPLES = 7
WORK_DIR = ".perfbench_work"
PARENT_PROBES = 5  # speed probes right before and right after each pass

# Per-layer metrics that must be nonzero in a traced pass of each
# workload; a zero means the tracer missed a binding.
COVERAGE = {
    "auto-mixed12": [
        "specfile.load.s", "matroid.validate.s", "matroid.validate.bases",
        "matroid.minors.s", "matroid.minors.calls", "matroid.rank_table.s",
        "matroid.rank_table.builds", "matroid.simplify.s", "crowding.overcrowded.s",
        "closedform.s", "closedform.calls", "closedform.hit_frac",
    ],
    "auto-n16": [
        "matroid.construct.s", "matroid.rank.queries", "matroid.closure.s",
        "matroid.closure.calls", "matroid.components.s", "matroid.components.calls",
        "lattice.flats.s", "lattice.flats.count", "closedform.s", "closedform.calls",
        "closedform.hit_frac", "chainsums.final-flats.s", "chainsums.final-flats.chains",
    ],
    "all-routes9": [
        "matroid.rank_table.s", "matroid.rank_table.builds", "matroid.components.s",
        "matroid.components.calls", "lattice.mobius.lookups", "crowding.crowded_sets.s",
        "crowding.crowded_flats.s", "crowding.records.s", "crowding.records.scanned",
        "crowding.records.hit_frac", "chainsums.schubert.s", "paths.push.calls",
        "paths.push.alive_frac", "paths.completed.calls", "altsum.s", "altsum.calls",
    ],
    "identities8": [
        "lattice.mobius.lookups", "altsum.s", "altsum.calls", "polytopes.identity.points",
        "polytopes.subset_sums.s", "polytopes.subset_sums.calls", "corpus.sample_points.s",
    ],
}


@dataclass
class Pass:
    """One child process over the whole input set."""

    spawned: float
    wall: float
    exit_code: int
    rss_mb: float
    killed: bool
    imported: float | None = None  # when start-up and imports were done
    ready: float | None = None  # when the inputs were loaded
    records: dict = field(default_factory=dict)
    samples: list = field(default_factory=list)  # speed probes, see speed.py
    trace: dict | None = None

    @property
    def finished(self) -> bool:
        return self.exit_code == 0 and not self.killed

    def ref_startup(self) -> float:
        return reference_seconds(self.samples, self.spawned, self.imported, STARTUP_EXPONENT)

    def ref_wall(self) -> float:
        return self.ref_startup() + reference_seconds(self.samples, self.imported, self.spawned + self.wall)

    def ref_setup(self) -> float:
        return self.ref_startup() + reference_seconds(self.samples, self.imported, self.ready)

    def ref_latency(self, input_id: str) -> float:
        return reference_seconds(self.samples, *self.records[input_id]["window"])


def run_child(cmd: list[str], env: dict, stdout_path: Path, deadline: float) -> Pass:
    """Run one child, kill it at the deadline, and reap it with os.wait4 so
    that ru_maxrss belongs to this child alone."""
    lock = threading.Lock()
    reaped = False
    killed = threading.Event()
    with open(stdout_path, "w") as out, open(stdout_path.with_suffix(".err"), "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)

    def kill() -> None:
        with lock:
            if not reaped:
                killed.set()
                proc.kill()

    timer = threading.Timer(max(deadline, 0.1), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        ended = time.monotonic()
        with lock:
            reaped = True
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Pass(spawned, ended - spawned, proc.returncode, usage.ru_maxrss / 1024.0, killed.is_set())


def read_pass(p: Pass, path: Path) -> Pass:
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            break  # a line cut off by a kill
        event = rec.get("event")
        if event == "imported":
            p.imported = rec["t"]
        elif event == "ready":
            p.ready = rec["t"]
        elif event == "speed":
            p.samples.extend(rec["samples"])
        elif event == "trace":
            p.trace = rec["metrics"]
        elif event is None:
            p.records[rec["id"]] = rec
    return p


def cli_entries(w, stdout: str) -> dict:
    """The CLI's JSON records, grouped per input in the child's shape."""
    out: dict = {}
    for line in stdout.splitlines():
        rec = json.loads(line)
        entry = out.setdefault(rec["id"], {"results": []})
        if w.command == "compute":
            entry["results"].append([rec["method"], rec["omega"], rec["chains"]])
            entry["consensus"] = rec["consensus"]
            entry["agree"] = rec["agree"]
        else:
            entry["results"].append([rec["kind"], rec["points"], rec["failures"]])
    return out


def is_correct(w, entry: dict | None, expected) -> bool:
    """An input's result matches its pinned expected value."""
    if entry is None:
        return False
    if w.command == "compute":
        return entry["agree"] is True and entry["consensus"] == expected and bool(entry["results"])
    return (
        all(failures == 0 for _, _, failures in entry["results"])
        and {kind: points for kind, points, _ in entry["results"]} == expected
    )


def same_as_cli(w, rec: dict, cli: dict | None) -> bool:
    if cli is None:
        return False
    keys = ["results", "consensus", "agree"] if w.command == "compute" else ["results"]
    return all(rec.get(k) == cli.get(k) for k in keys)


def schubert_cross_check(specs: list[dict], expected: dict) -> list[str]:
    """Ids whose pinned value differs from the direct Schubert path count."""
    from omegacalc.chainsums import schubert_omega

    bad = []
    for spec in specs:
        if spec["kind"] != "schubert_lower":
            continue
        chain = [sum(1 << e for e in member) for member in spec["chain"]]
        if schubert_omega(spec["n"], chain, spec["profile"]) != expected[spec["id"]]:
            bad.append(spec["id"])
    return bad


def harrell_davis(values: list[float], q: float, steps: int = 4096) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics weighted by the Beta(q(n+1), (1-q)(n+1)) density.

    A workload's inputs fall in clusters, and the nearest-rank percentile
    jumps whole clusters when one input's time shifts; this estimate moves
    smoothly.  The Beta weights are integrated by the midpoint rule.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    weights = [0.0] * n
    for k in range(steps):
        x = (k + 0.5) / steps
        weights[min(n - 1, int(x * n))] += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    return sum(w * v for w, v in zip(weights, xs)) / sum(weights)


def describe(name: str, values: list[float], unit: str) -> str:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
        return f"{name}: median {statistics.median(values):.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"
    return f"{name}: {values[0]:.6g} {unit} (n=1)" if values else f"{name}: no samples"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    began = time.monotonic()

    root = Path.cwd()
    src = root / "src"
    if not (src / "omegacalc" / "__init__.py").is_file():
        print(f"error: no omegacalc package under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import DEFAULT_SEED, WORKLOADS, base_specs, load_pins, seeded_specs, sha256, to_jsonl

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    pins = load_pins()["workloads"][w.name]
    expected = pins["expected"]

    # input pinning, before any timing
    base = base_specs(w)
    digests = {
        "base_sha256": sha256(to_jsonl(base)),
        "sha256_at_default_seed": sha256(to_jsonl(seeded_specs(w, base, DEFAULT_SEED))),
    }
    for key, digest in digests.items():
        if digest != pins[key]:
            print(f"error: {w.name} inputs changed: {key} is {digest}, pinned {pins[key]}", file=sys.stderr)
            return 3
    ids = [s["id"] for s in base]

    work = root / WORK_DIR
    work.mkdir(exist_ok=True)
    stem = f"{w.name}-{args.seed}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    failed = 0
    attempted = 0
    problems: list[str] = []
    scratch: list[Path] = []  # per-pass files, removed after a correct run

    def budget_left() -> float:
        return RUN_BUDGET_S - (time.monotonic() - began)

    def write_copy(copy: int) -> Path:
        specs = seeded_specs(w, base, args.seed, copy)
        bad = schubert_cross_check(specs, expected) if w.command == "compute" else []
        if bad:
            problems.append(f"pinned values differ from the Schubert path count: {bad}")
        path = work / f"{stem}-{copy}.jsonl"
        path.write_text(to_jsonl(specs), encoding="utf-8")
        scratch.append(path)
        return path

    # the real CLI, once, untimed, on the first copy
    cli_out = work / f"{stem}-cli.out"
    scratch.extend([cli_out, cli_out.with_suffix(".err")])
    cli_run = run_child(
        [sys.executable, "-m", "omegacalc.cli", *w.cli_args(str(write_copy(0)))],
        env, cli_out, min(PASS_DEADLINE_S, budget_left()),
    )
    cli = cli_entries(w, cli_out.read_text(encoding="utf-8")) if cli_run.finished else {}
    attempted += len(ids)
    cli_bad = [i for i in ids if not is_correct(w, cli.get(i), expected[i])]
    if not cli_run.finished:
        cli_bad = ids
    failed += len(cli_bad)
    if cli_bad:
        problems.append(f"CLI exit {cli_run.exit_code}, killed={cli_run.killed}, wrong: {cli_bad}")

    child_cmd = [
        sys.executable, str(HERE / "child.py"), "--src", str(src),
        "--command", w.command, "--method", w.method, "--samples", str(w.samples),
        "--identity-seed", str(w.identity_seed),
    ]
    copies = itertools.count()

    def one_pass(extra: list[str], deadline: float) -> Pass:
        """A child pass over the next relabelled copy of the inputs, with
        speed probes right before and after it."""
        copy = next(copies)
        records = work / f"{stem}-{copy}.records"
        log = work / f"{stem}-{copy}.log"
        scratch.extend([records, log, log.with_suffix(".err")])
        cmd = child_cmd + ["--corpus", str(write_copy(copy)), "--out", str(records)] + extra
        before = probes(PARENT_PROBES)
        p = read_pass(run_child(cmd, env, log, deadline), records)
        p.samples += before + probes(PARENT_PROBES)
        return p

    def check_pass(p: Pass, label: str) -> bool:
        nonlocal failed, attempted
        wrong = [
            i for i in ids
            if not (is_correct(w, p.records.get(i), expected[i]) and same_as_cli(w, p.records[i], cli.get(i)))
        ]
        if p.exit_code != 0 and not p.killed:
            wrong = ids
        attempted += len(ids)
        failed += len(wrong)
        if wrong:
            problems.append(f"{label}: exit {p.exit_code}, killed={p.killed}, failed inputs {wrong}")
        return not wrong and p.finished

    # timed passes
    passes: list[Pass] = []
    measure_start = time.monotonic()
    # no pass starts unless, at the typical pass time, it ends within --seconds
    while len(passes) < MIN_PASSES or (
        time.monotonic() - measure_start + statistics.median(p.wall for p in passes) <= args.seconds
    ):
        deadline = min(PASS_DEADLINE_S, budget_left() - 5.0)
        if deadline < 1.0:
            problems.append("run budget exhausted before the timed passes finished")
            break
        p = one_pass([], deadline)
        if not check_pass(p, f"pass {len(passes)}"):
            break
        passes.append(p)
    setups = list(passes)
    while passes and len(setups) < MIN_SETUP_SAMPLES and budget_left() > 10.0:
        p = one_pass(["--setup-only"], min(PASS_DEADLINE_S, budget_left() - 5.0))
        if p.finished and p.ready is not None:
            setups.append(p)
        else:
            problems.append(f"set-up pass: exit {p.exit_code}, killed={p.killed}")
            break

    # times in reference seconds (see speed.py); raw wall times are printed too
    walls = [p.ref_wall() for p in passes]
    ref_setups = [p.ref_setup() for p in setups]
    # each input's median latency over the passes, one value per input
    latencies = sorted(statistics.median(p.ref_latency(i) for p in passes) for i in ids) if passes else []
    rss = [p.rss_mb for p in passes]
    probe_times = [d for p in passes for _, d, _ in p.samples]
    for line in (
        describe("wall_s", walls, "s"),
        describe("setup_s", ref_setups, "s"),
        describe("peak_rss_mb", rss, "MiB"),
        f"input latency: median over {len(passes)} passes for each of {len(ids)} inputs",
        describe("speed probe", probe_times, "s"),
        "raw pass wall times: " + " ".join(f"{p.wall:.3f}" for p in passes),
        "raw set-up times: " + " ".join(f"{p.ready - p.spawned:.3f}" for p in setups),
    ):
        print(line)

    metrics: dict[str, dict] = {}
    if args.trace:
        deadline = min(PASS_DEADLINE_S * 2, budget_left() - 2.0)
        traced = one_pass(["--trace", str(work / f"{stem}-spans.jsonl")], deadline)
        if check_pass(traced, "traced pass") and traced.trace is not None:
            from tracer import metric_names

            for name in metric_names():
                unit = "s" if name.endswith(".s") else ("ratio" if name.endswith("_frac") else "count")
                metrics[name] = {"value": traced.trace[name], "unit": unit}
            if walls:
                metrics["trace.overhead_s"] = {"value": traced.ref_wall() - statistics.median(walls), "unit": "s"}
            zero = [m for m in COVERAGE[w.name] if not traced.trace.get(m)]
            if zero:
                problems.append(f"tracer coverage: zero in the traced pass: {zero}")
        else:
            problems.append("traced pass did not complete")
    elif passes:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(ref_setups), "unit": "s"},
            "input_p50_s": {"value": harrell_davis(latencies, 0.5), "unit": "s"},
            "input_p90_s": {"value": harrell_davis(latencies, 0.9), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
        }
    if not passes:
        problems.append("no timed pass completed")

    for problem in problems:
        print(f"FAIL {w.name}: {problem}", file=sys.stderr)
    print(f"failed_frac: {failed}/{attempted}")
    correct = not problems
    if correct:
        for path in scratch:
            path.unlink(missing_ok=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
