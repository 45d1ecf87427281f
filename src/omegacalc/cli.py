"""Command-line front end: compute, check-identities, random, bench.

Exit codes, the same for every subcommand: 0 success (all agreement
flags true, no identity failures); 1 disagreement or identity failure;
2 malformed input; 3 infeasible size.  The subcommands raise typed
errors and `main` alone maps them to codes: Infeasible to 3, any other
OmegacalcError to 2, each with one "error: ..." line on stderr.  Which
methods apply to an input is the engine's decision (`compute_omega`).
Which identity kinds apply, how the points are batched and which kind is
reported from another's kernel call are decided in
`polytopes.check_identities`; `check-identities` only samples the points
(or reads them, as integer rows, from `--points`) and prints the result.

JSON output is one record per line with sorted keys and, by default, no
timing fields, so identical seeds and configs produce byte-identical
output; --timings adds wall-clock seconds to each record.  `bench` is
`compute` with its own defaults: the standard corpus, every route with
the closed and schubert rows hidden, seconds in every JSON record, and
one cancellation line per matroid after the table.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from .corpus import generate_corpus, sample_points
from .engine import (
    ALL_METHOD_NAMES,
    METHOD_ALL,
    METHOD_AUTO,
    METHOD_CLOSED,
    METHOD_SCHUBERT,
    OmegaReport,
    compute_omega,
)
from .errors import Infeasible, OmegacalcError, SpecFileError
from .matroid import GROUND_SET_CAP
from .polytopes import check_identities
from .specfile import (
    LoadedMatroid,
    load_matroid_file,
    load_points_file,
    matroid_from_spec,
    spec_to_json,
)

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3

IDENTITY_CAP = 12  # every point scans all 2^n subsets; the flats kinds are the slow ones
LIST_CAP = 100_000  # the largest --count and --samples: lists built in memory


def _write_lines(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + ("\n" if lines else "")
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise SpecFileError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load_inputs(paths: list[str]) -> list[LoadedMatroid]:
    loaded: list[LoadedMatroid] = []
    for path in paths:
        loaded.extend(load_matroid_file(path))
    return loaded


def worker_count(jobs: int, inputs: int) -> int:
    """Processes for a pool over `inputs` items: min(jobs, inputs, CPUs), at least 1."""
    return max(1, min(jobs, inputs, os.cpu_count() or 1))


def _map_inputs(fn, payloads: list, jobs: int) -> list:
    """fn over the payloads, in order; in a process pool when it has more
    than one worker."""
    workers = worker_count(jobs, len(payloads))
    if workers == 1:
        return [fn(p) for p in payloads]
    # imported here: it costs every CLI start ~20 ms and only pools use it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads))


def _compute_one(payload: tuple[LoadedMatroid, str]) -> OmegaReport:
    item, method = payload
    return compute_omega(item.matroid, method, item.matroid_id, item.schubert)


def _report_records(report: OmegaReport, timings: bool) -> list[dict]:
    records = []
    for res in report.results:
        rec = {
            "id": report.matroid_id,
            "n": report.n,
            "r": report.r,
            "method": res.method,
            "omega": res.omega,
            "chains": res.chains,
            "consensus": report.consensus,
            "agree": report.agree,
        }
        if res.note:
            rec["note"] = res.note
        if timings:
            rec["seconds"] = round(res.seconds, 6)
        records.append(rec)
    return records


def _render_table(reports: list[OmegaReport]) -> list[str]:
    lines = []
    header = f"{'matroid':<24} {'n':>3} {'r':>3} {'method':<16} {'omega':>10} {'chains':>10} {'time':>9}"
    lines.append(header)
    lines.append("-" * len(header))
    for rep in reports:
        for res in rep.results:
            chains = "-" if res.chains is None else str(res.chains)
            lines.append(
                f"{rep.matroid_id:<24} {rep.n:>3} {rep.r:>3} {res.method:<16} "
                f"{res.omega:>10} {chains:>10} {res.seconds:>8.3f}s"
            )
        verdict = "agree" if rep.agree else "DISAGREE"
        extra = f" ({rep.noteworthy})" if rep.noteworthy else ""
        lines.append(f"{rep.matroid_id:<24} consensus={rep.consensus} [{verdict}]{extra}")
    return lines


def _write_reports(args, reports: list[OmegaReport], timings: bool, trailer: list[str]) -> int:
    """The reports as JSON records, or as the table followed by the trailer
    lines; exit 0 iff every report agrees."""
    if args.format == "json":
        lines = [
            json.dumps(rec, sort_keys=True)
            for rep in reports
            for rec in _report_records(rep, timings)
        ]
    else:
        lines = _render_table(reports) + trailer
    _write_lines(lines, args.out)
    return EXIT_OK if all(rep.agree for rep in reports) else EXIT_DISAGREE


def cmd_compute(args) -> int:
    payloads = [(item, args.method) for item in _load_inputs(args.input)]
    reports = _map_inputs(_compute_one, payloads, args.jobs)
    return _write_reports(args, reports, args.timings, [])


def _identities_one(payload) -> tuple[list[str], list[dict], int]:
    """The lines, JSON records and failure count of one matroid."""
    item, samples, seed, points = payload
    m = item.matroid
    lines: list[str] = []
    if m.has_loops():
        lines.append(f"{item.matroid_id}: loops present, checking set identities only")
    if points is None:
        points = sample_points(random.Random(seed), m.n, m.r, samples, bases=m.bases)
    failures = check_identities(m, points)
    records = []
    for kind, bad in failures.items():
        for (scale, coords), lhs, rhs in bad:
            point = [Fraction(w, scale) for w in coords]
            shown_point = json.dumps([[c.numerator, c.denominator] for c in point])
            lines.append(
                f"MISMATCH id={item.matroid_id} kind={kind.value} "
                f"point={shown_point} lhs={lhs} rhs={rhs}"
            )
        lines.append(f"{item.matroid_id}: {kind.value}: {len(points)} points, {len(bad)} failures")
        records.append(
            {"id": item.matroid_id, "kind": kind.value, "points": len(points), "failures": len(bad)}
        )
    return lines, records, sum(map(len, failures.values()))


def cmd_check_identities(args) -> int:
    loaded = _load_inputs(args.input)
    explicit = load_points_file(args.points) if args.points else None
    if explicit is not None:
        for item in loaded:
            wrong = next((w for _, w in explicit if len(w) != item.matroid.n), None)
            if wrong is not None:
                raise SpecFileError(
                    f"a point of dimension {len(wrong)} does not fit "
                    f"{item.matroid_id} (n = {item.matroid.n})"
                )
    oversized = [item for item in loaded if item.matroid.n > IDENTITY_CAP]
    if oversized:
        raise Infeasible(
            f"identity checking is capped at n = {IDENTITY_CAP} "
            f"({oversized[0].matroid_id} has n = {oversized[0].matroid.n})"
        )
    payloads = [(item, args.samples, args.seed, explicit) for item in loaded]
    chunks = _map_inputs(_identities_one, payloads, args.jobs)
    lines = [line for chunk in chunks for line in chunk[0]]
    records = [rec for chunk in chunks for rec in chunk[1]]
    failures = sum(chunk[2] for chunk in chunks)
    if args.format == "json":
        out_lines = [json.dumps(rec, sort_keys=True) for rec in records]
    else:
        out_lines = lines
    _write_lines(out_lines, args.out)
    return EXIT_OK if failures == 0 else EXIT_DISAGREE


def cmd_random(args) -> int:
    if not 1 <= args.n <= GROUND_SET_CAP:
        raise SpecFileError(f"--n must lie in [1, {GROUND_SET_CAP}], got {args.n}")
    if args.r is not None and args.family != "schubert":
        raise SpecFileError("--r applies only to --family schubert")
    if args.r is not None and not 0 <= args.r <= args.n:
        raise SpecFileError(f"--r must lie in [0, --n = {args.n}], got {args.r}")
    try:
        specs = generate_corpus(args.family, args.count, args.seed, args.n, args.r)
    except ValueError as exc:
        raise SpecFileError(str(exc)) from exc
    for spec in specs:
        # every generated spec must load back into a valid matroid
        matroid_from_spec(spec)
    lines = [spec_to_json(spec) for spec in specs]
    _write_lines(lines, args.out)
    return EXIT_OK


# the standard corpus: four uniform matroids, the worked Schubert example
# (its chain data enables the "schubert" route) and a direct sum
_BENCH_SPECS = [
    *({"kind": "uniform", "n": n, "r": r, "id": f"uniform-{r}-{n}"}
      for r, n in [(3, 7), (4, 9), (4, 10), (5, 12)]),
    {"kind": "schubert_lower", "n": 10, "id": "schubert-10-4",
     "chain": [[0, 1], list(range(7)), list(range(10))], "profile": [0, 1, 3, 4]},
    {"kind": "direct_sum", "id": "sum-u25-u12",
     "parts": [{"kind": "uniform", "n": 5, "r": 2}, {"kind": "uniform", "n": 2, "r": 1}]},
]


# the flats routes from the least to the most cancelled
_CANCELLATION = ("outward-flats", "crowded-flats", "record-flats", "final-flats")


def _cancellation_lines(rep: OmegaReport) -> list[str]:
    """The chain counts of the flats routes present, if more than one."""
    chains = {res.method: res.chains for res in rep.results if res.chains is not None}
    present = [f"{v}:{chains[v]}" for v in _CANCELLATION if v in chains]
    if len(present) < 2:
        return []
    return [f"{rep.matroid_id:<24} cancellation: " + " >= ".join(present)]


def cmd_bench(args) -> int:
    if args.input:
        loaded = _load_inputs(args.input)
    else:
        loaded = [matroid_from_spec(spec) for spec in _BENCH_SPECS]
    methods = args.methods.split(",") if args.methods else METHOD_ALL
    reports = [
        compute_omega(item.matroid, methods, item.matroid_id, item.schubert) for item in loaded
    ]
    if not args.methods:
        # closed and schubert count towards agreement but have no chains to compare
        hidden = (METHOD_CLOSED, METHOD_SCHUBERT)
        reports = [
            replace(rep, results=[res for res in rep.results if res.method not in hidden])
            for rep in reports
        ]
    trailer = [line for rep in reports for line in _cancellation_lines(rep)]
    return _write_reports(args, reports, True, trailer)


def _int_between(low: int, high: int | None = None):
    """An argparse type: an int in [low, high], unbounded above without `high`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omega", description="Exact computation of the omega invariant of matroids"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute the invariant for matroid spec files")
    p.add_argument("-i", "--input", action="append", required=True, help="matroid spec or corpus file")
    p.add_argument(
        "--method",
        default=METHOD_AUTO,
        help=f"one of: {METHOD_AUTO}, {METHOD_ALL}, {', '.join(ALL_METHOD_NAMES)}",
    )
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("--out", default=None, help="write output to a file")
    p.add_argument(
        "--jobs", type=_int_between(1), default=1, help="process-level parallelism over inputs"
    )
    p.add_argument("--timings", action="store_true", help="include seconds in JSON records")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("check-identities", help="verify decomposition identities pointwise")
    p.add_argument("-i", "--input", action="append", required=True)
    p.add_argument(
        "--samples",
        type=_int_between(0, LIST_CAP),
        default=500,
        help=f"sampled points per matroid, at most {LIST_CAP}",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", default=None, help="explicit point batch file (JSON)")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("--out", default=None)
    p.add_argument(
        "--jobs", type=_int_between(1), default=1, help="process-level parallelism over inputs"
    )
    p.set_defaults(func=cmd_check_identities)

    p = sub.add_parser("random", help="generate a reproducible corpus of matroid specs")
    p.add_argument("--family", choices=["schubert", "closure"], required=True)
    p.add_argument(
        "--count", type=_int_between(0, LIST_CAP), required=True, help=f"at most {LIST_CAP}"
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("bench", help="compare chain counts and timing across methods")
    p.add_argument("-i", "--input", action="append", default=None)
    p.add_argument("--methods", default=None, help="comma-separated method list")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OmegacalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE if isinstance(exc, Infeasible) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
