"""One pass of a workload in a fresh interpreter.

Loads the corpus with ``specfile.load_matroid_file``, writes a ``ready``
event with the ``time.monotonic()`` clock (the parent subtracts its spawn
time to get set-up time), then times each input as the CLI runs it:

* compute: one ``engine.compute_omega`` call;
* check-identities: one ``cli._identities_one`` call, i.e. the matroid's
  whole point set across every identity kind.

Every result is written as one JSON line and flushed, so a pass killed at
its deadline still tells which inputs finished.  Speed probes (speed.py)
run throughout and are written at the end; the parent subtracts their
time from every measurement.  With ``--trace`` there are no probes: the
omegacalc layers are wrapped first (see tracer.py) and the per-layer
metrics are written at the end.

Usage: child.py --src DIR --corpus FILE --out FILE --command compute
       --method auto [--setup-only] [--trace SPANS_FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--command", choices=["compute", "check-identities"], required=True)
    parser.add_argument("--method", default="auto")
    parser.add_argument("--samples", type=int, default=0)
    parser.add_argument("--identity-seed", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, help="write spans here and report per-layer metrics")
    args = parser.parse_args()

    from speed import Sampler

    sampler = Sampler()
    if not args.trace:
        sampler.start()
    sys.path.insert(0, args.src)
    from omegacalc import cli, engine, specfile

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    with open(args.out, "w", encoding="utf-8", buffering=1) as out:
        out.write(json.dumps({"event": "imported", "t": time.monotonic()}) + "\n")
        loaded = specfile.load_matroid_file(args.corpus)
        out.write(json.dumps({"event": "ready", "t": time.monotonic()}) + "\n")
        for item in [] if args.setup_only else loaded:
            if tracer:
                tracer.input_id = item.matroid_id
            if args.command == "compute":
                began = time.monotonic()
                report = engine.compute_omega(
                    item.matroid, args.method, item.matroid_id, item.schubert
                )
                ended = time.monotonic()
                record = {
                    "id": item.matroid_id,
                    "results": [[r.method, r.omega, r.chains] for r in report.results],
                    "consensus": report.consensus,
                    "agree": report.agree,
                }
            else:
                began = time.monotonic()
                _, records, failures = cli._identities_one(
                    (item, args.samples, args.identity_seed, None)
                )
                ended = time.monotonic()
                record = {
                    "id": item.matroid_id,
                    "results": [[r["kind"], r["points"], r["failures"]] for r in records],
                    "failures": failures,
                }
            record["window"] = [began, ended]
            out.write(json.dumps(record) + "\n")
        sampler.stop()
        out.write(json.dumps({"event": "speed", "samples": sampler.samples}) + "\n")
        if tracer:
            tracer.write_spans(args.trace)
            out.write(json.dumps({"event": "trace", "metrics": tracer.metrics()}) + "\n")
        out.write(json.dumps({"event": "done"}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
