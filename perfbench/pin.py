"""Regenerate pins.json: corpus digests and expected values per input.

Run from the repository root: ``python3 perfbench/pin.py``.  Only needed
when a workload definition changes on purpose; the benchmark refuses to
time a workload whose generated inputs no longer match these pins.

Expected values come from routes other than the one the workload times,
and each must agree with the timed route here:

* auto-mixed12: the final-flats and record-flats chain sums (plus the
  Schubert path count where the spec carries one);
* auto-n16: the direct Schubert path count;
* all-routes9: the agreed consensus of every route (``--method all``);
* identities8: points per identity kind, with zero failures.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import DEFAULT_SEED, PINS_PATH, WORKLOADS, base_specs, seeded_specs, sha256, to_jsonl  # noqa: E402

REFERENCE_ROUTES = {
    "auto-mixed12": ["final-flats", "record-flats"],
    "auto-n16": [],
    "all-routes9": "all",
}


def expected_value(name, w, item) -> object:
    from omegacalc.cli import _identities_one
    from omegacalc.engine import compute_omega

    if w.command == "check-identities":
        _, records, failures = _identities_one((item, w.samples, w.identity_seed, None))
        if failures:
            raise SystemExit(f"{name}: {item.matroid_id} fails {failures} identity points")
        return {r["kind"]: r["points"] for r in records}
    routes = REFERENCE_ROUTES[name]
    if isinstance(routes, list) and item.schubert is not None:
        routes = routes + ["schubert"]
    reference = compute_omega(item.matroid, routes, item.matroid_id, item.schubert)
    timed = compute_omega(item.matroid, w.method, item.matroid_id, item.schubert)
    if not (reference.agree and timed.agree and reference.consensus == timed.consensus):
        raise SystemExit(f"{name}: {item.matroid_id} routes disagree: {reference} / {timed}")
    return reference.consensus


def main() -> int:
    from omegacalc.specfile import matroid_from_spec

    pins = {"default_seed": DEFAULT_SEED, "workloads": {}}
    for name, w in WORKLOADS.items():
        base = base_specs(w)
        expected = {}
        for spec in base:
            item = matroid_from_spec(spec)
            expected[item.matroid_id] = expected_value(name, w, item)
            print(name, item.matroid_id, expected[item.matroid_id], flush=True)
        pins["workloads"][name] = {
            "base_sha256": sha256(to_jsonl(base)),
            "sha256_at_default_seed": sha256(to_jsonl(seeded_specs(w, base, DEFAULT_SEED))),
            "expected": expected,
        }
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
