"""Workload definitions and seeded input generation.

Each workload has a pinned base corpus: ``omegacalc.corpus.generate_corpus``
with a fixed family, size, seed and count.  The ``--seed`` of a benchmark
run relabels the ground set of every spec by seeded permutations; the
input order stays that of the corpus.  Relabelling yields an isomorphic matroid, so
the omega invariant (and every identity count) of each input is the same
at every seed and can be pinned in ``pins.json``, while the program still
receives inputs it has not seen in that form.  Keeping the composition of
the corpus fixed is what makes runs at different seeds comparable: the
per-input cost of these families is heavy-tailed, and a fresh random
corpus per seed would measure the draw, not the program.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "compute" or "check-identities"
    family: str
    n: int
    r: int | None
    corpus_seed: int
    count: int
    method: str = ""
    samples: int = 0
    identity_seed: int = 0

    def cli_args(self, corpus_path: str) -> list[str]:
        """Arguments of the real CLI for this workload (always --jobs 1)."""
        args = [self.command, "-i", corpus_path, "--format", "json", "--jobs", "1"]
        if self.command == "compute":
            return args + ["--method", self.method]
        return args + ["--samples", str(self.samples), "--seed", str(self.identity_seed)]


WORKLOADS = {
    w.name: w
    for w in [
        Workload("auto-mixed12", "compute", "closure", 12, None, 1, 50, method="auto"),
        Workload("auto-n16", "compute", "schubert", 16, 5, 94, 3, method="auto"),
        Workload("all-routes9", "compute", "closure", 9, None, 2, 30, method="all"),
        Workload(
            "identities8", "check-identities", "closure", 8, None, 1, 6,
            samples=100, identity_seed=0,
        ),
    ]
}


def base_specs(w: Workload) -> list[dict]:
    from omegacalc.corpus import generate_corpus

    return generate_corpus(w.family, w.count, w.corpus_seed, w.n, w.r)


def to_jsonl(specs: list[dict]) -> str:
    return "".join(json.dumps(s, sort_keys=True, separators=(",", ":")) + "\n" for s in specs)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _permute(elements: list[int], perm: list[int]) -> list[int]:
    return sorted(perm[e] for e in elements)


def relabel(spec: dict, rng: random.Random) -> tuple[dict, list[int]]:
    """An isomorphic copy of a spec and the permutation of its ground set.

    Nested specs get permutations of their own; a deletion or contraction
    set is mapped through the permutation of the spec it applies to.
    """
    kind = spec["kind"]
    out = dict(spec)
    if kind in ("dual", "delete", "contract"):
        inner, inner_perm = relabel(spec["of"], rng)
        out["of"] = inner
        if kind == "dual":
            return out, inner_perm
        out["set"] = _permute(spec["set"], inner_perm)
        # the survivors are renumbered in order on both sides
        removed = set(spec["set"])
        kept = [e for e in range(len(inner_perm)) if e not in removed]
        new_position = {v: i for i, v in enumerate(sorted(inner_perm[e] for e in kept))}
        return out, [new_position[inner_perm[e]] for e in kept]
    if kind == "direct_sum":
        out["parts"], perm = [], []
        for part in spec["parts"]:
            relabelled, part_perm = relabel(part, rng)
            out["parts"].append(relabelled)
            perm += [len(perm) + p for p in part_perm]
        return out, perm
    n = spec["n"]
    perm = list(range(n))
    rng.shuffle(perm)
    if kind == "bases":
        out["bases"] = sorted(_permute(b, perm) for b in spec["bases"])
    elif kind in ("schubert_lower", "schubert_upper"):
        out["chain"] = [_permute(s, perm) for s in spec["chain"]]
    elif kind == "schubert_order":
        out["order"] = [perm[e] for e in spec["order"]]
        out["set"] = _permute(spec["set"], perm)
    elif kind != "uniform":
        raise ValueError(f"cannot relabel spec kind {kind!r}")
    return out, perm


def seeded_specs(w: Workload, base: list[dict], seed: int, copy: int = 0) -> list[dict]:
    """Inputs for one pass: every base spec relabelled, in corpus order.

    Each pass of a run takes its own copy, so a run's medians average over
    several labellings: the chain searches scan masks in numeric order, and
    the labelling alone moves the cost of the heaviest input by ~10%.
    """
    rng = random.Random(f"{w.name}:{seed}:{copy}")
    return [relabel(s, rng)[0] for s in base]


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))
