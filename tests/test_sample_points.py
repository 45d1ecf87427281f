"""sample_points reproduces its recorded output exactly.

`tests/data/sample_points.json` holds one SHA-256 digest per case of
`sample_points(random.Random(seed), n, r, 60, bases)` for n = 1..12, every
r in 0..n, seeds 0..2, without bases and with every other r-subset of
`combinations(range(n), r)` as basis masks.  Each point is an integer
row (D, W); the digest covers the numerator and denominator of every
coordinate Fraction(W_e, D) in order, so a changed value or a reordered
point changes it.  The types and that each row is in lowest terms are
checked here directly.  Regenerate the file only for a
deliberate change of the sampled points:

    PYTHONPATH=src python tests/test_sample_points.py > tests/data/sample_points.json
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from itertools import combinations, repeat
from math import gcd
from pathlib import Path

import pytest

from omegacalc.bitops import mask_of
from omegacalc.corpus import sample_points

RECORDED = Path(__file__).resolve().parent / "data" / "sample_points.json"
COUNT = 60


def _cases():
    for n in range(1, 13):
        for r in range(n + 1):
            for seed in range(3):
                for with_bases in (False, True):
                    yield n, r, seed, with_bases


def _key(n, r, seed, with_bases):
    return f"n={n} r={r} seed={seed} bases={int(with_bases)}"


def _sample(n, r, seed, with_bases):
    bases = [mask_of(c) for c in combinations(range(n), r)][::2] if with_bases else ()
    return sample_points(random.Random(seed), n, r, COUNT, bases=bases)


def _digest(points) -> str:
    text = "\n".join(
        ",".join(f"{c.numerator}/{c.denominator}" for c in map(Fraction, w, repeat(d)))
        for d, w in points
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORDED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("n", range(1, 13))
def test_sample_points_match_the_recorded_digests(n, recorded):
    for case in _cases():
        if case[0] != n:
            continue
        points = _sample(*case)
        assert len(points) == recorded[_key(*case)]["points"], case
        assert all(type(d) is int and all(type(c) is int for c in w) for d, w in points), case
        # lowest terms, which keeps subset_sums' int64/object choice that of
        # the LCM of the coordinates' denominators
        assert all(d >= 1 and gcd(d, *w) == 1 for d, w in points), case
        assert all(len(w) == n for _, w in points), case
        assert _digest(points) == recorded[_key(*case)]["sha256"], case


if __name__ == "__main__":
    out = {}
    for case in _cases():
        points = _sample(*case)
        out[_key(*case)] = {"points": len(points), "sha256": _digest(points)}
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
