"""Seeded random matroid corpora.

Schubert matroids built from a random chain and profile are the backbone:
their invariant has a direct path-count formula, so corpus members are
self-certifying.  The closure family layers duals, minors, direct sums
and parallel extensions on top.  All generation is driven by an explicit
random.Random so a seed pins the corpus byte for byte.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd, lcm
from operator import add
from typing import Sequence

from .bitops import elements_of, mask_of, popcount
from .matroid import GROUND_SET_CAP, Matroid, schubert_lower

Rng = random.Random

# the largest denominator of a random coordinate draw in sample_points
MAX_DENOMINATOR = 64


def random_schubert_data(
    rng: Rng,
    n: int,
    r: int | None = None,
    loop_free: bool = False,
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """A random (n, chain, profile) triple with a valid profile."""
    if r is None:
        r = rng.randint(1, max(1, n - 1))
    k = rng.randint(1, max(1, min(r, n - r) + 1))
    sizes = sorted(rng.sample(range(1, n), k - 1)) + [n]
    perm = list(range(n))
    rng.shuffle(perm)
    chain = tuple(mask_of(perm[:s]) for s in sizes)
    profile = [0]
    prev = 0
    for i, s in enumerate(sizes):
        if i == len(sizes) - 1:
            profile.append(r)
            break
        lo = max(profile[-1], r - (n - s))
        hi = min(r, profile[-1] + (s - prev))
        if i == 0 and loop_free:
            lo = max(lo, 1)
        a = rng.randint(lo, hi) if lo <= hi else lo
        profile.append(a)
        prev = s
    return n, chain, tuple(profile)


def random_schubert(rng: Rng, n: int, r: int | None = None, loop_free: bool = False) -> Matroid:
    n, chain, profile = random_schubert_data(rng, n, r, loop_free=loop_free)
    return schubert_lower(n, chain, profile)


def schubert_spec(rng: Rng, n: int, r: int | None = None, ident: str = "") -> dict:
    n, chain, profile = random_schubert_data(rng, n, r)
    spec = {
        "kind": "schubert_lower",
        "n": n,
        "chain": [elements_of(s) for s in chain],
        "profile": list(profile),
    }
    if ident:
        spec["id"] = ident
    return spec


def closure_spec(rng: Rng, n: int, ident: str = "") -> dict:
    """A spec derived from Schubert cores by duals, minors, sums or a
    parallel extension (the last emitted as an explicit basis list)."""
    op = rng.choice(["dual", "delete", "contract", "direct_sum", "parallel", "plain"])
    if op == "plain":
        spec = schubert_spec(rng, n)
    elif op == "dual":
        spec = {"kind": "dual", "of": schubert_spec(rng, n)}
    elif op in ("delete", "contract"):
        inner_n = min(n + rng.randint(1, 2), GROUND_SET_CAP)
        inner = schubert_spec(rng, inner_n)
        drop = sorted(rng.sample(range(inner_n), inner_n - n))
        spec = {"kind": op, "set": drop, "of": inner}
    elif op == "direct_sum":
        n1 = rng.randint(1, n - 1) if n > 1 else 1
        n2 = n - n1
        if n2 < 1:
            return schubert_spec(rng, n, ident=ident)
        spec = {
            "kind": "direct_sum",
            "parts": [schubert_spec(rng, n1), schubert_spec(rng, n2)],
        }
    else:
        if n == 1:
            return schubert_spec(rng, n, ident=ident)
        core = random_schubert(rng, n - 1)
        non_loops = [e for e in range(core.n) if core.rank(1 << e) == 1]
        if not non_loops:
            return schubert_spec(rng, n, ident=ident)
        extended = core.parallel_extend(rng.choice(non_loops))
        spec = {
            "kind": "bases",
            "n": extended.n,
            "bases": [elements_of(b) for b in extended.bases],
        }
    if ident:
        spec["id"] = ident
    return spec


def generate_corpus(
    family: str, count: int, seed: int, n: int, r: int | None = None
) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        ident = f"{family}-{seed}-{i:04d}"
        if family == "schubert":
            out.append(schubert_spec(rng, n, r, ident=ident))
        elif family == "closure":
            out.append(closure_spec(rng, n, ident=ident))
        else:
            raise ValueError(f"unknown corpus family {family!r}")
    return out


def sample_points(
    rng: Rng,
    n: int,
    r: int,
    count: int,
    bases: Sequence[int] = (),
) -> list[tuple[int, tuple[int, ...]]]:
    """Exact rational test points on the rank hyperplane, each an integer
    row (D, W) for the point x_e = W_e / D in lowest terms: D >= 1 and
    gcd(D, W_0, ..., W_{n-1}) = 1 (polytopes.subset_sums reads these rows).

    Includes every 0/1 vertex of the hypersimplex, then midpoints of
    vertex pairs, vertices nudged by tiny rational offsets (both
    preserving the coordinate sum), and normalized random positive
    rationals with bounded denominators.  When basis masks are supplied,
    midpoints of basis-vertex pairs are mixed in as well; those land on
    faces of the base polytope itself, probing its closed facets.  A
    nudge needs two coordinates, so at n = 1 its draws become random
    rationals instead.

    Every row is built from integers.  A vertex has D = 1.  A midpoint has
    D = 2 when some coordinate is 1/2, and D = 1 otherwise.  A nudge by
    1/d, d one of 31, 61, 97 and 64, has D = d: its two moved coordinates
    are (d * b + 1) / d and (d * b - 1) / d for vertex bits b, both in
    lowest terms.  A random point w is scaled by the LCM L of
    its draws' denominators to integers W = L * w, so its coordinate
    w_e * r / sum(w) is W_e * r / T with T = sum(W); with g = gcd(T,
    W_0 * r, ..., W_{n-1} * r) its row is (T / g, W_e * r / g).  Its 2n
    draws are rng.randint(1, 64) values taken from the stream as
    CPython's randrange takes them, getrandbits(7) redrawn while at least
    64, plus 1, without randrange's call overhead: the same points from
    the same seed.

    subset_sums runs a batch in int64 when its scales D and |W_e| stay
    below 2^63 / (n + 1).  Vertices, midpoints and nudges have D <= 97.  A
    random point's D divides T <= 64 * n * L, and L grows with n: in
    closure corpora sampled with 500 points, every batch up to n = 13
    stayed in int64, and 9 of about 26,000 batches at n = 14-16 (D just
    below 2^62) took the `object` fallback.
    """
    vertex_bits = [
        tuple(1 if e in c else 0 for e in range(n)) for c in combinations(range(n), r)
    ]
    basis_bits = [tuple(b >> e & 1 for e in range(n)) for b in bases]
    points = [(1, v) for v in vertex_bits]
    getrandbits, bits = rng.getrandbits, MAX_DENOMINATOR.bit_length()
    while len(points) < len(vertex_bits) + count:
        style = rng.random()
        if style < 0.3:
            a, b = rng.randrange(len(vertex_bits)), rng.randrange(len(vertex_bits))
            points.append(_midpoint(vertex_bits[a], vertex_bits[b]))
        elif style < 0.45 and len(basis_bits) >= 2:
            a, b = rng.randrange(len(basis_bits)), rng.randrange(len(basis_bits))
            points.append(_midpoint(basis_bits[a], basis_bits[b]))
        elif style < 0.65 and n >= 2:
            base = rng.randrange(len(vertex_bits))
            i, j = rng.sample(range(n), 2)
            d = rng.choice([31, 61, 97, MAX_DENOMINATOR])
            point = [x * d for x in vertex_bits[base]]
            point[i] += 1
            point[j] -= 1
            points.append((d, tuple(point)))
        else:
            # 2n values of rng.randint(1, MAX_DENOMINATOR), drawn as its
            # randrange draws them (docstring)
            draws = []
            while len(draws) < 2 * n:
                draw = getrandbits(bits)
                if draw < MAX_DENOMINATOR:
                    draws.append(1 + draw)
            numerators, denominators = draws[::2], draws[1::2]
            scale = lcm(*denominators)
            weights = [a * (scale // d) for a, d in zip(numerators, denominators)]
            total = sum(weights)
            g = gcd(total, *(w * r for w in weights))
            points.append((total // g, tuple(w * r // g for w in weights)))
    return points


def _midpoint(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    doubled = tuple(map(add, x, y))
    if 1 in doubled:
        return 2, doubled
    return 1, tuple(c >> 1 for c in doubled)
