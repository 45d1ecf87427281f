"""Every matroid on at most five elements, up to isomorphism, on every route.

Random corpora sample the inputs; this covers them at small n.  The
matroids are found by brute force: every nonempty family of r-subsets of
an n-set goes through `from_bases`, which rejects the families that are
not basis families, and the survivors are kept one per isomorphism class,
keyed by their least relabelled basis list.  The counts are the known
numbers of matroids up to isomorphism, 2, 4, 8, 17 and 38 for n = 1-5
(OEIS A055545; Mayhew and Royle, *Matroids with nine elements*, 2008).
n = 6 and 7 need single-element extensions (one per modular cut) instead
of brute force: 2^C(6, 3) families are too many.
"""

from functools import cache
from itertools import combinations, permutations

import pytest

from omegacalc.closedform import omega_closed_form
from omegacalc.engine import compute_omega
from omegacalc.errors import NotAMatroid
from omegacalc.matroid import Matroid, from_bases

COUNTS = {1: 2, 2: 4, 3: 8, 4: 17, 5: 38}


def _relabel(mask: int, perm: tuple[int, ...]) -> int:
    return sum(1 << image for e, image in enumerate(perm) if mask >> e & 1)


@cache
def matroids_on(n: int) -> tuple[Matroid, ...]:
    """One matroid per isomorphism class on n elements."""
    perms = list(permutations(range(n)))
    found: dict[tuple[int, ...], Matroid] = {}
    for r in range(n + 1):
        subsets = [sum(1 << e for e in c) for c in combinations(range(n), r)]
        for pick in range(1, 1 << len(subsets)):
            bases = [s for i, s in enumerate(subsets) if pick >> i & 1]
            try:
                matroid = from_bases(n, bases)
            except NotAMatroid:
                continue
            key = min(tuple(sorted(_relabel(b, p) for b in bases)) for p in perms)
            found.setdefault(key, matroid)
    return tuple(found.values())


def omega(matroid: Matroid) -> int:
    """The consensus of every route that applies, which must agree and be
    nonnegative."""
    report = compute_omega(matroid, "all")
    assert report.agree, report
    assert all(res.omega >= 0 for res in report.results), report
    return report.consensus


@cache
def census(n: int) -> tuple[tuple[Matroid, int], ...]:
    """Each matroid on n elements, up to isomorphism, with its omega."""
    return tuple((m, omega(m)) for m in matroids_on(n))


@pytest.mark.parametrize("n", sorted(COUNTS))
def test_every_matroid_on_n_elements_agrees_on_every_route(n):
    assert len(census(n)) == COUNTS[n]
    for m, value in census(n):
        assert compute_omega(m, "auto").results[0].omega == value
        assert omega_closed_form(m) in (None, value)


def test_omega_multiplies_over_direct_sums():
    pairs = 0
    for n_first in range(1, 5):
        for n_second in range(1, 6 - n_first):
            for first, first_value in census(n_first):
                for second, second_value in census(n_second):
                    assert omega(first.direct_sum(second)) == first_value * second_value
                    pairs += 1
    assert pairs == 200


def test_parallel_extension_keeps_omega_and_series_extension_kills_it():
    # at an element that is neither a loop nor a coloop: a parallel
    # extension keeps the g-polynomial and the rank, a series extension
    # keeps the g-polynomial and raises the rank, so its top coefficient is 0
    extended = 0
    for n in COUNTS:
        for m, value in census(n):
            for e in range(n):
                if m.rank(1 << e) == 0 or m.rank(m.full_mask & ~(1 << e)) < m.r:
                    continue
                assert omega(m.parallel_extend(e)) == value
                assert omega(m.dual().parallel_extend(e).dual()) == 0
                extended += 1
    assert extended == 176
