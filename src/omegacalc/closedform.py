"""Closed forms for the invariant in the regimes where one is known.

The dispatcher tries, in order: the trivial vanishing rules (too large a
rank, loops), multiplicativity over connected components, the
no-crowded-flats binomial, vanishing on an overcrowded set, the explicit
rank <= 4 formulas on the simplification, and the n = 2r + 1 criterion.
Returns None when nothing applies.  The paper's rank-1 and n = 2r
results need no rule of their own: the binomial and the overcrowded-set
rule decide every such input first (proof in `omega_closed_form`).  The
binomial's test reads the rank table (`_has_proper_crowded_flat`); the
lattice of flats is built only for the lines and planes of the rank-3
and rank-4 formulas.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .bitops import popcount
from .crowding import crowding_array, has_overcrowded_set, minimal_crowded_sets
from .errors import NonIntegralRank4, OmegacalcError
from .lattice import flat_lattice
from .matroid import Matroid


def omega_closed_form(matroid: Matroid) -> int | None:
    """The invariant by the first closed form that applies, else None.

    The lemma: the overcrowded-set test is reached only with M connected
    and loop-free, and there no nonempty proper T has r(T) + r(E - T) =
    r(E), so T is overcrowded in E iff c(T) >= c(E), c = |T| - 2r(T).
    Past that test every nonempty proper T has c(T) < c(E) = n - 2r.
    - Rank 1: a loop-free rank-1 matroid has only the flats 0 and E, so
      the binomial has already given C(n - 2, 0) = 1.  The rank <= 4
      formulas therefore see ranks 2 to 4 only (r >= 1 as n >= 1).
    - n = 2r, value 0 if a nonempty proper subset is crowded, else 1: a
      proper crowded flat has c >= 0 = c(E), so the overcrowded-set rule
      has given 0; without one the binomial has given C(r - 1, r - 1) =
      1, and by the lemma no nonempty proper subset is crowded.
    - n = 2r + 1: see `_near_middle`.
    """
    n, r = matroid.n, matroid.r
    if n < 2 * r:
        return 0
    if matroid.has_loops():
        return 0
    components = matroid.connected_components()
    if len(components) > 1:
        product = 1
        unknown = False
        for comp in components:
            value = omega_closed_form(matroid.restrict(comp))
            if value == 0:
                return 0
            if value is None:
                unknown = True
            else:
                product *= value
        return None if unknown else product
    if not _has_proper_crowded_flat(matroid):
        return comb(n - r - 1, r - 1)
    if has_overcrowded_set(matroid):
        return 0
    if r <= 4:
        return _low_rank(matroid)
    if n == 2 * r + 1:
        return _near_middle(matroid)
    return None


def _has_proper_crowded_flat(matroid: Matroid) -> bool:
    """Whether a flat other than 0 and E has crowding c >= 0, read off the
    rank table without the lattice of flats: the same as whether a nonempty
    S with r(S) < r(E) has c(S) >= 0, c(X) = |X| - 2 r(X), in any matroid.
    Proof: cl(S) contains S and has the same rank, so c(cl S) >= c(S), and
    cl(S) is nonempty and differs from E exactly when r(S) < r(E).
    Conversely, a flat F other than 0 and E is nonempty with r(F) < r(E),
    so it is such an S itself."""
    rank = matroid.ensure_rank_table()
    return bool(((crowding_array(matroid) >= 0) & (rank < matroid.r))[1:].any())


def _low_rank(matroid: Matroid) -> int:
    """Rank 2 to 4 formulas, evaluated on the simplification.

    The invariant is unchanged by adding parallel copies of non-loop
    elements, so parallel classes are collapsed first.
    """
    simple = matroid.simplify()
    n = simple.n
    r = simple.r
    if r == 2:
        return n - 3
    is_flat, rank = flat_lattice(simple).is_flat, simple.ensure_rank_table()
    line_masks, plane_masks = (np.flatnonzero(is_flat & (rank == k)).tolist() for k in (2, 3))
    if r == 3:
        return comb(n - 4, 2) - sum(comb(popcount(lm) - 2, 2) for lm in line_masks)
    # three times the formula, whose coefficients are thirds
    total = 3 * (comb(n - 5, 3) - sum(comb(popcount(p) - 3, 3) for p in plane_masks))
    for lm in line_masks:
        l = popcount(lm)
        total -= comb(l - 2, 2) * (3 * n - 2 * l - 13)
        for pm in plane_masks:
            if (lm & ~pm) == 0:
                total += comb(l - 2, 2) * (3 * popcount(pm) - 2 * l - 7)
    if total % 3:
        raise NonIntegralRank4(f"rank-4 formula evaluated to {total}/3")
    return total // 3


def _near_middle(matroid: Matroid) -> int:
    """Connected, loop-free, n = 2r + 1, rank >= 5, a proper crowded flat
    and no overcrowded set: what the dispatcher has established here.

    The criterion vanishes if a nonempty proper subset has positive
    crowding, but none has here: by the lemma in `omega_closed_form`
    every nonempty proper T has c(T) < c(E) = 1.  So the minimal nonempty
    crowded sets are either pairwise disjoint (value 0) or pairwise cover
    the ground set (value (p - 1) / 2, p odd).
    """
    full = matroid.full_mask
    minimal = minimal_crowded_sets(matroid)
    p = len(minimal)
    if p < 2:
        raise OmegacalcError(
            "a connected near-middle matroid has at least two minimal crowded sets"
        )
    disjoint = all(
        not (minimal[i] & minimal[j])
        for i in range(p)
        for j in range(i + 1, p)
    )
    if disjoint:
        return 0
    covering = all(
        (minimal[i] | minimal[j]) == full
        for i in range(p)
        for j in range(i + 1, p)
    )
    if not covering:
        raise OmegacalcError(
            "minimal crowded sets must be pairwise disjoint or pairwise covering"
        )
    if p % 2 == 0:
        raise OmegacalcError("pairwise covering minimal crowded sets must be odd in number")
    return (p - 1) // 2
