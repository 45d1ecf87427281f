"""Crowding of subsets: the quantity |S| - 2 rank(S) and its combinatorics.

A set is crowded when its crowding is >= 0.  T is overcrowded in S when
its crowding exceeds S's, or equals it without T being a direct-sum
component of the restriction to S, i.e. with r(T) + r(S - T) != r(S).  A
crowding record has no overcrowded subset; records are what survive the
strongest cancellation of the summation engines.

Questions about every subset are single array expressions on the
matroid's rank array and crowding_array; the complement of mask m in the
ground set is index full - m, so the array read backwards pairs each T
with E - T.  The record test reads two cached arrays per matroid, the
crowding c and best, the largest c over the nonempty proper subsets
(`record_arrays`, one subset-max pass), and looks at the components of a
candidate only when best and c tie.
"""

from __future__ import annotations

import numpy as np

from .altsum import popcounts
from .bitops import popcount
from .lattice import flat_lattice
from .matroid import Matroid


def crowding(matroid: Matroid, mask: int) -> int:
    return popcount(mask) - 2 * matroid.rank(mask)


def crowding_array(matroid: Matroid) -> np.ndarray:
    """|S| - 2 r(S) for every mask S, as int8 (values lie in [-32, 16])."""
    return popcounts(matroid.n) - 2 * matroid.ensure_rank_table()


LOW_BITS = 5  # elements whose subset-max step runs on the transposed copy


def record_arrays(matroid: Matroid) -> tuple[np.ndarray, np.ndarray]:
    """(c, best), read-only int8 arrays indexed by mask, built once per
    matroid: c(t) = |t| - 2 r(t), and best(t) the largest c(X) over the
    nonempty proper subsets X of t, -128 at 0 and at the singletons."""
    arrays = matroid._record_arrays
    if arrays is None:
        c = crowding_array(matroid)
        best = _proper_subset_max(c)
        c.flags.writeable = best.flags.writeable = False
        arrays = matroid._record_arrays = (c, best)
    return arrays


def _proper_subset_max(c: np.ndarray) -> np.ndarray:
    """best(t) = max c(X) over the nonempty proper X < t: the subset zeta
    transform with max for + (Yates; Bjorklund, Husfeldt, Kaski and
    Koivisto, STOC 2007), O(n 2^n).  After the steps on elements 0..j,
    f(t) is the max over the nonempty X <= t that agree with t above j and
    best(t) the same over X != t; the step on j takes both from f(t - j).
    A plain step on element e works in runs of 2^e entries, so the low
    elements step on the transposed copy, mask h 2^k + l at l 2^(n-k) + h,
    in runs of 2^(e+n-k)."""
    n = c.size.bit_length() - 1
    k = min(n, LOW_BITS)
    f = c.reshape(-1, 1 << k).T.copy()
    f[0, 0] = -128  # the empty set is no candidate
    best = np.full_like(f, -128)
    _max_steps(f, best, range(k), 1 << (n - k))
    f, best = f.T.ravel(), best.T.ravel()  # back to mask order (copies)
    _max_steps(f, best, range(k, n), 1)
    return best


def _max_steps(f: np.ndarray, best: np.ndarray, elements: range, run: int) -> None:
    for e in elements:
        lower = f.reshape(-1, 2, run << e)[:, 0]
        upper = best.reshape(-1, 2, run << e)[:, 1]
        np.maximum(upper, lower, out=upper)
        upper = f.reshape(-1, 2, run << e)[:, 1]
        np.maximum(upper, lower, out=upper)


def is_crowding_record(matroid: Matroid, mask: int) -> bool:
    """Whether mask is a crowding record: no X within t = mask has
    crowding c(X) = |X| - 2 r(X) above c(t), or equal to it with r(X) +
    r(t - X) != r(t).  Read from `record_arrays`: 0 is a record; t is none
    if c(t) < 0 (the empty set is above it) or best(t) > c(t); t is one if
    best(t) < c(t); on a tie, t is one iff every component C of M|t has
    best(C) < c(C), by the lemma below (c(C) >= 0 holds on a tie: C = t, or
    c(t) - c(C) = c(t - C) <= best(t) = c(t)).

    t is a record iff every component C of M|t has c(C) >= 0 and c(Y) <
    c(C) for every nonempty proper Y < C.  Proof: c is additive over the
    components of M|t, and X <= t is a separator of M|t iff c(X) + c(t -
    X) = c(t).  If: every X <= t has c(X) = sum of c(X & C) <= c(t), and
    equality forces each X & C to be C, or empty where c(C) = 0, so X is a
    union of components, a separator.  Only if: for nonempty proper Y < C,
    X = (t - C) | Y is no separator and c(X) = c(t) - c(C) + c(Y), so c(Y)
    < c(C); and X = t - C gives c(t) - c(C) <= c(t), so c(C) >= 0."""
    cached = matroid._records.get(mask)
    if cached is not None:
        return cached
    c, best = record_arrays(matroid)
    top, below = c.item(mask), best.item(mask)
    if top < 0 or below > top:
        verdict = False
    elif below < top:
        verdict = True
    else:
        parts = matroid.restriction_components(mask)
        verdict = all(best.item(part) < c.item(part) for part in parts)
    matroid._records[mask] = verdict
    return verdict


def zero_part(matroid: Matroid, mask: int) -> int:
    """The union (the sum: they are disjoint) of the components of the
    restriction to mask whose crowding is exactly zero."""
    return sum(c for c in matroid.restriction_components(mask) if crowding(matroid, c) == 0)


def crowded_sets(matroid: Matroid) -> list[int]:
    """All crowded subsets, ascending by cardinality then value."""
    masks = np.flatnonzero(crowding_array(matroid) >= 0)
    return masks[np.argsort(popcounts(matroid.n)[masks], kind="stable")].tolist()


def crowded_flats(matroid: Matroid) -> list[int]:
    """All crowded flats, ascending by cardinality then value."""
    flats = np.flatnonzero(flat_lattice(matroid).is_flat & (crowding_array(matroid) >= 0))
    return flats[np.argsort(popcounts(matroid.n)[flats], kind="stable")].tolist()


def minimal_crowded_sets(matroid: Matroid) -> list[int]:
    """Inclusion-minimal nonempty sets of crowding >= 0."""
    found: list[int] = []
    for mask in crowded_sets(matroid):
        if mask == 0:
            continue
        if any((t & ~mask) == 0 for t in found):
            continue
        found.append(mask)
    return found


def has_overcrowded_set(matroid: Matroid) -> bool:
    """Any set overcrowded in the full ground set forces the invariant to 0.

    This is `not is_crowding_record(matroid, full)`: the empty set and E
    are never overcrowded in E.  On a matroid whose record arrays are not
    built yet, this one array expression measured 3.5-4x faster than the
    record test at E, which builds them first (0.04 against 0.15-0.16 ms
    on closure n = 12, 0.09-0.16 against 0.36-0.56 ms on the n = 16
    closure and Schubert corpora), a few tenths of a millisecond per
    closed-form call.  It stays only because `COVERAGE` in perfbench/run.py
    requires its span, crowding.overcrowded.s, on auto-mixed12."""
    full = matroid.full_mask
    stress = crowding_array(matroid)
    rank = matroid.ensure_rank_table()
    top = stress[full]
    split = rank + rank[::-1] != matroid.r
    return bool(((stress > top) | ((stress == top) & split))[1:full].any())
