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
(`record_arrays`, one subset-max `altsum.subset_pass`), and looks at the
components of a candidate only when best and c tie.  Sets of masks pass
as boolean marks over the 2^n masks: `crowded_sets`, `crowded_flats`
and `crowding_records`, which decides the records among any marks at
once.
"""

from __future__ import annotations

import numpy as np

from .altsum import popcounts, subset_pass
from .bitops import popcount
from .lattice import flat_lattice
from .matroid import Matroid


def crowding(matroid: Matroid, mask: int) -> int:
    return popcount(mask) - 2 * matroid.rank(mask)


def crowding_array(matroid: Matroid) -> np.ndarray:
    """|S| - 2 r(S) for every mask S, as int8 (values lie in [-32, 16])."""
    return popcounts(matroid.n) - 2 * matroid.ensure_rank_table()


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
    Koivisto, STOC 2007), O(n 2^n) on `subset_pass`.  After the steps on a
    set J of elements, f(t) is the max over the nonempty X <= t that agree
    with t outside J and best(t) the same over X != t; the step on e takes
    both from f(t - e)."""
    f = c.copy()
    f[0] = -128  # the empty set is no candidate
    _, best = subset_pass((f, np.full_like(f, -128)), _subset_max_step)
    return best


def _subset_max_step(e: int, f: np.ndarray, best: np.ndarray) -> None:
    lower, upper, above = f[:, 0], f[:, 1], best[:, 1]
    np.maximum(above, lower, out=above)
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
    c, best = record_arrays(matroid)
    top, below = c.item(mask), best.item(mask)
    if top < 0 or below > top:
        return False
    if below < top:
        return True
    return all(best.item(part) < c.item(part) for part in matroid.restriction_components(mask))


def crowding_records(matroid: Matroid, marks: np.ndarray) -> np.ndarray:
    """Marks of the crowding records among the masks marked in `marks`:
    the verdict of `is_crowding_record` at every mask at once, from
    `record_arrays`; it is asked only where best(t) = c(t) >= 0, where the
    verdict needs the components of M|t."""
    c, best = record_arrays(matroid)
    records = marks & (c >= 0) & (best <= c)
    for t in np.flatnonzero(records & (best == c)).tolist():
        records[t] = is_crowding_record(matroid, t)
    return records


def zero_part(matroid: Matroid, mask: int) -> int:
    """The union (the sum: they are disjoint) of the components of the
    restriction to mask whose crowding is exactly zero."""
    return sum(c for c in matroid.restriction_components(mask) if crowding(matroid, c) == 0)


def crowded_sets(matroid: Matroid) -> np.ndarray:
    """Marks of the crowded subsets, indexed by mask."""
    return crowding_array(matroid) >= 0


def crowded_flats(matroid: Matroid) -> np.ndarray:
    """Marks of the crowded flats, indexed by mask."""
    return flat_lattice(matroid).is_flat & crowded_sets(matroid)


def minimal_crowded_sets(matroid: Matroid) -> list[int]:
    """Inclusion-minimal nonempty sets of crowding >= 0, ascending by mask:
    the t with c(t) >= 0 and best(t) < 0 (`record_arrays`: no nonempty
    proper subset of t is crowded) but the first of them, the empty set."""
    c, best = record_arrays(matroid)
    return np.flatnonzero((c >= 0) & (best < 0))[1:].tolist()


def has_overcrowded_set(matroid: Matroid) -> bool:
    """Any set overcrowded in the full ground set forces the invariant to 0.

    This is `not is_crowding_record(matroid, full)`: the empty set and E
    are never overcrowded in E.  On a matroid whose record arrays are not
    built yet, this one array expression measured 3.5-4x faster than the
    record test at E, which builds them first (0.04 against 0.15-0.16 ms
    on closure n = 12, 0.09-0.16 against 0.36-0.56 ms on the n = 16
    closure and Schubert corpora), a few tenths of a millisecond per
    closed-form call; with the rank table built, 0.014-0.024 against
    0.090-0.143 ms on the 29 connected, loop-free closure n = 12 seed 1
    inputs (2-vCPU x86 host), about 0.1 ms more per call that reaches the
    rule, against auto-mixed12's 0.25 ms `input_p90_s`.  It stays for that
    speed, and `COVERAGE` in perfbench/run.py requires its span."""
    full = matroid.full_mask
    stress = crowding_array(matroid)
    rank = matroid.ensure_rank_table()
    top = stress[full]
    split = rank + rank[::-1] != matroid.r
    return bool(((stress > top) | ((stress == top) & split))[1:full].any())
