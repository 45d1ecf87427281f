"""Counting the lattice paths underlying every summation formula.

A path for parameters (n, r) starts at (1/2, 1/2), takes L = n - r - 1
steps, each (1, 0) or (1, 1), and ends at (n - r - 1/2, r - 1/2), so it
uses exactly r - 1 diagonal steps.  A constraint pins the path against an
integer point (x, y): with D(x) = number of diagonal steps among the first
min(x, L) steps, BELOW requires D(x) < y and ABOVE requires D(x) >= y.

The clamp at min(x, L) extends paths horizontally past both endpoints;
the two modes then partition the paths at every admissible point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ConstraintOutOfRange


class Mode(Enum):
    BELOW = "strictly-below"
    ABOVE = "weakly-above"


@dataclass(frozen=True)
class PathConstraint:
    x: int
    y: int
    mode: Mode


@dataclass(frozen=True)
class PathProblem:
    n: int
    r: int
    constraints: tuple[PathConstraint, ...] = ()


def count_paths(problem: PathProblem) -> int:
    """Number of paths satisfying every constraint; exact big integer."""
    counter = ChainPathCounter(problem.n, problem.r)
    if not counter.feasible:
        return 0
    last = problem.n - problem.r
    for c in problem.constraints:
        if c.x < 0 or c.x > last:
            raise ConstraintOutOfRange(f"column {c.x} outside [0, {last}]")
    for c in sorted(problem.constraints, key=lambda c: min(c.x, counter.length)):
        if not counter.push(c.x, c.y, c.mode):
            return 0
    return counter.completed_count()


def advance(state: list[int], steps: int) -> list[int]:
    """The per-diagonal counts `steps` free columns further on: A^steps.

    (A^k v)[d] = sum_j C(k, d - j) v[j], truncated at the last diagonal,
    for any integer k: A truncated to the first diagonals is unitriangular,
    so the truncation of A^-k (entries C(-k, i) = (-1)^i C(k + i - 1, i))
    is the inverse of the truncation of A^k.
    """
    if not steps:
        return list(state)
    binom = [1]
    for i in range(1, len(state)):  # C(k, i) = C(k, i - 1) (k - i + 1) / i
        binom.append(binom[-1] * (steps - i + 1) // i)
    return [
        sum(binom[d - j] * v for j, v in enumerate(state[: d + 1]) if v)
        for d in range(len(state))
    ]


def admits(x, y, mode: Mode, r: int):
    """Whether a path prefix can meet a constraint of height y at clamped
    column x, elementwise over arrays: the prefix counts there are C(x, d),
    d < r, so BELOW needs y >= 1 and ABOVE y <= min(x, r - 1)."""
    if mode is Mode.BELOW:
        return y >= 1
    return (y <= x) & (y <= r - 1)


def restrict(state: list[int], y: int, mode: Mode) -> None:
    """Zero, in place, the diagonal counts that a constraint of height y
    at the state's column excludes."""
    y = max(y, 0)
    if mode is Mode.BELOW:
        state[y:] = [0] * (len(state) - y)
    else:
        state[:y] = [0] * min(y, len(state))


class ChainPathCounter:
    """Path counting along the constraints of one chain.

    Constraints are pushed with weakly increasing clamped column (coranks
    grow along a chain).  The state is the per-diagonal prefix count at
    the last constrained column; completing the chain advances it freely
    to the end.
    """

    def __init__(self, n: int, r: int):
        self.length = n - r - 1
        self.diagonals = r - 1
        self.feasible = r >= 1 and 0 <= self.diagonals <= self.length
        self.column = 0
        self.state = [1] + [0] * self.diagonals if self.feasible else [0]

    def push(self, x: int, y: int, mode: Mode) -> bool:
        """Apply one constraint; returns False when no path can survive."""
        if not self.feasible:
            return False
        target = min(x, self.length)
        if target < self.column:
            raise ValueError("constraints must arrive in column order")
        state = advance(self.state, target - self.column)
        restrict(state, y, mode)
        self.column, self.state = target, state
        return any(state)

    def completed_count(self) -> int:
        """Paths consistent with every pushed constraint."""
        if not self.feasible:
            return 0
        return advance(self.state, self.length - self.column)[self.diagonals]
