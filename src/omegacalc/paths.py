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
from itertools import combinations
from typing import Sequence

from .bitops import popcount
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
    n, r = problem.n, problem.r
    if r == 0:
        return 0
    length = n - r - 1
    diagonals = r - 1
    if diagonals > length:
        return 0
    per_column: dict[int, list[PathConstraint]] = {}
    for c in problem.constraints:
        if c.x < 0 or c.x > n - r:
            raise ConstraintOutOfRange(f"column {c.x} outside [0, {n - r}]")
        per_column.setdefault(min(c.x, length), []).append(c)

    def apply(column: int, state: list[int]) -> None:
        for c in per_column.get(column, ()):
            if c.mode is Mode.BELOW:
                for d in range(c.y, len(state)):
                    state[d] = 0
            else:
                for d in range(min(c.y, len(state))):
                    state[d] = 0

    # state[d] = number of admissible prefixes with d diagonal steps
    state = [0] * (diagonals + 1)
    state[0] = 1
    apply(0, state)
    for step in range(1, length + 1):
        nxt = [0] * (diagonals + 1)
        for d, v in enumerate(state):
            if not v:
                continue
            nxt[d] += v
            if d + 1 <= diagonals:
                nxt[d + 1] += v
        apply(step, nxt)
        state = nxt
    return state[diagonals]


def count_paths_brute(problem: PathProblem) -> int:
    """Independent oracle: enumerate every step sequence explicitly."""
    n, r = problem.n, problem.r
    if r == 0:
        return 0
    length = n - r - 1
    diagonals = r - 1
    if diagonals > length:
        return 0
    for c in problem.constraints:
        if c.x < 0 or c.x > n - r:
            raise ConstraintOutOfRange(f"column {c.x} outside [0, {n - r}]")
    total = 0
    for positions in combinations(range(length), diagonals):
        ok = True
        for c in problem.constraints:
            upto = min(c.x, length)
            d = sum(1 for p in positions if p < upto)
            if c.mode is Mode.BELOW:
                if not d < c.y:
                    ok = False
                    break
            else:
                if not d >= c.y:
                    ok = False
                    break
        if ok:
            total += 1
    return total


class ChainPathCounter:
    """Incremental path counting for chain searches.

    Constraints are pushed with weakly increasing clamped column (coranks
    grow along a chain), and popped on backtrack.  The running state is the
    per-diagonal prefix count at the last constrained column; completing a
    chain advances the state freely to the end.
    """

    def __init__(self, n: int, r: int):
        self.length = n - r - 1
        self.diagonals = r - 1
        self.feasible = r >= 1 and 0 <= self.diagonals <= self.length
        state = [0] * (self.diagonals + 1) if self.feasible else [0]
        if self.feasible:
            state[0] = 1
        self._stack: list[tuple[int, list[int]]] = [(0, state)]

    def _advance(self, state: list[int], steps: int) -> list[int]:
        top = self.diagonals
        for _ in range(steps):
            nxt = [0] * (top + 1)
            for d, v in enumerate(state):
                if v:
                    nxt[d] += v
                    if d < top:
                        nxt[d + 1] += v
            state = nxt
        return state

    def push(self, x: int, y: int, mode: Mode) -> bool:
        """Apply one constraint; returns False when no path can survive."""
        if not self.feasible:
            self._stack.append(self._stack[-1])
            return False
        col, state = self._stack[-1]
        target = min(x, self.length)
        if target < col:
            raise ValueError("constraints must arrive in column order")
        state = self._advance(list(state), target - col)
        if mode is Mode.BELOW:
            for d in range(y, self.diagonals + 1):
                state[d] = 0
        else:
            for d in range(min(y, self.diagonals + 1)):
                state[d] = 0
        self._stack.append((target, state))
        return any(state)

    def pop(self) -> None:
        self._stack.pop()

    def completed_count(self) -> int:
        """Paths consistent with every pushed constraint."""
        if not self.feasible:
            return 0
        col, state = self._stack[-1]
        state = self._advance(list(state), self.length - col)
        return state[self.diagonals]


def chain_points(
    chain: Sequence[int], ranks: Sequence[int], n: int
) -> list[tuple[int, int]]:
    """Constraint points (|S| - a, a) for the interior members of a chain.

    The chain lists subset masks from bottom to top; members equal to the
    empty set or the full ground set never contribute a point.
    """
    full = (1 << n) - 1
    if len(chain) != len(ranks):
        raise ValueError("chain and rank sequence must align")
    out = []
    for mask, a in zip(chain, ranks):
        if mask == 0 or mask == full:
            continue
        out.append((popcount(mask) - a, a))
    return out

