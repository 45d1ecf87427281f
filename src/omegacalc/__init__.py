"""Exact computation of the omega invariant of small matroids."""

from .chainsums import Variant, covalue, omega_by_variant, schubert_omega
from .closedform import omega_closed_form
from .engine import MethodResult, OmegaReport, compute_omega
from .lattice import FlatLattice, flat_lattice
from .matroid import (
    Matroid,
    from_bases,
    schubert_from_order,
    schubert_lower,
    schubert_upper,
    uniform,
)
from .paths import Mode, PathConstraint, PathProblem, count_paths

__all__ = [
    "FlatLattice",
    "Matroid",
    "MethodResult",
    "Mode",
    "OmegaReport",
    "PathConstraint",
    "PathProblem",
    "Variant",
    "compute_omega",
    "count_paths",
    "covalue",
    "flat_lattice",
    "from_bases",
    "omega_by_variant",
    "omega_closed_form",
    "schubert_from_order",
    "schubert_lower",
    "schubert_omega",
    "schubert_upper",
    "uniform",
]
