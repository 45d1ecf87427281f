"""Shared helpers for the test suite."""

from omegacalc.engine import compute_omega
from omegacalc.matroid import Matroid


def omega_of(matroid: Matroid, method: str = "final-flats") -> int:
    """Invariant via the dispatcher, which handles loops uniformly."""
    return compute_omega(matroid, [method]).results[0].omega


# Specs whose fields have the wrong JSON type; each must be rejected as a
# malformed spec (exit 2 on the command line), not raise a Python error.
BAD_FIELD_SPECS = {
    "string-n": {"kind": "uniform", "n": "6", "r": 2},
    "float-n": {"kind": "uniform", "n": 6.0, "r": 2},
    "string-order-entry": {"kind": "schubert_order", "n": 3, "order": [0, 1, "x"], "set": [0]},
    "non-object-parts": {"kind": "direct_sum", "parts": [1, 2]},
    "bool-element": {"kind": "bases", "n": 2, "bases": [[True]]},
}
