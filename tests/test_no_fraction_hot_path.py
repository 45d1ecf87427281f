"""No `Fraction` is built on the way of a point, from input to output.

A point is an integer row (D, W), x_e = W_e / D, from the `--points`
parser (`specfile.load_points_file`) or `corpus.sample_points` to
`polytopes.subset_sums` and `check_identity`, and to the MISMATCH
printer in `cli._identities_one`, which reduces each W_e / D by a gcd.
Building Fractions in the sampler and taking them apart again per
coordinate cost about a fifth of the median input time of the
benchmark's identities8 workload (closure n = 8), and importing
`fractions` (with `decimal`) cost the command line 1.5-2.6 ms at start.
This test parses the package with `ast` and fails on any call of
`Fraction` (or `fractions.Fraction`) outside the Bergman-fan layer,
which the command line does not reach, and checks that importing the
command line leaves `fractions` and `decimal` unloaded.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import omegacalc

PACKAGE = Path(omegacalc.__file__).parent

HOT_MODULES = {"corpus", "polytopes"}

EXPECTED = {"bergman.as_weights"}


def _is_fraction_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "Fraction"
    return isinstance(func, ast.Attribute) and func.attr == "Fraction"


def _calls(tree: ast.AST, scope: str):
    """(scope, line) of every Fraction call, scope the innermost function."""
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope.split('.')[0]}.{child.name}"
        if _is_fraction_call(child):
            yield inner, child.lineno
        yield from _calls(child, inner)


def _fraction_calls() -> list[tuple[str, int]]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend(_calls(tree, path.stem))
    return found


def test_no_fraction_call_in_the_sampler_or_polytopes():
    hot = [(scope, line) for scope, line in _fraction_calls() if scope.split(".")[0] in HOT_MODULES]
    assert not hot, f"Fraction built on the sampled-point path: {hot}"


def test_fraction_calls_are_in_the_bergman_layer_alone():
    assert {scope for scope, _ in _fraction_calls()} == EXPECTED


def test_the_command_line_imports_neither_fractions_nor_decimal():
    # a fresh interpreter: the test session has imported both already
    src = str(PACKAGE.parent)
    script = "import sys, omegacalc.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
