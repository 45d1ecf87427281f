"""No `Fraction` is built between the point sampler and the rank test.

A sampled point is an integer row (D, W) from `corpus.sample_points` to
`polytopes.subset_sums` and `check_identity`.  Building Fractions there
and taking them apart again per coordinate cost about a fifth of the
median input time of the benchmark's identities8 workload (closure
n = 8).  This test parses the package with `ast` and fails on any call
of `Fraction` (or `fractions.Fraction`) in the modules `corpus` and
`polytopes`.  Fractions are built only where a point enters or leaves
as text: the points-file parser, the MISMATCH printer in
`cli._identities_one`, and the Bergman-fan layer, which the command line
does not reach.
"""

import ast
from pathlib import Path

import omegacalc

PACKAGE = Path(omegacalc.__file__).parent

HOT_MODULES = {"corpus", "polytopes"}

EXPECTED = {"bergman.as_weights", "cli._identities_one", "specfile.load_points_file"}


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


def test_fraction_calls_are_where_points_enter_or_leave_as_text():
    assert {scope for scope, _ in _fraction_calls()} == EXPECTED
