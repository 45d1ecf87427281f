"""The closed-form dispatcher builds no lattice of flats outside `_low_rank`.

`closedform._has_proper_crowded_flat` once built the whole lattice of
flats (`crowded_flats`, through `flat_lattice`) to answer one yes/no
question, which took about a third of the dispatcher's time per input on
the benchmark's auto-mixed12 workload (closure n = 12).  It now reads
the rank table alone.  This test parses `closedform.py` with `ast` and
fails if any function but `_low_rank`, which reads the lines and planes
of the rank-3 and rank-4 formulas off the flat marks, names
`flat_lattice`, or if anything there, imports included, names
`crowded_flats`.
"""

import ast
from pathlib import Path

import omegacalc

MODULE = Path(omegacalc.__file__).parent / "closedform.py"


def _named(tree: ast.AST, scope: str):
    """(name, scope, line) of every name, attribute and imported name,
    scope the innermost function, "" at module level."""
    for child in ast.iter_child_nodes(tree):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        if isinstance(child, ast.Name):
            yield child.id, scope, child.lineno
        elif isinstance(child, ast.Attribute):
            yield child.attr, scope, child.lineno
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            for alias in child.names:
                yield alias.name.split(".")[-1], scope, child.lineno
        yield from _named(child, inner)


def _uses(name: str) -> list[tuple[str, int]]:
    tree = ast.parse(MODULE.read_text(encoding="utf-8"))
    return [(scope, line) for found, scope, line in _named(tree, "") if found == name]


def test_only_the_low_rank_formulas_build_the_lattice():
    calls = {scope for scope, _ in _uses("flat_lattice") if scope}
    assert calls == {"_low_rank"}, _uses("flat_lattice")


def test_the_dispatcher_never_names_crowded_flats():
    assert _uses("crowded_flats") == []
