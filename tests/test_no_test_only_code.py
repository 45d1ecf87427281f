"""Every function and method in src/omegacalc is used by src/omegacalc.

A helper that only its own tests call is code to maintain that the
program never runs.  This test parses the package with `ast` and fails on
any module-level function whose name nothing else in the package refers
to (as a name or an attribute), or any class method that nothing else in
the package reads as an attribute (`x.name`; a local variable of the same
name is not a use), unless the name is on the allowlist below with its
reason.  An oracle the tests compare the program against belongs in
tests/helpers.py, not here.  Command-line entry points need no entry:
`main` is called under `__main__` and every `cmd_*` is bound with
`set_defaults(func=...)`.  Dunder methods are called by Python itself.
"""

import ast
from collections import Counter
from pathlib import Path

import omegacalc

PACKAGE = Path(omegacalc.__file__).parent

ALLOWED = {
    # the Bergman-fan layer, exercised by acceptance criterion 8
    "as_weights": "Bergman: integer weight vectors",
    "z_max_basis": "Bergman: a maximum-weight basis",
    "x_values": "Bergman: the x-profile of a weight vector",
    "y_values": "Bergman: the y-profile of a weight vector",
    "bergman_contains": "Bergman fan membership",
    "thickened_bergman_contains": "thickened Bergman fan membership",
    # public API
    "omega_by_variant": "exported in omegacalc.__all__: the invariant by one route",
}


def _references(node: ast.AST) -> tuple[Counter, Counter]:
    """Counts of the names and of the attribute reads under node."""
    names: Counter = Counter()
    attributes: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attributes[sub.attr] += 1
    return names, attributes


def _definitions(tree: ast.Module):
    """(function, is_method) for every module-level function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item, True


def _unreferenced() -> set[str]:
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    names, attributes = Counter(), Counter()
    for tree in trees.values():
        tree_names, tree_attributes = _references(tree)
        names += tree_names
        attributes += tree_attributes
    found = set()
    for tree in trees.values():
        for fn, is_method in _definitions(tree):
            if fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            own_names, own_attributes = _references(fn)
            # a recursive call inside the function itself is not a use
            uses = attributes[fn.name] - own_attributes[fn.name]
            if not is_method:
                uses += names[fn.name] - own_names[fn.name]
            if uses <= 0:
                found.add(fn.name)
    return found


def test_no_function_is_used_by_tests_alone():
    unused = _unreferenced() - ALLOWED.keys()
    assert not unused, f"defined in src/omegacalc but never used there: {sorted(unused)}"


def test_allowlist_names_only_unreferenced_functions():
    stale = ALLOWED.keys() - _unreferenced()
    assert not stale, f"allowlisted but now used in src/omegacalc: {sorted(stale)}"
