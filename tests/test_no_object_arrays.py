"""Python-int `object` arrays appear in src/omegacalc in one place only.

The kernels run in int64, each with its bound proved in a docstring
(`altsum`'s cube kernel and predecessor walk, `polytopes.subset_sums`).
An `object` array is the slow escape from such a proof, so this test
parses the package with `ast` and fails on any use of `object` as a dtype
outside `polytopes.subset_sums`, whose dtype follows its input: a batch
of points with huge denominators does not fit int64.  A use is the name `object`,
the attribute `object_`, or the dtype string "O" or "object" passed as a
`dtype=` keyword or to `astype`.
"""

import ast
from pathlib import Path

import omegacalc

PACKAGE = Path(omegacalc.__file__).parent

ALLOWED = {"polytopes.subset_sums"}


def _is_object_dtype(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "object"
    if isinstance(node, ast.Attribute):
        return node.attr == "object_"
    if isinstance(node, ast.keyword) and node.arg == "dtype":
        value = node.value
        return isinstance(value, ast.Constant) and value.value in ("O", "object")
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr == "astype" and any(
            isinstance(a, ast.Constant) and a.value in ("O", "object") for a in node.args
        )
    return False


def _uses(tree: ast.AST, scope: str):
    """(scope, line) of every object dtype, scope the innermost function."""
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope.split('.')[0]}.{child.name}"
        if _is_object_dtype(child):
            yield inner, child.lineno
        yield from _uses(child, inner)


def _object_dtypes() -> list[tuple[str, int]]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend(_uses(tree, path.stem))
    return found


def test_object_arrays_only_where_the_input_decides_the_dtype():
    outside = [(scope, line) for scope, line in _object_dtypes() if scope not in ALLOWED]
    assert not outside, f"object dtype outside {sorted(ALLOWED)}: {outside}"


def test_the_allowed_use_is_still_there():
    assert {scope for scope, _ in _object_dtypes()} == ALLOWED
