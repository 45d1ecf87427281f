"""Per-element cube views appear in src/omegacalc in `altsum` only.

A step on element e of a 2^n array indexed by mask pairs S - e with
S + e through the view `a.reshape(-1, 2, 2^e)`, which works in runs of
2^e entries: short for the low elements.  `altsum.subset_pass` steps on
those in a transposed layout, and `altsum._zeta_sums` stores its rows
mask-major, so both work in long runs.  This test parses the package
with `ast` and fails on any `reshape` call whose shape holds -1
followed by 2 outside those two functions, so that the next cube loop
runs on `subset_pass` instead of stepping by hand.
"""

import ast
from pathlib import Path

import omegacalc

PACKAGE = Path(omegacalc.__file__).parent

ALLOWED = {"altsum.subset_pass", "altsum._zeta_sums"}


def _constant(node: ast.AST):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _constant(node.operand)
        return None if inner is None else -inner
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    return None


def _shape_items(node: ast.AST):
    """The items of a shape: call arguments, tuples and tuple sums."""
    if isinstance(node, ast.Tuple):
        for item in node.elts:
            yield from _shape_items(item)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        yield from _shape_items(node.left)
        yield from _shape_items(node.right)
    else:
        yield node


def _is_cube_view(node: ast.AST) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    if node.func.attr != "reshape":
        return False
    items = [_constant(item) for arg in node.args for item in _shape_items(arg)]
    return any(a == -1 and b == 2 for a, b in zip(items, items[1:]))


def _views(tree: ast.AST, scope: str):
    """(scope, line) of every cube view, scope the innermost function."""
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope.split('.')[0]}.{child.name}"
        if _is_cube_view(child):
            yield inner, child.lineno
        yield from _views(child, inner)


def _cube_views() -> list[tuple[str, int]]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend(_views(tree, path.stem))
    return found


def test_cube_views_only_in_the_transposed_pass_and_the_zeta_kernel():
    outside = [(scope, line) for scope, line in _cube_views() if scope not in ALLOWED]
    assert not outside, f"per-element cube view outside {sorted(ALLOWED)}: {outside}"


def test_the_detector_sees_each_form():
    views = (
        "a.reshape(-1, 2, 1 << e)",
        "a.reshape((-1, 2, run))",
        "a.reshape(a.shape[:-1] + (-1, 2, run))",
        "v.reshape(-1, 2, 4, 2, 1)",
    )
    others = ("a.reshape(-1, 1 << n)", "a.reshape(2, -1)", "a.reshape(1 << n, rows, width)")
    for source in views + others:
        assert _is_cube_view(ast.parse(source, mode="eval").body) == (source in views), source


def test_the_allowed_uses_are_still_there():
    assert {scope for scope, _ in _cube_views()} == ALLOWED
