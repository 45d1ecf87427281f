"""The command line samples points and prints results; it checks nothing.

Which identity kinds apply, how the points are batched and which kind is
reported from another's kernel call are `polytopes.check_identities`'
decisions, as which methods apply is `engine.compute_omega`'s.  This
test parses `cli` with `ast` and fails if it imports anything from
`altsum` (the batch size, the kernels) or any of the per-batch
primitives `check_identity`, `batch_marks` and `subset_sums`, or reads
one of them as an attribute.
"""

import ast
from pathlib import Path

import omegacalc

CLI = Path(omegacalc.__file__).parent / "cli.py"

PRIMITIVES = {"check_identity", "batch_marks", "subset_sums"}


def _module_of(node: ast.ImportFrom) -> str:
    return (node.module or "").rsplit(".", 1)[-1]


def test_cli_imports_no_identity_primitive():
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if _module_of(node) == "altsum" or "altsum" in names or names & PRIMITIVES:
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Import):
            if any(alias.name.rsplit(".", 1)[-1] == "altsum" for alias in node.names):
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Attribute) and node.attr in PRIMITIVES:
            found.append((node.lineno, ast.unparse(node)))
    assert not found, f"identity logic in cli: {found}"
