"""The command line has one writer: `main`.

Each subcommand returns its output lines and a verdict; `main` alone
writes the lines, to `--out` or stdout, and maps the verdict to exit 0
or 1.  This test parses `cli` with `ast` and fails if any code outside
`main` calls `sys.stdout.write`, a `write_text` method or `print`, or
reads `EXIT_OK` or `EXIT_DISAGREE`.
"""

import ast
from pathlib import Path

import omegacalc

CLI = Path(omegacalc.__file__).parent / "cli.py"

VERDICT_CODES = {"EXIT_OK", "EXIT_DISAGREE"}


def _writes_or_picks_a_code(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "write_text" or ast.unparse(node) == "sys.stdout.write"
    if isinstance(node, ast.Name):
        return isinstance(node.ctx, ast.Load) and (node.id in VERDICT_CODES or node.id == "print")
    return False


def test_only_main_writes_and_picks_the_exit_code():
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    (main,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    inside = {id(node) for node in ast.walk(main)}
    found = [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if id(node) not in inside and _writes_or_picks_a_code(node)
    ]
    assert not found, f"written or coded outside main: {found}"
    # and main does both, so the test is not vacuous
    assert sum(map(_writes_or_picks_a_code, ast.walk(main))) >= 4
