"""The line counter of `tools/code_lines.py`, on crafted modules."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 7 code lines: the import, the class line, `x = 1`, the def line, and the
# three lines of the call; every docstring, comment and blank line is skipped
CRAFTED = '''"""A module docstring
over two lines."""

import os  # a trailing comment counts as code


class Thing:
    """A class docstring."""

    x = 1


def run():
    """A function docstring

    over three lines."""
    # a comment line
    return os.path.join(
        "a",
        "b")
'''


def test_docstrings_comments_and_blank_lines_are_not_counted():
    assert code_lines.code_lines(CRAFTED) == 7
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
    # a string that is not the first statement is code, on every line it spans
    assert code_lines.code_lines('x = 1\n"""not a\ndocstring"""\n') == 3


def test_printed_total_is_the_sum_of_the_module_rows(tmp_path, capsys):
    (tmp_path / "b.py").write_text(CRAFTED)
    (tmp_path / "a.py").write_text("y = [\n    1,\n    2,\n]\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["4", "a.py"], ["7", "b.py"], ["11", "total"]]
    assert sum(int(count) for count, _ in rows[:-1]) == int(rows[-1][0])
