import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import re  # a comment after code counts as code

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string that is
        not a docstring"""
        return text
'''


def test_code_lines_skips_blanks_comments_and_docstrings():
    # import, class, def, the two lines of the assignment, return
    assert code_lines.code_lines(SAMPLE) == 6


def test_code_lines_prints_each_module_and_the_total(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][1] == "total"
    assert {name for _, name in rows[:-1]} == {
        path.name for path in code_lines.SRC.glob("*.py")}
    assert sum(int(n) for n, _ in rows[:-1]) == int(rows[-1][0])
