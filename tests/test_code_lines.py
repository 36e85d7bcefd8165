"""tools/code_lines.py counts a line when it holds a token that is neither a
comment nor part of a module, class or function docstring."""

import ast
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# code lines: import, class, the two lines of the parenthesized x, the two
# of the backslash-continued y, def, the string expression that is not a
# docstring, return
SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves the line a code line


class A:
    """Class docstring."""

    # a comment-only line
    x = (1 +
         2)
    y = 3 + \\
        4

    def f(self):
        """Function
        docstring."""
        "a string expression after the docstring is code"
        return os.sep
'''


def test_counts_the_fixture_exactly(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(SOURCE)
    assert code_lines.code_lines(path) == 9


def test_docstring_lines_are_those_of_module_class_and_function_docstrings():
    assert code_lines.docstring_lines(ast.parse(SOURCE)) == {1, 2, 8, 17, 18}


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("# only a comment\nx = 1\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["     1  b.py", "     9  pkg/a.py", "    10  total"]
