"""The code-line counter that the size criteria are measured with."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_of_modules_classes_and_functions_are_excluded(code_lines):
    source = '''"""Module
docstring."""


class A:
    """Class
    docstring."""

    def f(self):
        """Function docstring."""
        return 1


async def g():
    """Async function
    docstring."""
'''
    assert code_lines.code_lines(source) == 4  # class, def, return, async def


def test_comment_only_and_blank_lines_are_excluded(code_lines):
    source = "# a comment\n\nx = 1  # a trailing comment\n    \n# another\ny = 2\n"
    assert code_lines.code_lines(source) == 2


def test_every_line_of_a_multi_line_expression_counts(code_lines):
    source = "total = (\n    1\n    + 2\n)\ncall(\n    # a comment inside\n    x,\n)\n"
    assert code_lines.code_lines(source) == 7


def test_every_line_of_a_multi_line_string_that_is_not_a_docstring_counts(code_lines):
    source = 'x = 1\n"""not the first statement,\nso not a docstring"""\nquery = """\nselect 1\n"""\n'
    assert code_lines.code_lines(source) == 6


def test_per_file_prints_one_line_per_file_then_the_total(code_lines, tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("b = 1\nc = 2\n")
    (tmp_path / "a.py").write_text('"""Doc."""\na = 1\n')
    (tmp_path / "notes.txt").write_text("not python\n")
    assert code_lines.main(["--per-file", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["1", str(tmp_path / "a.py")],
        ["2", str(tmp_path / "pkg" / "b.py")],
        ["3"],
    ]
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "3\n"
