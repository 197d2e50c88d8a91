"""Tests for the repository tools under ``tools/``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide the code


# a comment line
class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,

        with a blank line inside."""
        text = """a string that is
not a docstring"""
        return text


async def run():
    """Coroutine docstring."""
    return os.sep
'''


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    # import, class, def, the two lines of the string, return; async def, return
    assert code_lines.code_lines(path) == 8


def test_code_lines_counts_every_line_of_a_string_that_is_no_docstring(tmp_path):
    path = tmp_path / "strings.py"
    path.write_text('x = 1\n"""\nan expression statement\nafter the first one\n"""\n',
                    encoding="utf-8")
    assert code_lines.code_lines(path) == 5


def test_physical_lines_count_every_line_with_or_without_a_final_newline(tmp_path):
    path = tmp_path / "lines.py"
    path.write_text(SAMPLE, encoding="utf-8")
    assert code_lines.physical_lines(path) == 22
    path.write_text("x = 1\n\ny = 2", encoding="utf-8")
    assert code_lines.physical_lines(path) == 3


def test_total_row_is_the_sum_of_the_module_rows(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\ny = [\n    2,\n]\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["lines", "code", "module"]
    assert rows[1:-1] == [["22", "8", "a.py"], ["5", "4", "b.py"]]
    assert rows[-1] == ["27", "12", "total"]


def test_the_package_total_is_the_sum_of_its_modules(capsys):
    assert code_lines.main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][2] == "total" and len(rows) > 3
    for column in (0, 1):
        assert int(rows[-1][column]) == sum(int(row[column]) for row in rows[1:-1])
