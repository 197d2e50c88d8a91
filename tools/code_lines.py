"""Count the physical and the code lines of each ``src/coarraylab`` module.

A code line is a physical line that holds part of a statement other than a
docstring: blank lines, comment lines and the lines of module, class and
function docstrings are not counted.  A line a multi-line token spans, such
as a triple-quoted string that is not a docstring, counts.  Prints a
header, one ``<physical lines>  <code lines>  <module>`` row per module and
then both totals::

    python tools/code_lines.py [package directory]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coarraylab"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in SKIPPED:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def physical_lines(path: Path) -> int:
    with path.open("rb") as handle:
        return sum(1 for _ in handle)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    print(f"{'lines':>6}  {'code':>6}  module")
    total_lines = total_code = 0
    for path in sorted(package.glob("*.py")):
        lines, code = physical_lines(path), code_lines(path)
        total_lines += lines
        total_code += code
        print(f"{lines:6d}  {code:6d}  {path.name}")
    print(f"{total_lines:6d}  {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
