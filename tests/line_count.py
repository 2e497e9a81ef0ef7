"""Line counts of the program's Python files, per file and in total.

    python3 tests/line_count.py [ROOT]

For every ``*.py`` file under ``src/`` and ``bench/`` of ROOT (default:
this checkout), prints its lines and its code lines: lines that hold
code, not counting docstrings, comments and blank lines.  A line inside
a string that is not a docstring counts as code.  Then the totals per
directory.  Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DIRS = ("src", "bench")

#: Tokens that are not code by themselves.
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstring of the module, or of any
    class or function."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one file's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    width = 40
    for name in DIRS:
        files = sorted((root / name).rglob("*.py"))
        total_lines = total_code = 0
        for path in files:
            lines, code = count(path.read_text(encoding="utf-8"))
            total_lines += lines
            total_code += code
            print(f"{str(path.relative_to(root)):<{width}} {lines:>6} {code:>6}")
        print(f"{name + '/ total':<{width}} {total_lines:>6} {total_code:>6}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
