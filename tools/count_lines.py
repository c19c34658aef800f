"""Count the total and code lines of each module of a package.

A code line holds at least one token that is not a comment and is not part
of a docstring (the string that opens a module, class or function body).
Blank lines, comment lines and docstring lines are not code lines.

    python tools/count_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/pnmimo next to this script's directory.  Prints
one line per module, then the totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of tree's module, classes and
    functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(line for line in range(tok.start[0], tok.end[0] + 1)
                        if line not in docstrings)
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "pnmimo"
    totals = [0, 0]
    print(f"{'module':14s} {'lines':>6s} {'code':>6s}")
    for path in sorted(package.glob("*.py")):
        lines, code = count(path.read_text())
        totals[0] += lines
        totals[1] += code
        print(f"{path.stem:14s} {lines:6d} {code:6d}")
    print(f"{'total':14s} {totals[0]:6d} {totals[1]:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
