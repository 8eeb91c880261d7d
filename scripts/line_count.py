#!/usr/bin/env python3
"""Code lines of each module of a package, and their total.

Usage: python scripts/line_count.py [PACKAGE_DIR]   (default: src/whitenet)

A code line is a line that holds part of a statement. Blank lines,
comment-only lines and docstrings (the string that opens a module, class or
function body) do not count, so deleting them does not read as a smaller
program. Prints one "<lines> <module>" line per module, sorted by name, and
then "<lines> total".
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
DEFAULT = Path(__file__).resolve().parents[1] / "src" / "whitenet"


def _docstring_spans(tree):
    """((line, col), (end_line, end_col)) of every docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token of code."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED:
            continue
        if tok.type == tokenize.STRING and any(a <= tok.start and tok.end <= b for a, b in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=DEFAULT)
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(args.package.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
