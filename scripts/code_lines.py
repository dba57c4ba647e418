#!/usr/bin/env python3
"""Count code lines per module: lines that hold a token other than a comment
or a docstring.

Blank lines, comment-only lines and docstrings do not count.  A statement
over several lines counts each line it spans that holds one of its tokens,
so a string literal spanning lines counts every line it spans unless it is a
docstring (the first statement of a module, class or function body).

Example:
    python scripts/code_lines.py src/tqftdims
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

#: Token types that are layout, not code.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_rows(tree: ast.AST) -> set[int]:
    """The rows of every module, class and function docstring."""
    rows = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                rows.update(range(first.lineno, first.end_lineno + 1))
    return rows


def code_lines(source: str) -> int:
    """The number of code lines in Python source text."""
    docs = _docstring_rows(ast.parse(source))
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT and tok.start[0] not in docs:
            rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("paths", nargs="+", help="Python files or directories of them")
    ns = ap.parse_args()
    files = []
    for arg in ns.paths:
        path = Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
