"""Count code lines in Python sources: non-blank, non-comment, outside docstrings.

A line counts when a token other than a comment or a docstring starts or
runs on it, so every line of a multi-line expression counts, and every
line of a multi-line string that is not a docstring. A docstring is the
string statement that opens a module, class or function body.

    python3 tools/code_lines.py src/filmrec            # total
    python3 tools/code_lines.py --per-file src/filmrec # one line per file, then the total
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def python_files(paths: list[str]) -> list[Path]:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="Python files or directories (searched recursively)")
    parser.add_argument("--per-file", action="store_true", help="also print each file's count")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        if args.per_file:
            print(f"{count:6d} {path}")
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
