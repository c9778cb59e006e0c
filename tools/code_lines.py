"""Count code lines: non-blank lines outside comments and outside module,
class and function docstrings.

    python3 tools/code_lines.py            # src/cdem
    python3 tools/code_lines.py PATH ...   # any .py files or directories

Prints one line per file, then the total.  A line counts when some token
other than a comment starts, ends or continues on it and that token is not
a docstring; a string literal that is not a docstring counts on every line
it spans that is not blank.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    text = source.splitlines()
    counted: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIPPED:
            continue
        for line in range(tok.start[0], tok.end[0] + 1):
            if line not in docstrings and text[line - 1].strip():
                counted.add(line)
    return len(counted)


def _files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for name in paths:
        path = Path(name)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    total = 0
    for path in _files(argv or [str(root / "src" / "cdem")]):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        path = path.resolve()
        print(f"{count:6d}  {path.relative_to(root) if path.is_relative_to(root) else path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
