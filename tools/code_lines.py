"""Count the code lines of Python sources: lines that hold a token, other
than blank lines, comment-only lines and docstrings (the first string
statement of a module, class or function).

    python3 tools/code_lines.py src/netforge

Prints the total over every .py file under the given files or directories.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of lines of source with a code token outside a docstring."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    files = [f for arg in map(Path, argv)
             for f in (sorted(arg.rglob("*.py")) if arg.is_dir() else [arg])]
    print(sum(code_lines(f.read_text(encoding="utf-8")) for f in files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
