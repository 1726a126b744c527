"""Count the code lines of each module in src/hhx.

A line counts when tokenize finds a token on it other than a comment, a
newline, an indent or a dedent, and ast does not place it inside a module,
class or function docstring. A token that spans lines (a triple-quoted
string) puts each of them on the count.

Run from any directory; the folder defaults to src/hhx of this repository:

    python tests/code_lines.py [FOLDER]

It prints one line per module and the total, and exits with status 2 if the
folder holds no *.py file. Not a test: pytest collects only test_*.py files.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set[int]:
    """The lines of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


DEFAULT = Path(__file__).resolve().parent.parent / "src" / "hhx"


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else DEFAULT
    paths = sorted(root.glob("*.py"))
    if not paths:
        print(f"code_lines: no *.py file in {root}", file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16} {count:6,}")
    print(f"{'total':16} {total:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
