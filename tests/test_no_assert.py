"""src/hhx holds no assert statement.

`python -O` strips asserts, so an invariant checked by one would silently
stop being checked; the package raises its errors explicitly instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hhx"


def test_src_has_no_assert_statement():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
