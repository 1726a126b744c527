"""Every function, method and class defined in src/hhx has a user.

A definition counts as used when src/hhx or perfbench/ refers to its name
(as an ast.Name, an ast.Attribute, or a string constant: perfbench's tracer
names the methods it wraps as strings), or when hhx.__all__ exports it.
Dunder names are exempt, since the interpreter calls them. Tests do not
count as users: a name only tests call is code the program does not need.
"""

import ast
from pathlib import Path

import hhx

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(folder):
    for path in sorted((ROOT / folder).rglob("*.py")):
        yield path.relative_to(ROOT), ast.parse(path.read_text(), str(path))


def unused_definitions() -> list[str]:
    """'path:line name' for every definition in src/hhx with no user."""
    defined = []
    used = set(hhx.__all__)
    for folder in ("src/hhx", "perfbench"):
        for path, tree in _trees(folder):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)
                elif isinstance(node, DEFINITIONS) and folder == "src/hhx":
                    defined.append((node.name, f"{path}:{node.lineno}"))
    return sorted(
        f"{where} {name}"
        for name, where in defined
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_definition_in_src_is_used():
    assert unused_definitions() == []
