"""Every function, method, class and module-level name defined in src/hhx
has a user.

A definition counts as used when src/hhx or perfbench/ reads its name (as
an ast.Name that is loaded, an ast.Attribute, or a string constant:
perfbench's tracer names the methods it wraps as strings), or when
hhx.__all__ exports it. A method is reached only through an attribute or a
string, so a loaded bare name (a local variable that shares its name) does
not count for it. A module-level name is one that an assignment at
the top level of a module binds. Dunder names are exempt, since the
interpreter reads them. Tests do not count as users: a name only tests read
is code the program does not need.
"""

import ast
from pathlib import Path

import hhx

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(folder):
    for path in sorted((ROOT / folder).rglob("*.py")):
        yield path.relative_to(ROOT), ast.parse(path.read_text(), str(path))


def _module_level_names(tree):
    """(name, line) for each name an assignment at the top of tree binds."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    yield node.id, node.lineno


def unused_definitions() -> list[str]:
    """'path:line name' for every definition in src/hhx with no user."""
    defined = []  # (name, where, is a method)
    named = set(hhx.__all__)  # attributes, strings and exports
    read = set()  # loaded bare names
    for folder in ("src/hhx", "perfbench"):
        for path, tree in _trees(folder):
            methods = {
                item
                for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                for item in node.body if isinstance(item, DEFINITIONS)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    # an assignment's own target is no use of the name
                    if not isinstance(node.ctx, ast.Store):
                        read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    named.add(node.value)
                elif isinstance(node, DEFINITIONS) and folder == "src/hhx":
                    defined.append((node.name, f"{path}:{node.lineno}", node in methods))
            if folder == "src/hhx":
                defined.extend(
                    (name, f"{path}:{line}", False)
                    for name, line in _module_level_names(tree)
                )
    return sorted(
        f"{where} {name}"
        for name, where, method in defined
        if name not in named
        and (method or name not in read)
        and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_definition_in_src_is_used():
    assert unused_definitions() == []
