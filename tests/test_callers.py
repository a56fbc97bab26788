"""No code without a caller: every definition in src/ksnet is used or exported.

A module-level function or class, or a method that is not a dunder, must be
referenced somewhere in src/ksnet outside its own body (as a name or as an
attribute), or be listed in ksnet.__all__.  Names are matched as names, so
two definitions that share one are both kept alive by either's use: the
scan finds definitions nothing can reach, not every unused one.
"""

import ast
from pathlib import Path

import ksnet

SOURCE = Path(ksnet.__file__).parent


def _definitions(tree):
    """(name, node) of the module-level functions and classes and of their non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield member.name, member


def _references(tree):
    """(name, line) of every name read and every attribute taken."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_definition_has_a_caller_or_is_exported():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SOURCE.glob("*.py"))}
    used: dict[str, set[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for name, line in _references(tree):
            used.setdefault(name, set()).add((module, line))
    exported = set(ksnet.__all__)
    orphans = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            outside = {(m, line) for m, line in used.get(name, ())
                       if m != module or not node.lineno <= line <= node.end_lineno}
            if not outside and name not in exported:
                orphans.append(f"{module}:{node.lineno} {name}")
    assert orphans == []
