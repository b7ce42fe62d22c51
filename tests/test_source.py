"""Checks on the package's source text rather than on its behaviour."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coxlab"


def _private_definitions(tree):
    """(name, node) of each module-level private function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _uses(tree, name):
    """The nodes that read ``name``, as a variable or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            yield node
        elif isinstance(node, ast.Attribute) and node.attr == name:
            yield node


def test_every_private_module_name_is_used_in_the_package():
    # a private helper that nothing in the package reads is dead code; a
    # function or class that only refers to itself counts as unused
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any(
                id(node) not in inside for other in trees.values() for node in _uses(other, name)
            ):
                unused.append(f"{module}: {name}")
    assert unused == []
