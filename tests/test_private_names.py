"""Every module-level private name of the package is used somewhere in it,
so a helper whose last caller is gone fails here instead of lingering."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fatou"


def _defined(tree: ast.Module):
    """The private (one leading underscore) functions, classes and
    constants bound at the top level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def _used(tree: ast.Module):
    """The names a module reads, as a name or an attribute; a docstring is a
    string, so names it mentions are not among them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_private_module_name_has_a_use():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _used(tree)}
    defined = [(module, name, line) for module, tree in trees.items()
               for name, line in _defined(tree)]
    assert len(defined) > 50  # the parse found the package
    unused = [f"{module}:{line} {name}" for module, name, line in defined if name not in used]
    assert unused == []
