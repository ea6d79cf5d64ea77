"""Every tolerance in the package is a named module constant, defined once, so
that each slack a check can fail by has one definition and one stated reason."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "supent"

# A float literal this small is a tolerance, a floor or a slack.
SMALL = 1e-3


def _trees():
    """(module, its parsed source) for each module of the package."""
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))]


def _constants(tree):
    """(name, value node) of each module-level ``NAME = value``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            yield node.targets[0].id, node.value


def test_small_float_literals_are_named_module_constants():
    trees = _trees()
    named = {id(value) for _, tree in trees for _, value in _constants(tree)}
    assert len(named) > 20  # the walk found the package's constants
    bare = [
        (module, node.lineno, node.value)
        for module, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < SMALL
        and id(node) not in named
    ]
    assert bare == []


def test_no_constant_is_another_constant():
    aliases = [
        (module, name, ast.unparse(value))
        for module, tree in _trees()
        for name, value in _constants(tree)
        if name.isupper()
        and isinstance(value, (ast.Name, ast.Attribute))
        and ast.unparse(value).rpartition(".")[2].isupper()
    ]
    assert aliases == []
