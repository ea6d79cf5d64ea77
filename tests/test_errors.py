"""Every exception the package raises on purpose is a SupentError, so a caller
(the CLI among them) can tell bad input from a bug by its type alone."""

import ast
import builtins
import importlib
import pathlib

from supent.errors import SupentError

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "supent"

# The CLI's argparse hooks report usage errors through argparse, which exits 1.
ALLOWED = {("cli", "argparse.ArgumentTypeError"), ("cli", "_UsageError")}
# Raises of a name that is no module attribute: check_integer's ``error``
# parameter, which callers set to a SupentError subclass.
UNRESOLVED = {("qmath", "error")}


def _raises():
    """(module, raised name, the class it names or None) for each
    ``raise X`` and ``raise X(...)`` in the package's source."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("supent" if path.stem == "__init__" else f"supent.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = ast.unparse(exc)
                head, *rest = name.split(".")
                cls = vars(module)[head] if head in vars(module) else getattr(builtins, head, None)
                for part in rest:
                    cls = getattr(cls, part, None)
                yield path.stem, name, cls


def test_every_raise_in_the_package_is_a_supent_error():
    raises = list(_raises())
    assert len(raises) > 50  # the walk found the package's raises
    wrong = [
        (module, name)
        for module, name, cls in raises
        if (module, name) not in ALLOWED | UNRESOLVED
        and not (isinstance(cls, type) and issubclass(cls, SupentError))
    ]
    assert wrong == []
    assert {(module, name) for module, name, cls in raises if cls is None} == UNRESOLVED
