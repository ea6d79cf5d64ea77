"""Every name a module lists in ``__all__`` has a user: a reference elsewhere in
the package, a use in the benchmark, or a mention in README's library layout.
A name that only the tests use belongs in the tests (``tests/helpers.py``)."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "supent"
BENCHMARKS = ROOT / "benchmarks"
README = ROOT / "README.md"


def _module(node):
    """The package module an import statement names ("__init__" for the
    package itself), or None for an import from outside the package."""
    if node.level:
        return node.module or "__init__"
    package, _, module = (node.module or "").partition(".")
    if package != "supent":
        return None
    return module or "__init__"


def _references(path, here):
    """(module, name) of each package name the file at ``path`` imports or
    refers to, ``here`` being its own module (None outside the package).  A
    reference inside the top-level definition of the name itself does not
    count."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, modules = {}, {}  # local name: (module, name), and local name: module
    for node in ast.walk(tree):
        source = _module(node) if isinstance(node, ast.ImportFrom) else None
        if source is not None:
            for alias in node.names:
                local = alias.asname or alias.name
                if source == "__init__":
                    modules[local] = alias.name
                else:
                    names[local] = (source, alias.name)
    defined = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            defined.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
    refs = set(names.values())
    for stmt in tree.body:
        own = {(here, stmt.name)} if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id in names:
                ref = names[node.id]
            elif isinstance(node, ast.Name) and here is not None and node.id in defined:
                ref = (here, node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                ref = (modules[node.value.id], node.attr)
            else:
                continue
            if ref not in own:
                refs.add(ref)
    return refs


def _exports():
    """(module, name) of each name in a package module's ``__all__``."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
                yield from ((path.stem, name) for name in ast.literal_eval(node.value))


def _library_layout():
    """The text of README's "Library layout" section."""
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Library layout\n(.*?)(?=^## |\Z)", text, re.S | re.M).group(1)


def test_every_exported_name_has_a_user():
    exports = list(_exports())
    assert len(exports) > 40  # the walk found the package's exports
    used = set().union(
        *(_references(path, path.stem) for path in SRC.glob("*.py")),
        *(_references(path, None) for path in BENCHMARKS.glob("*.py")),
    )
    layout = _library_layout()
    unused = [
        f"{module}.{name}"
        for module, name in exports
        if (module, name) not in used and not re.search(rf"\b{name}\b", layout)
    ]
    assert unused == []
