"""Every name a module of the package imports is used in that module,
every private module-level name is read somewhere in the package, and no
module imports another module's private name.

A moved function tends to leave its old imports behind, and a replaced one
its private helpers; this catches both. `from __future__` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "locus"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name bound by an import and never read in source."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom .a import b, c\nb(np)\n"
    assert unused_imports(source) == [(2, "os"), (4, "c")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, "\n".join(f"{path.name}:{line}: {name} imported but unused" for line, name in unused)


def private_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level function, class or constant of source whose name starts with one `_`."""
    defined = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in defined if name.startswith("_") and not name.startswith("__")]


def names_read(source: str) -> set[str]:
    """Every name source reads: as a variable, as an attribute or in an import."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def test_dead_private_names_are_found():
    source = "import m\n_A = 1\n_B: int = 2\n__all__ = []\n\n\ndef _f():\n    return _A + m._g()\n\n\nclass _C:\n    pass\n"
    dead = [(line, name) for line, name in private_definitions(source) if name not in names_read(source)]
    assert dead == [(3, "_B"), (7, "_f"), (11, "_C")]


def test_no_dead_private_names():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(names_read, sources.values()))
    dead = [f"{name}:{line}: {private} is never read in the package"
            for name, source in sources.items() for line, private in private_definitions(source) if private not in read]
    assert not dead, "\n".join(dead)


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each private name that source imports from a module of the package."""
    return [(node.lineno, a.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "locus")
            for a in node.names if a.name.startswith("_") and not a.name.startswith("__")]


def test_private_imports_are_found():
    source = "from . import neural\nfrom .a import b, _c\nfrom locus.d import _e\nfrom numpy import _f\nfrom .g import __h__\n"
    assert private_imports(source) == [(2, "_c"), (3, "_e")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_name(path):
    found = private_imports(path.read_text())
    assert not found, "\n".join(f"{path.name}:{line}: imports the private name {name}" for line, name in found)
