"""Every module of the package uses each name it imports, and every
private definition of the package is used."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "turansep"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in used]


def test_detector_flags_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom x import a, b as c\nprint(a)\n")
    assert unused_imports(source) == ["os (line 2)", "c (line 3)"]
    assert unused_imports("import os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _references(node: ast.AST) -> Counter:
    """How often each name is read under node, by name or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_private(sources: list[str]) -> list[str]:
    """Single-underscore functions, classes and methods that no code outside
    their own body refers to."""
    trees = [ast.parse(source) for source in sources]
    total = sum((_references(tree) for tree in trees), Counter())
    return [node.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and total[node.name] == _references(node)[node.name]]


def test_detector_flags_an_unreferenced_private_definition():
    sources = ["def _used():\n    pass\n\n\ndef _rec(x):\n    return _rec(x)\n",
               "class A:\n    def _helper(self):\n        pass\n\n"
               "    def __init__(self):\n        _used()\n"]
    assert unreferenced_private(sources) == ["_rec", "_helper"]
    sources[1] += "\n    def run(self):\n        self._helper()\n"
    assert unreferenced_private(sources) == ["_rec"]


def test_package_private_definitions_are_referenced():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_private(sources) == []
