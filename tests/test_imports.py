"""Every module of the package uses each name it imports, every private
definition of the package is used, and every public one is read by the
package or by the benchmark, not by tests alone."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "turansep"
# the benchmark's own modules; its tests are not among them
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
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


def unreferenced(sources: list[str], private: bool, outside: Counter) -> list[str]:
    """Functions, classes and methods, the single-underscore ones when
    private and the public ones otherwise, that neither code outside their
    own body nor the outside reads refer to."""
    trees = [ast.parse(source) for source in sources]
    total = sum((_references(tree) for tree in trees), outside)
    return [node.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private and not node.name.startswith("__")
            and total[node.name] == _references(node)[node.name]]


def test_detector_flags_an_unreferenced_private_definition():
    sources = ["def _used():\n    pass\n\n\ndef _rec(x):\n    return _rec(x)\n",
               "class A:\n    def _helper(self):\n        pass\n\n"
               "    def __init__(self):\n        _used()\n"]
    assert unreferenced(sources, True, Counter()) == ["_rec", "_helper"]
    sources[1] += "\n    def run(self):\n        self._helper()\n"
    assert unreferenced(sources, True, Counter()) == ["_rec"]


def test_package_private_definitions_are_referenced():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced(sources, True, Counter()) == []


# public definitions that only tests read, each kept as an independent
# check of an answer the package gives
TEST_ONLY = {
    "validate_embedding": "re-checks an embedding that contains returns",
    "verify_counterexample": "re-checks a condition (2) counterexample",
    "s6_star_edge_count": "closed form re-checking the S6 blow-up's edges",
    "bipartite_g_edge_count": "closed form re-checking bipartite_g's edges",
    "density": "the exact e(H)/C(n, k) that the acceptance suite checks",
}


def benchmark_reads() -> Counter:
    """Names and attributes the benchmark reads, and the function names its
    tracer looks up from the strings of tracing.TARGETS."""
    reads = Counter()
    targets = []
    for path in BENCHMARK:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads += _references(tree)
        targets += [node.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)]
    assert len(targets) == 1
    reads.update(n.value for n in ast.walk(targets[0])
                 if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return reads


def test_detector_flags_an_unread_public_definition():
    sources = ["def used():\n    pass\n\n\ndef rec(x):\n    return rec(x)\n",
               "class A:\n    def helper(self):\n        used()\n"]
    assert unreferenced(sources, False, Counter()) == ["rec", "A", "helper"]
    assert unreferenced(sources, False, Counter(["A", "helper"])) == ["rec"]


def test_package_public_definitions_are_read_outside_tests():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert sorted(unreferenced(sources, False, benchmark_reads())) == sorted(TEST_ONLY)
