"""Every module of the package uses each name it imports, every private
definition of the package is used, every public one is read by the
package or by the benchmark, not by tests alone, and every local that a
function of the package assigns is read."""

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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_scope(func: ast.AST):
    """The nodes of func's body, without the bodies of the functions and
    classes nested in it."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def dead_stores(source: str) -> list[str]:
    """Locals that a function assigns and that nothing in it reads, nested
    functions included; a name that a nested function declares nonlocal
    counts as read, and _ is exempt."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stores: dict[str, int] = {}
        # names that the function declares global or nonlocal are not its own
        exempt = {"_"}
        for node in _own_scope(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stores[node.id] = min(node.lineno, stores.get(node.id, node.lineno))
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                exempt.update(node.names)
        read = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Nonlocal):
                read.update(node.names)
        found += [f"{func.name}: {name} (line {line})"
                  for name, line in sorted(stores.items(), key=lambda item: item[1])
                  if name not in exempt | read]
    return found


def test_detector_flags_a_dead_store():
    source = ("def f(a):\n"
              "    x = a\n"
              "    y, _ = a\n"
              "    n = t = 0\n"
              "    x += 1\n"
              "\n"
              "    def g():\n"
              "        nonlocal n\n"
              "        n = t\n"
              "        u = 1\n"
              "    return g\n")
    assert dead_stores(source) == ["f: x (line 2)", "f: y (line 3)", "g: u (line 10)"]
    assert dead_stores(source.replace("return g", "return g, x, y")) == ["g: u (line 10)"]


def test_package_functions_read_every_local_they_assign():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert [store for source in sources for store in dead_stores(source)] == []
