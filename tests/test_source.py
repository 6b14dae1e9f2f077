"""Static checks on the package source.

Every name a module imports must be used in that module or re-exported
through its ``__all__``: an import left behind by a deleted caller is
dead code that still costs an import and misleads the reader.

Every module-level private function or class is referenced somewhere
in the package, by name, attribute or import: a helper whose callers
are gone is dead code, even when a test still calls it.

No two package functions of two or more statements share a body,
docstrings aside: a twin is one idea implemented twice, and one of the
two should call the other.

No expression of _EXPRESSION_NODES or more AST nodes appears twice in
the package: a formula that long is spelled once, in a function both
places call.

The package calls np.linalg.eigvals in one place, roots._companion_roots,
which both engines ask for their hardware-double root proposals.

modp calls its powering routine (a name starting _pow) in one place,
factor_degree_pattern, outside any loop: X^p mod f is computed once per
pattern, and every later distinct-degree step is a product with the
Frobenius matrix.

census calls itertools.product in one place, _blocks, so that a census
box is enumerated in one place for every engine.

Outside intpoly, where it is defined, the package uses
squarefree_decomposition in one place, roots._analysis, which stores the
result on the polynomial for every classifier to read: imports and
re-exports of the name aside, no other function runs Yun's algorithm
again.

classify and census never read an attribute named disks: root sets are
read there as the certifier's integer cells, and the hot paths build no
RootDisk Fractions.

No module imports mpmath: root centres are proposed in hardware doubles
and in exact integers, and every value handed out is an exact integer or
dyadic Fraction, so nothing depends on a global working precision.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import rootcensus

_MODULES = sorted(Path(rootcensus.__file__).parent.glob("*.py"))


def _imported_modules(tree: ast.Module) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            out.add(node.module.partition(".")[0])
    return out


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unused_imports(tree) == [], path.name


def test_unused_import_is_found():
    tree = ast.parse("import os\nfrom typing import List, Optional\n__all__ = ['Optional']\nx: List = []\n")
    assert _unused_imports(tree) == [(1, "os")]


def test_no_module_imports_mpmath():
    users = []
    for path in _MODULES:
        if "mpmath" in _imported_modules(ast.parse(path.read_text(encoding="utf-8"))):
            users.append(path.name)
    assert users == []


def test_imported_modules_are_found():
    tree = ast.parse("import mpmath.libmp\nfrom mpmath import mpf\nfrom . import roots\nimport os as o")
    assert _imported_modules(tree) == {"mpmath", "os"}


def _private_definitions(tree: ast.Module) -> list:
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def _references(tree: ast.Module) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.name for alias in node.names}
    return out


def _unreferenced(trees: dict) -> list:
    used = set().union(*(_references(tree) for tree in trees.values()))
    return sorted(
        (name, helper)
        for name, tree in trees.items()
        for helper in _private_definitions(tree)
        if helper not in used
    )


def test_every_private_helper_is_referenced():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in _MODULES}
    assert _unreferenced(trees) == []


def test_unreferenced_helper_is_found():
    trees = {
        "a.py": ast.parse("def _used():\n    pass\n\nclass _Dead:\n    pass\n"),
        "b.py": ast.parse("from a import _used\n"),
    }
    assert _unreferenced(trees) == [("a.py", "_Dead")]


def _shared_bodies(trees: dict) -> list:
    """Groups of (module, function) whose bodies, docstring stripped, have
    two or more statements and the same AST dump."""
    groups: dict = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            if len(body) >= 2:
                key = "\n".join(ast.dump(stmt) for stmt in body)
                groups.setdefault(key, []).append((name, node.name))
    return sorted(group for group in groups.values() if len(group) > 1)


def test_no_two_functions_share_a_body():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in _MODULES}
    assert _shared_bodies(trees) == []


def test_shared_body_is_found():
    trees = {
        "a.py": ast.parse("def f(x):\n    y = x + 1\n    return y\n"),
        "b.py": ast.parse(
            "class C:\n    def g(self, x):\n        \"\"\"Doc.\"\"\"\n        y = x + 1\n        return y\n"
            "def h(x):\n    return x + 1\n\ndef k(x):\n    return x + 1\n"
        ),
    }
    assert _shared_bodies(trees) == [[("a.py", "f"), ("b.py", "g")]]


# the size from which a repeated expression counts as a second spelling of
# one formula; the sign tests the scalar and vector cubic kernels share by
# design (D3 = a c^3 - b^3 d, 30 nodes) stay below it
_EXPRESSION_NODES = 40


def _repeated_expressions(trees: dict) -> list:
    """Groups of (module, line) of equal expressions of _EXPRESSION_NODES
    or more AST nodes; a repeat inside a longer repeat is not listed."""
    groups: dict = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.expr) and sum(1 for _ in ast.walk(node)) >= _EXPRESSION_NODES:
                groups.setdefault(ast.dump(node), []).append((name, node.lineno))
    repeats = {key: group for key, group in groups.items() if len(group) > 1}
    return sorted(
        group for key, group in repeats.items()
        if not any(key != other and key in other for other in repeats)
    )


def test_no_long_expression_is_spelled_twice():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in _MODULES}
    assert _repeated_expressions(trees) == []


def test_repeated_expression_is_found():
    # a product of two Names is 6 nodes and each + adds 2: the seven-term
    # sum has 54 nodes, its first six terms 46 (a repeat inside it), and
    # five terms 38
    long = "a * b + c * d + e * f + g * h + i * j + k * l + m * n"
    short = "a * b + c * d + e * f + g * h + i * j"
    trees = {
        "a.py": ast.parse("def f():\n    return %s\n" % long),
        "b.py": ast.parse("x = 1\ny = (%s) * 2\nz = %s\nw = %s\n" % (long, short, short)),
    }
    assert _repeated_expressions(trees) == [[("a.py", 2), ("b.py", 2)]]


def _places(trees: dict, name: str, imports: bool = True) -> list:
    """(module, innermost enclosing function or None) of every name or
    attribute `name`, and of every import of it when `imports`."""
    found = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, module, child.name)
                continue
            if name in (getattr(child, "id", None), getattr(child, "attr", None)) or (
                imports and isinstance(child, ast.alias) and child.name.rpartition(".")[2] == name
            ):
                found.append((module, where))
            visit(child, module, where)

    for module, tree in trees.items():
        visit(tree, module, None)
    return sorted(found, key=lambda ref: (ref[0], ref[1] or ""))


def test_one_eigenvalue_call_proposes_every_root():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in _MODULES}
    assert _places(trees, "eigvals") == [("roots.py", "_companion_roots")]


def test_eigvals_reference_is_found():
    trees = {
        "a.py": ast.parse("import numpy as np\ndef f(m):\n    return np.linalg.eigvals(m)\n"),
        "b.py": ast.parse("from numpy.linalg import eigvals\nclass C:\n    def g(self):\n        return eigvals\n"),
    }
    assert _places(trees, "eigvals") == [("a.py", "f"), ("b.py", None), ("b.py", "g")]


def test_one_census_enumerator():
    tree = ast.parse((Path(rootcensus.__file__).parent / "census.py").read_text(encoding="utf-8"))
    assert _places({"census.py": tree}, "product") == [("census.py", "_blocks")]


def test_second_census_enumerator_is_found():
    # two enumerators of one box, as a scalar tally beside the blocks
    tree = ast.parse(
        "import itertools\n"
        "def _tally_scalar(spec, leads):\n"
        "    return itertools.product(leads, range(3))\n"
        "def _blocks(spec, leads):\n"
        "    yield from itertools.product(leads)\n"
    )
    assert _places({"census.py": tree}, "product") == [("census.py", "_blocks"), ("census.py", "_tally_scalar")]


def test_one_squarefree_decomposition_per_polynomial():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in _MODULES if p.name != "intpoly.py"}
    assert _places(trees, "squarefree_decomposition", imports=False) == [("roots.py", "_analysis")]


def test_squarefree_decomposition_use_is_found():
    trees = {
        "a.py": ast.parse("from .intpoly import squarefree_decomposition\n__all__ = ['squarefree_decomposition']\n"),
        "b.py": ast.parse("from . import intpoly\ndef f(g):\n    return intpoly.squarefree_decomposition(g)\n"),
        "c.py": ast.parse("from .intpoly import squarefree_decomposition as sd\nuse = squarefree_decomposition\n"),
    }
    refs = _places(trees, "squarefree_decomposition", imports=False)
    assert refs == [("b.py", "f"), ("c.py", None)]


def _attribute_reads(trees: dict, attr: str) -> list:
    """(module, line) of every read of an attribute named `attr`."""
    return sorted(
        (name, node.lineno)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == attr and isinstance(node.ctx, ast.Load)
    )


def test_hot_paths_read_cells_not_disks():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in _MODULES
             if p.name in ("classify.py", "census.py")}
    assert len(trees) == 2
    assert _attribute_reads(trees, "disks") == []


def test_disks_read_is_found():
    trees = {
        "a.py": ast.parse("def f(rs):\n    disks = rs.cells\n    return rs.disks, disks\n"),
        "b.py": ast.parse("x.disks = 1\ny = x.disks[0]\nz = disks\n"),
    }
    assert _attribute_reads(trees, "disks") == [("a.py", 3), ("b.py", 2)]


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _call_sites(tree: ast.Module, prefix: str) -> list:
    """(innermost enclosing function or None, whether inside a loop of
    it) of every call of a name or attribute starting with prefix."""
    found = []

    def visit(node, where, looped):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name, False)
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", "")
                if name.startswith(prefix):
                    found.append((where, looped))
            visit(child, where, looped or isinstance(child, _LOOPS))

    visit(tree, None, False)
    return sorted(found, key=lambda site: (site[0] or "", site[1]))


def test_one_powering_call_per_pattern():
    tree = ast.parse((Path(rootcensus.__file__).parent / "modp.py").read_text(encoding="utf-8"))
    assert _call_sites(tree, "_pow") == [("factor_degree_pattern", False)]


def test_powering_in_a_loop_is_found():
    # a fresh X^(p^d) for each distinct-degree step, and a powering helper
    tree = ast.parse(
        "def factor_degree_pattern(f, p):\n"
        "    h = pow(2, p, p)\n"
        "    while h:\n"
        "        h = _powmod(h, p, f, p)\n"
        "    return [m._pow_x(e) for e in f]\n"
        "def _rows(x):\n"
        "    return _pow_x(x, 2)\n"
    )
    assert _call_sites(tree, "_pow") == [
        ("_rows", False), ("factor_degree_pattern", True), ("factor_degree_pattern", True)]
