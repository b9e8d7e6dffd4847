"""Every imported name in the package, the tests and the demos is used.

No linter runs in CI, so this parses each file with ``ast`` and fails on
a name bound by an import and never read.  ``from __future__`` imports
are skipped.  In the same way, every private module-level function or
class of the package, and every function of the packed-key kernel, is
referenced somewhere in the package outside its own definition.

The routes that check the packed-key kernel stay off it: the closed form
does not import it, even indirectly, and neither Lagrange inversion
(one function for symbolic and numeric dims, and the moment table built
on it) nor the brute listing names it.
"""

import ast
import inspect
from pathlib import Path

import pytest

from fussnarayana import freeprob, partitions, series

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for pattern in ("src/fussnarayana/*.py", "tests/*.py", "demos/*.py")
    for path in ROOT.glob(pattern)
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scanner_flags_an_unused_name():
    source = "import os, sys\nfrom math import pi as tau, e\nprint(sys.argv, e)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: tau"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def references(tree: ast.Module, module: str, target: str, name: str, skip: frozenset) -> bool:
    """Whether ``tree``, the source of ``module``, names ``target.name``.

    Inside ``target`` itself a read of the bare name counts; elsewhere
    ``target.name`` or an import of ``name`` from ``target``.  Nodes
    whose id is in ``skip`` are not looked at.
    """
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if module == target:
            if isinstance(node, ast.Name) and node.id == name:
                return True
        elif isinstance(node, ast.Attribute):
            if node.attr == name and isinstance(node.value, ast.Name) and node.value.id == target:
                return True
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == target:
            if any(alias.name == name for alias in node.names):
                return True
    return False


def unreferenced_definitions(sources: dict[str, str], public: tuple[str, ...] = ()) -> list[str]:
    """Definitions in ``sources`` (module name to source) that nothing else names.

    Checked are the module-level functions and classes whose name starts
    with ``_``, and every module-level function of the modules in
    ``public``.  A reference from inside the definition itself does not
    count.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or (module in public and isinstance(node, ast.FunctionDef)):
                inside = frozenset(id(child) for child in ast.walk(node))
                if not any(references(other_tree, other, module, node.name, inside)
                           for other, other_tree in trees.items()):
                    found.append(f"{module}.{node.name}")
    return found


def test_dead_code_scanner_flags_an_unreferenced_definition():
    # a read in the module, an import and an attribute of the module count;
    # a call from inside the definition itself, or a namesake elsewhere, does not
    sources = {
        "a": "def _read():\n    pass\n\ndef _imported():\n    pass\n\n"
             "def _recursive():\n    return _recursive()\n\nclass _Unused:\n    pass\n\n"
             "def kernel():\n    return _read()\n\ndef helper():\n    pass\n",
        "b": "from . import a\nfrom .a import _imported\n\n"
             "def helper():\n    return a.kernel, _Unused, c.helper\n",
    }
    assert unreferenced_definitions(sources) == ["a._recursive", "a._Unused"]
    assert unreferenced_definitions(sources, ("a",)) == ["a._recursive", "a._Unused", "a.helper"]


def test_no_dead_private_definitions():
    sources = {path.stem: path.read_text() for path in ROOT.glob("src/fussnarayana/*.py")}
    assert unreferenced_definitions(sources, ("_packed",)) == []


def package_imports(name: str) -> set[str]:
    """Package modules that ``fussnarayana.<name>`` imports by relative import."""
    tree = ast.parse((ROOT / "src" / "fussnarayana" / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


def test_kernel_is_named_only_through_its_module():
    # so a use of the kernel anywhere in a module's source reads "_packed."
    for path in ROOT.glob("src/fussnarayana/*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                assert node.module.split(".")[-1] != "_packed", path


def test_closed_form_does_not_reach_the_kernel():
    seen, todo = set(), ["exact"]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(package_imports(name))
    # nor the series or counting routes it is checked against
    assert not seen & {"_packed", "series", "partitions"}, sorted(seen)
    # the scanner does see the kernel where it is imported
    assert "_packed" in package_imports("series") & package_imports("partitions")


@pytest.mark.parametrize("function", [series.lagrange_coefficient, freeprob.moments_by_lagrange,
                                      partitions.listed_histograms],
                         ids=lambda function: function.__qualname__)
def test_cross_check_routes_do_not_name_the_kernel(function):
    assert "_packed" not in inspect.getsource(function)
