"""Every imported name in the package, the tests and the demos is used.

No linter runs in CI, so this parses each file with ``ast`` and fails on
a name bound by an import and never read.  ``from __future__`` imports
are skipped.
"""

import ast
from pathlib import Path

import pytest

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
