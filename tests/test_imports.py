"""Every imported name in the package and the tests is used.

No linter ships with the project, so this ast scan stands in for one: a
name bound by an import must be read somewhere in its module, or be
listed in the module's ``__all__`` as a re-export.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "drinfeld").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names bound by imports in the source that it never reads."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts)
    return sorted(imported - used)


def test_scanner_finds_an_unused_import():
    source = "import os\nfrom math import gcd, lcm as l\n__all__ = ['gcd']\nos.sep\n"
    assert unused_imports(source) == ["l"]


def test_no_unused_imports():
    found = {}
    for path in SOURCES:
        names = unused_imports(path.read_text())
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}
