"""Every imported name in the package and the tests is used, and every
definition in the package is read by the program.

No linter ships with the project, so these ast scans stand in for one: a
name bound by an import must be read somewhere in its module, or be
listed in the module's ``__all__`` as a re-export; a module-level function
or class of the package must be read, as a name or an attribute, somewhere
in the package or the benchmark outside its own definition.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "drinfeld").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
PROGRAM = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
# definitions no program path reads, kept as references the tests compare against
KEEP = {"count_subspaces"}


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


def definitions(source):
    """(name, first line, last line) of each module-level function and class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(n.name, n.lineno, n.end_lineno) for n in ast.parse(source).body if isinstance(n, kinds)]


def reads(source):
    """(name, line) of every name or attribute the source reads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, node.lineno))
    return out


def unread_definitions(defining, readers):
    """(key, name) of the definitions in the sources `defining` (key -> text)
    that no source in `readers` reads outside the definition itself."""
    read = {}
    for key, text in readers.items():
        for name, line in reads(text):
            read.setdefault(name, []).append((key, line))
    out = []
    for key, text in defining.items():
        for name, first, last in definitions(text):
            places = read.get(name, ())
            if all(k == key and first <= line <= last for k, line in places):
                out.append((key, name))
    return out


def test_scanner_finds_an_unread_definition():
    source = "def f():\n    return f()\n\nclass A:\n    pass\n\ndef g():\n    return A\n"
    other = "import m\nm.g()\n"
    assert unread_definitions({"a": source}, {"a": source, "b": other}) == [("a", "f")]


def test_no_unread_definitions():
    texts = {str(path.relative_to(ROOT)): path.read_text() for path in PROGRAM}
    package = {key: text for key, text in texts.items() if key.startswith("src")}
    found = [(key, name) for key, name in unread_definitions(package, texts) if name not in KEEP]
    assert found == []
