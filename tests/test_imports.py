"""Every imported name in the package and the tests is used, and every
definition in the package is read by the program.

No linter ships with the project, so these ast scans stand in for one: a
name bound by an import must be read somewhere in its module, or be
listed in the module's ``__all__`` as a re-export; a module-level function
or class of the package must be read, as a name or an attribute, somewhere
in the package or the benchmark outside its own definition, and a
non-dunder method must be read as an attribute there outside its own body.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "drinfeld").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
PROGRAM = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
AUTOS = ("InnerAuto", "ContragredientAuto", "DetTwistAuto", "RingAuto", "NonStandardAuto")
# definitions no program path reads: references the tests compare against
# (the automorphisms' direct route apply_matrix for compose_with_inverse,
# SubspaceDesc.vectors for iter_subspaces) and a hook argparse calls
KEEP = {"count_subspaces", "SubspaceDesc.vectors", "_Parser.error"}
KEEP |= {f"{cls}.apply_matrix" for cls in AUTOS}


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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(source):
    """(label, first line, last line) of each module-level function and
    class, and of each non-dunder method of those classes, labelled
    Class.method."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            out.append((node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, FUNCTIONS) and not m.name.startswith("__"):
                    out.append((f"{node.name}.{m.name}", m.lineno, m.end_lineno))
    return out


def reads(source):
    """(name, line, is an attribute) of every name or attribute the source reads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, node.lineno, True))
    return out


def unread_definitions(defining, readers):
    """(key, label) of the definitions in the sources `defining` (key -> text)
    that no source in `readers` reads outside the definition itself; a
    method counts as read only through an attribute."""
    read = {}
    for key, text in readers.items():
        for name, line, attr in reads(text):
            read.setdefault(name, []).append((key, line, attr))
    out = []
    for key, text in defining.items():
        for label, first, last in definitions(text):
            owner, _, name = label.rpartition(".")
            places = [(k, line) for k, line, attr in read.get(name, ()) if attr or not owner]
            if all(k == key and first <= line <= last for k, line in places):
                out.append((key, label))
    return out


def test_scanner_finds_an_unread_definition():
    source = "def f():\n    return f()\n\nclass A:\n    pass\n\ndef g():\n    return A\n"
    other = "import m\nm.g()\n"
    assert unread_definitions({"a": source}, {"a": source, "b": other}) == [("a", "f")]


def test_scanner_finds_an_unread_method():
    source = (
        "class A:\n    def __init__(self):\n        self.f()\n"
        "    def f(self):\n        return 1\n"
        "    def g(self):\n        return self.g()\n"
        "    def h(self):\n        pass\n\nprint(h, A)\n"
    )
    assert unread_definitions({"a": source}, {"a": source}) == [("a", "A.g"), ("a", "A.h")]


def test_no_unread_definitions():
    texts = {str(path.relative_to(ROOT)): path.read_text() for path in PROGRAM}
    package = {key: text for key, text in texts.items() if key.startswith("src")}
    found = [(key, name) for key, name in unread_definitions(package, texts) if name not in KEEP]
    assert found == []
