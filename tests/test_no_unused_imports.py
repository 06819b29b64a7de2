"""Every name the package imports is used in the module that imports it.

An import that nothing reads is a dependency the module does not have: it
hides which module owns a rule, and it outlives the code that needed it.
The scan reads each module's syntax tree, so a name counts as used when it
is loaded anywhere in the module, annotations included.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qres"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "from .cones_fans import Cone, multiplicity\n\nx: Cone\n"
    assert unused_imports(source) == ["multiplicity (line 1)"]
    assert unused_imports("import os.path\n\nos.sep\n") == []


def test_package_has_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = {
        path.name: unused
        for path in modules
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
