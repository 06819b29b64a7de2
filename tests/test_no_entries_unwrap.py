"""A lattice vector is its tuple: the package never unwraps ``.entries``.

:class:`~qres.exact_lattice.IntegerVector` subclasses ``tuple``, so every
routine reads the vector itself.  ``entries`` stays only as a read-only
accessor for outside callers, and it returns a copy, a plain tuple; a read
of it in a hot loop would silently cost speed.  So no module of
``src/qres`` may read an attribute named ``entries`` except inside that
accessor.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qres"


def _accessor(tree):
    """The ``entries`` function of the ``IntegerVector`` class, or None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "IntegerVector":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "entries":
                    return item
    return None


def test_no_module_reads_entries_outside_the_accessor():
    modules = sorted(PACKAGE.glob("*.py"))
    found, accessors = [], 0
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        accessor = _accessor(tree)
        exempt = set(ast.walk(accessor)) if accessor is not None else set()
        accessors += accessor is not None
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "entries" and node not in exempt
        ]
    assert len(modules) > 5
    assert accessors == 1
    assert found == []
