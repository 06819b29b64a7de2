"""Invariant checks in the package must survive ``python -O``.

``python -O`` strips ``assert`` statements, so every check in ``src/qres``
raises an error of its own instead (``MeasureError`` for internal ones).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qres"


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(PACKAGE.glob("*.py"))
    assert found == []
