"""One exact solver: the package computes with the integer kernel only.

``span_coordinates`` and ``matrix_rank`` eliminate over ``Fraction``.  They
stay in ``exact_lattice`` as the reference the tests compare the integer
kernel against, so no other module of ``src/qres`` may name them.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qres"
REFERENCE_ONLY = {"span_coordinates", "matrix_rank"}


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node, node.id
        elif isinstance(node, ast.Attribute):
            yield node, node.attr
        elif isinstance(node, ast.alias):
            yield node, node.name


def test_only_exact_lattice_names_the_rational_solvers():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "exact_lattice.py"]
    found = [
        f"{path.name}:{node.lineno}: {name}"
        for path in modules
        for node, name in _names(ast.parse(path.read_text(encoding="utf-8")))
        if name in REFERENCE_ONLY
    ]
    assert len(modules) > 5
    assert found == []
