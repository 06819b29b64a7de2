"""One exact solver: the package computes with the integer kernel only.

``span_coordinates`` and ``matrix_rank`` eliminate over ``Fraction``.  They
stay in ``exact_lattice`` as the reference the tests compare the integer
kernel against, so no other module of ``src/qres`` may name them, and no
module but those two and the oracles of ``hj_oracle`` may import
``fractions``.  The coset oracle of ``hj_oracle`` checks the Smith normal
form, so it must not use a normal form itself.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qres"
REFERENCE_ONLY = {"span_coordinates", "matrix_rank"}
MAY_IMPORT_FRACTIONS = {"exact_lattice.py", "hj_oracle.py"}


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


def test_only_the_reference_and_the_oracles_import_fractions():
    modules = sorted(PACKAGE.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        if path.name not in MAY_IMPORT_FRACTIONS
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "fractions")
    ]
    assert len(modules) > 5
    assert found == []


def test_the_coset_oracle_names_no_normal_form():
    tree = ast.parse((PACKAGE / "hj_oracle.py").read_text(encoding="utf-8"))
    found = [
        f"hj_oracle.py:{node.lineno}: {name}"
        for node, name in _names(tree)
        if name.endswith("_normal_form")
    ]
    assert found == []
