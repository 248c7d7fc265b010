"""The brute-force oracles share no helper with the Howell engine they check:
oracles.py names nothing that linalg defines, nor linalg itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "iwasawa_kit"


def names(tree):
    """Every module, imported name, identifier and attribute the tree names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (node.module or "").split(".")
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield from alias.name.split(".")
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_the_oracles_name_nothing_from_the_howell_engine():
    linalg = ast.parse((SRC / "linalg.py").read_text())
    engine = {"linalg"} | {
        node.name for node in linalg.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert {"howell_form", "in_span", "span_size"} <= engine
    oracles = ast.parse((SRC / "oracles.py").read_text())
    assert engine.isdisjoint(names(oracles))
