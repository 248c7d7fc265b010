"""No dead API: every top-level function and class of the package is named by
some other code of the package (a call, an attribute, an import or a
re-export), outside its own definition. A fast path whose last caller is
deleted fails here, so that its code goes too or moves into the tests."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "iwasawa_kit"

# module.name -> why it stays although no other package code names it
ALLOWED = {
    "lvalues.generalized_bernoulli": (
        "a target of the benchmark tracer (perfbench/tracer.py, lvalues.gen_bernoulli); "
        "it moves into the tests when the tracer is retargeted (ROADMAP item 6)"
    ),
}


def named(node):
    """Every identifier that the code under node names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rpartition(".")[2]


def unnamed_definitions():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    names_by_statement = {id(stmt): set(named(stmt)) for stmt in statements}
    return [
        f"{module}.{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not any(stmt.name in names_by_statement[id(other)] for other in statements if other is not stmt)
    ]


def test_every_top_level_definition_is_named_by_other_package_code():
    assert [name for name in unnamed_definitions() if name not in ALLOWED] == []


def test_the_allowlist_names_only_unnamed_definitions():
    """An entry whose name is gone or has gained a caller is stale."""
    assert set(ALLOWED) <= set(unnamed_definitions())
