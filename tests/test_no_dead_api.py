"""No dead API: every top-level function and class of the package, and every
method of its classes, is named by some other code of the package (a call, an
attribute or an import), outside its own definition. A re-export in
`__init__.py` is not a use: a name that only the package's front door lists is
still run by nothing. Dunders, which Python calls by protocol, and overrides
of a base-class method, which the base class calls, are exempt. A fast path
whose last caller is deleted fails here, so that its code goes too or moves
into the tests."""

import ast
import importlib
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "iwasawa_kit"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def named(node):
    """Every identifier that the code under node names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rpartition(".")[2]


def overrides(module: str, cls: str, method: str) -> bool:
    """Whether the method overrides one of a base class, which calls it."""
    klass = getattr(importlib.import_module(f"iwasawa_kit.{module}"), cls)
    return any(method in vars(base) for base in klass.__mro__[1:])


def definitions(tree):
    """(qualified name, node) of the top-level definitions and methods."""
    for stmt in tree.body:
        if isinstance(stmt, DEFINITIONS):
            yield stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if isinstance(member, DEFINITIONS):
                    yield f"{stmt.name}.{member.name}", member


def package_trees():
    """The syntax tree of each module but `__init__.py`."""
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}


def unnamed_definitions(trees, is_override=overrides):
    uses = Counter(name for tree in trees.values() for name in named(tree))
    out = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            cls, _, method = qualname.rpartition(".")
            if method.startswith("__") and method.endswith("__"):
                continue
            if uses[method] > Counter(named(node))[method]:
                continue
            if cls and is_override(module, cls, method):
                continue
            out.append(f"{module}.{qualname}")
    return out


def test_every_definition_is_named_by_other_package_code():
    assert unnamed_definitions(package_trees()) == []


SAMPLE = """
class A(Base):
    def __init__(self):
        self.run()

    def run(self):
        return 0

    def alone(self):
        return self.alone()

    def error(self, message):
        return message


def top():
    return A()
"""


def test_the_guard_sees_methods_and_looks_past_the_reexports():
    """A method or function that only its own body names is flagged, dunders
    and overrides are not, and `__init__.py` is not read at all."""
    def is_override(module, cls, method):
        return method == "error"

    trees = {"sample": ast.parse(SAMPLE)}
    assert unnamed_definitions(trees, is_override) == ["sample.A.alone", "sample.top"]
    assert "__init__" not in package_trees()
    assert overrides("cli", "ArgumentParser", "error")  # argparse calls it
    assert not overrides("exact", "CyclotomicInt", "is_rational")
