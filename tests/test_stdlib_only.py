"""The runtime depends on nothing beyond the standard library: every absolute
import in the package names a standard-library module (or the package)."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "iwasawa_kit"


def absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = [
        f"{path.name}:{line} imports {name}"
        for path in files
        for line, name in absolute_imports(ast.parse(path.read_text(), str(path)))
        if name.partition(".")[0] not in sys.stdlib_module_names | {"iwasawa_kit"}
    ]
    assert outside == []
