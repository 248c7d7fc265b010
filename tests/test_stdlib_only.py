"""The runtime depends on nothing beyond the standard library: every absolute
import in the package names a standard-library module (or the package). Every
command is a fresh process, so the CLI also stays clear of the slow-to-import
`dataclasses` (which pulls in `inspect`, `ast` and `dis`) and `typing`."""

import ast
import subprocess
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


def test_the_cli_imports_no_dataclasses_inspect_or_typing():
    # -S: site packages may import typing themselves (a .pth file, say)
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import iwasawa_kit.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & sys.modules.keys()))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe, str(SRC.parent)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
