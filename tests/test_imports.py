"""The runtime uses the standard library only: every absolute import in
the package names a standard-library module or the package itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "slicetower"


def absolute_imports(tree: ast.AST) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append(node.module)
    return out


def test_runtime_imports_are_stdlib_only():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for name in absolute_imports(ast.parse(path.read_text(), str(path))):
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names or top == "slicetower", f"{path.name} imports {name}"
