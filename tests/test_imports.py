"""The runtime uses the standard library only: every absolute import in
the package names a standard-library module or the package itself.  And
the orbit size p^(k - h) has one home, Group.index."""

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


def subtracts_from_k(node: ast.AST) -> bool:
    """Whether node is a chain k - ... - ... whose first term is k or *.k."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return False
    while isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        node = node.left
    return (isinstance(node, ast.Name) and node.id == "k"
            or isinstance(node, ast.Attribute) and node.attr == "k")


def test_index_powers_only_in_group():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "group.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                    and subtracts_from_k(node.right)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"write p ** (k - h) as Group.index(h): {found}"
