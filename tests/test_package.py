import ast
from pathlib import Path

import chamberwalk

SRC = Path(chamberwalk.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = [name for name in chamberwalk.__all__ if not hasattr(chamberwalk, name)]
    assert missing == []
    assert len(set(chamberwalk.__all__)) == len(chamberwalk.__all__)


def test_no_public_name_is_test_only():
    """Each public top-level function or class is exported or used in the package."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in chamberwalk.__all__
        and node.name not in used
    ]
    assert unused == []
