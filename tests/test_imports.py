"""Modules of the package use only each other's public names."""

import ast
from pathlib import Path

import mmvsolve

PACKAGE = Path(mmvsolve.__file__).resolve().parent


def test_no_private_imports_between_modules():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("mmvsolve")
            ):
                found += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []
