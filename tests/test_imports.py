"""Modules of the package use only each other's public names, the standard
library and numpy."""

import ast
import sys
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


def test_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one dependency in pyproject.toml: any other import (scipy,
    # say) may pass where it happens to be installed and fail on a plain install
    allowed = set(sys.stdlib_module_names) | {"numpy", "mmvsolve"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} imports {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert found == []
