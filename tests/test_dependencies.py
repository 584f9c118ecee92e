"""mpmath is the only runtime dependency: every module under src/dlaguerre
imports only the standard library, mpmath and the package itself."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "dlaguerre"
ALLOWED = set(sys.stdlib_module_names) | {"mpmath", "dlaguerre"}


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda path: path.name)
def test_imports_are_stdlib_mpmath_or_own(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:                   # not an import, or a relative one
            continue
        for name in names:
            assert name.split(".")[0] in ALLOWED, (
                f"{path.name}:{node.lineno} imports {name}")
