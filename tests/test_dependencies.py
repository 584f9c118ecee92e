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


@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.rglob("*.py"))
                                  if path.name != "__init__.py"],
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    """Every name a module imports is read in it (__init__.py re-exports
    its names, so it is left out): code moved to another module leaves no
    stale import behind."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in read)
    assert not unused, f"{path.name} imports but never reads " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


# the flow jets run on integers, so only TruncSeries (moments.py) takes
# kernels' raw mpf tuple kernels: conv, and dot, which conv absorbed
JET_LAYER = {"moments.py"}
RAW_KERNELS = {"conv", "dot"}


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda path: path.name)
def test_node_sums_are_integer_only(path):
    """Every node sum and the flow jets run on integers: only TruncSeries'
    module takes a raw-tuple kernel from kernels (by import or as
    kernels.<name>), and no module reads a node list's weights as raw
    tuples (raw_weights)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    taken, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.module or "").split(".")[-1] == "kernels":
            taken |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id == "kernels":
                taken.add(node.attr)
        elif isinstance(node, ast.Name):
            read.add(node.id)
    if path.name not in JET_LAYER:
        assert not taken & RAW_KERNELS, (
            f"{path.name} takes {sorted(taken & RAW_KERNELS)} from kernels")
    assert "raw_weights" not in read, f"{path.name} reads raw_weights"
