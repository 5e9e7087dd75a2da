"""The demos import only names the package still has.

Each demo is parsed, not run: the check costs milliseconds and needs no
plotting library, yet catches a demo left behind by a deleted public name.
"""

import ast
import importlib
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _beccool_imports(path):
    """(module, name) for every name the file imports from beccool."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "beccool":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "beccool")


def test_demos_found():
    assert DEMOS, "no demos found"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imports = list(_beccool_imports(path))
    assert imports, f"{path.name} imports nothing from beccool"
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{path.name}: {module} has no {name}"
