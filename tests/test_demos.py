"""The demos import only names the package still has, and each runs to the end.

Each demo's imports are checked by parsing it, which also catches a demo left
behind by a deleted public name.  Each demo then runs in its own interpreter
on the checkout's ``src/``, with the non-interactive matplotlib backend, so a
demo that breaks at run time fails here too.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DEMO_ARGS = {"07_ensemble_cooling.py": ["--runs", "2"]}  # its default is a long ensemble


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


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ, MPLBACKEND="Agg",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(path), *DEMO_ARGS.get(path.name, [])],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"{path.name} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
