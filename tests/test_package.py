import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pnmimo

MODULES = ["pnmimo"] + sorted(f"pnmimo.{m.name}" for m in pkgutil.iter_modules(pnmimo.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_traced_modules_import():
    # perfbench/tracer.py imports each pnmimo module named in its TRACED dict,
    # so a removed or renamed module would break traced benchmark runs; the
    # dict is read with ast, without importing perfbench
    tree = ast.parse((Path(__file__).parent.parent / "perfbench" / "tracer.py").read_text())
    traced, = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and getattr(node.targets[0], "id", None) == "TRACED"]
    names = ast.literal_eval(traced)
    assert "lemmas" in names
    for name in names:
        importlib.import_module(f"pnmimo.{name}")


def test_simulation_runs_without_scipy(tmp_path):
    # a fresh interpreter, so modules the tests import do not count
    out_csv = str(tmp_path / "x.csv")
    code = ("import sys; from pnmimo.cli import main; "
            f"code = main(['preset', 'fig3', '--realizations', '10', '--out', {out_csv!r}]); "
            "print(code, 'scipy' in sys.modules)")
    src = str(Path(pnmimo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == ["0", "False"]
