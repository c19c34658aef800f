import ast
import importlib.util
import inspect
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import pnmimo
from pnmimo import lemmas, linksim
from pnmimo.config import SystemConfig

from conftest import fresh_env

MODULES = ["pnmimo"] + sorted(f"pnmimo.{m.name}" for m in pkgutil.iter_modules(pnmimo.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _perfbench_constant(filename: str, name: str):
    """A module-level literal of a perfbench file, read with ast, without
    importing perfbench."""
    tree = ast.parse((Path(__file__).parent.parent / "perfbench" / filename).read_text())
    value, = [node.value for node in tree.body if isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) == name]
    return ast.literal_eval(value)


def test_traced_modules_import():
    # perfbench/tracer.py imports each pnmimo module named in its TRACED dict,
    # so a removed or renamed module would break traced benchmark runs
    names = _perfbench_constant("tracer.py", "TRACED")
    assert "lemmas" in names
    for name in names:
        importlib.import_module(f"pnmimo.{name}")


def test_traced_call_arguments_bind():
    # perfbench/layers.py binds each lemma check of its LEMMA_CHECKS to its
    # signature and reads n_trials and M_values or M, and it reads a traced
    # empirical_powers call's first argument as the SystemConfig; a renamed
    # parameter would crash traced lemma_lab and mc_* runs
    checks = _perfbench_constant("layers.py", "LEMMA_CHECKS")
    assert "check_trace_lemma" in checks
    for check in checks:
        params = inspect.signature(getattr(lemmas, check)).parameters
        assert "n_trials" in params
        assert ("M_values" in params) != ("M" in params), check
    first = next(iter(inspect.signature(linksim.empirical_powers).parameters.values()))
    assert first.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert typing.get_type_hints(linksim.empirical_powers)[first.name] is SystemConfig


def _fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter, so that modules the tests
    import do not count."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=fresh_env(), check=True).stdout


def test_config_loads_no_other_pnmimo_module():
    # every other module reads config, so config reads none of them
    out = _fresh("import sys, pnmimo.config; "
                 "print(sorted(m for m in sys.modules if m.startswith('pnmimo.')))")
    assert out == "['pnmimo.config']\n"


def test_simulation_runs_without_scipy(tmp_path):
    out_csv = str(tmp_path / "x.csv")
    out = _fresh("import sys; from pnmimo.cli import main; "
                 f"code = main(['preset', 'fig3', '--realizations', '10', '--out', {out_csv!r}]); "
                 "print(code, 'scipy' in sys.modules)")
    assert out.split() == ["0", "False"]


# Modules that only worker threads, the lemmas verb and config files need,
# and the process pool's modules, which nothing needs
ON_FIRST_USE = ("concurrent.futures.process", "concurrent.futures.thread",
                "multiprocessing", "pnmimo.lemmas", "configparser", "numpy.random")


def test_closed_form_preset_loads_only_what_it_runs(tmp_path):
    out_csv = str(tmp_path / "x.csv")
    out = _fresh(f"import sys; lazy = {ON_FIRST_USE!r}; import pnmimo.cli; "
                 "print([m for m in lazy if m in sys.modules]); "
                 f"code = pnmimo.cli.main(['preset', 'fig6a', '--out', {out_csv!r}]); "
                 "print(code, [m for m in lazy if m in sys.modules])")
    assert out.splitlines() == ["[]", "0 []"]


def test_parallel_sweep_loads_the_thread_pool_only(tmp_path):
    # --parallelism 2 runs the kernel on worker threads (1000 realizations
    # are three pooled chunks of 409 at M=20, K=4; 2 cores, and the pool's
    # shape and chunks-per-thread floors lifted): their pool loads, the
    # process pool's modules never do
    ini, out_csv = tmp_path / "run.ini", str(tmp_path / "x.csv")
    ini.write_text("[system]\nM = 20\nK = 4\nM_osc = 2\nn_realizations = 1000\n\n"
                   "[sweep]\naxis = snr\nvalues = 0 10\n")
    pools = ("concurrent.futures.thread", "concurrent.futures.process", "multiprocessing")
    out = _fresh(f"import sys; import pnmimo.cli, pnmimo.linksim; "
                 "pnmimo.linksim._cores = lambda: 2; "
                 "pnmimo.linksim.POOL_MIN_ELEMENTS = 0; pnmimo.linksim.POOL_MIN_CHUNKS = 1; "
                 f"code = pnmimo.cli.main(['sweep', {str(ini)!r}, '--parallelism', '2', "
                 f"'--out', {out_csv!r}]); "
                 f"print(code, [m for m in {pools!r} if m in sys.modules])")
    assert out == "0 ['concurrent.futures.thread']\n"


SYNTHETIC_MODULE = '''"""Module docstring,
over two lines."""

import os  # a comment on a code line

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        x = """a string assigned,
        not a docstring"""
        return x, os
'''


def test_count_lines_skips_blank_comment_and_docstring_lines(tmp_path):
    # tools/count_lines.py: of 16 lines, six are code: the import, the class
    # and def lines, the assigned string's two lines and the return
    spec = importlib.util.spec_from_file_location(
        "count_lines", Path(__file__).parent.parent / "tools" / "count_lines.py")
    count_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(count_lines)
    assert count_lines.count(SYNTHETIC_MODULE) == (16, 6)
    (tmp_path / "mod.py").write_text(SYNTHETIC_MODULE)
    out = subprocess.run([sys.executable, spec.origin, str(tmp_path)], capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[1:] == [f"{'mod':14s} {16:6d} {6:6d}",
                                    f"{'total':14s} {16:6d} {6:6d}"]
