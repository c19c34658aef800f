"""Stored-table guard for every preset, the generated sweep and the lemma report.

The fig2-fig4 presets at seed 0 with 100 realizations, the eight
analytic-only presets at seed 0, the generated M=200, K=40 sweep at seed 0
(serially) and the lemma report at seed 0 must reproduce the tables stored
with the benchmark: floats within 1e-12 relative (closed forms may move in
the last digits when products are reassociated), every other cell exactly.
Any change to what realization i draws from its stream (master_seed, i), or
in which order, changes the empirical columns; any change to how a row is
assembled from its scenario, closed form and rates changes the analytic
ones; any change to a lemma check's draws or arithmetic changes its report.
The Monte-Carlo part is also run under another OpenBLAS kernel set, whose
products and eigendecompositions round differently: the 1e-12 guard is what
the tables promise across machines.
"""

import csv
import gzip
import json
import subprocess
import sys
from pathlib import Path

import pytest

from pnmimo.cli import main

from conftest import fresh_env

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
RTOL = 1e-12


def _same(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return abs(g - w) <= RTOL * max(abs(g), abs(w))


def _reference(reference: str) -> dict:
    with gzip.open(REFERENCE_DIR / reference, "rt") as fh:
        return json.load(fh)


def _table_mismatches(label: str, got_text: str, want_text: str) -> list:
    got = list(csv.reader(got_text.splitlines()))
    want = list(csv.reader(want_text.splitlines()))
    assert len(got) == len(want), label
    mismatches = []
    for i, (g_row, w_row) in enumerate(zip(got, want)):
        assert len(g_row) == len(w_row), (label, i)
        mismatches += [(label, i, g, w) for g, w in zip(g_row, w_row) if not _same(g, w)]
    return mismatches


def _mismatches(reference: str, presets, extra_args, tmp_path) -> list:
    tables = _reference(reference)["tables"]
    mismatches = []
    for preset in presets:
        out = tmp_path / f"{preset}.csv"
        assert main(["preset", preset, "--seed", "0", *extra_args,
                     "--out", str(out)]) == 0
        mismatches += _table_mismatches(preset, out.read_text(), tables[preset])
    return mismatches


def _signature_mismatches(reference: str, tmp_path) -> list:
    """Run the invocations stored in a reference's signature, with its
    generated input files, at parallelism 1 where any worker count was
    allowed, and compare each <label>.csv they write with its table."""
    stored = _reference(reference)
    for name, text in stored["signature"]["generated"].items():
        (tmp_path / name).write_text(text)
    for argv in stored["signature"]["argv"]:
        assert main([a.replace("<tmp>", str(tmp_path)).replace("<any>", "1")
                     for a in argv]) == 0
    return [m for label, want in stored["tables"].items()
            for m in _table_mismatches(label, (tmp_path / f"{label}.csv").read_text(), want)]


def test_mc_presets_match_stored_reference(tmp_path):
    mismatches = _mismatches("mc_verify-seed0.json.gz", ("fig2", "fig3", "fig4"),
                             ["--realizations", "100"], tmp_path)
    assert not mismatches, mismatches[:5]


def test_analytic_presets_match_stored_reference(tmp_path):
    presets = ("fig5", "fig6a", "fig6b", "fig6c", "fig6d", "fig7", "fig8", "lte")
    mismatches = _mismatches("analytic_presets-seed0.json.gz", presets, [], tmp_path)
    assert not mismatches, mismatches[:5]


@pytest.mark.parametrize("reference", ["mc_large-seed0.json.gz", "lemma_lab-seed0.json.gz"])
def test_stored_invocations_match_reference(reference, tmp_path):
    mismatches = _signature_mismatches(reference, tmp_path)
    assert not mismatches, mismatches[:5]


# numpy's OpenBLAS kernel set and build string, printed by a fresh
# interpreter: (None, None) where numpy links no OpenBLAS that reports them
_KERNELS = """\
import ctypes, json, sys, numpy
core = sys.modules.get("numpy._core._multiarray_umath") or sys.modules.get(
    "numpy.core._multiarray_umath")
lib, found = ctypes.CDLL(core.__file__), [None, None]
for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
    fns = [getattr(lib, f"{prefix}_get_{name}{suffix}", None) for name in ("corename", "config")]
    if None not in fns:
        for fn in fns:
            fn.restype = ctypes.c_char_p
        found = [fn().decode() for fn in fns]
        break
print(json.dumps(found))
"""


def _kernels(env: dict) -> list:
    return json.loads(subprocess.run([sys.executable, "-c", _KERNELS], env=env, check=True,
                                     capture_output=True, text=True).stdout)


def test_mc_tables_match_stored_reference_under_haswell_kernels():
    # the fig2-fig4 presets and the generated M=200, K=40 sweep, rerun in a
    # fresh interpreter whose OpenBLAS runs its Haswell kernels, stay within
    # the 1e-12 guard of the stored tables
    env = {**fresh_env(), "OPENBLAS_CORETYPE": "Haswell"}
    corename, build = _kernels(env)
    if build is None or "DYNAMIC_ARCH" not in build.split():
        pytest.skip("numpy's OpenBLAS reports no kernel set or is not a DYNAMIC_ARCH build")
    if corename.lower() != "haswell":
        pytest.skip(f"OpenBLAS runs {corename} kernels here, not Haswell")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__, "-k",
         "mc_presets_match or mc_large"], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout[-2000:]
    assert "2 passed" in run.stdout
