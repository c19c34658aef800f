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
"""

import csv
import gzip
import json
from pathlib import Path

import pytest

from pnmimo.cli import main

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
