"""Stored-table guard for every preset.

The fig2-fig4 presets at seed 0 with 100 realizations, and the eight
analytic-only presets at seed 0, must reproduce the tables stored with the
benchmark: floats within 1e-12 relative (closed forms may move in the last
digits when products are reassociated), every other cell exactly.  Any
change to what realization i draws from its stream (master_seed, i), or in
which order, changes the empirical columns; any change to how a row is
assembled from its scenario, closed form and rates changes the analytic ones.
"""

import csv
import gzip
import json
from pathlib import Path

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


def _mismatches(reference: str, presets, extra_args, tmp_path) -> list:
    with gzip.open(REFERENCE_DIR / reference, "rt") as fh:
        tables = json.load(fh)["tables"]
    mismatches = []
    for preset in presets:
        out = tmp_path / f"{preset}.csv"
        assert main(["preset", preset, "--seed", "0", *extra_args,
                     "--out", str(out)]) == 0
        got = list(csv.reader(out.read_text().splitlines()))
        want = list(csv.reader(tables[preset].splitlines()))
        assert len(got) == len(want), preset
        for i, (g_row, w_row) in enumerate(zip(got, want)):
            assert len(g_row) == len(w_row), (preset, i)
            mismatches += [(preset, i, g, w) for g, w in zip(g_row, w_row)
                           if not _same(g, w)]
    return mismatches


def test_mc_presets_match_stored_reference(tmp_path):
    mismatches = _mismatches("mc_verify-seed0.json.gz", ("fig2", "fig3", "fig4"),
                             ["--realizations", "100"], tmp_path)
    assert not mismatches, mismatches[:5]


def test_analytic_presets_match_stored_reference(tmp_path):
    presets = ("fig5", "fig6a", "fig6b", "fig6c", "fig6d", "fig7", "fig8", "lte")
    mismatches = _mismatches("analytic_presets-seed0.json.gz", presets, [], tmp_path)
    assert not mismatches, mismatches[:5]
