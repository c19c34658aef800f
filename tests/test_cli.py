import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pnmimo import analytics, cli, config, lemmas, linksim, sweep
from pnmimo.cli import main
from pnmimo.config import ConfigError, SystemConfig, load_config
from pnmimo.sweep import (COLUMNS, PRESETS, SWEEP_AXES, _draw_key, plan_sweep,
                          rows_to_csv, rows_to_jsonl, run_preset, run_sweep)

from conftest import chunks_per_thread, fresh_env, pool_on_two_cores, two_worker_threads

CFG_TEXT = ("[system]\nM = 20\nK = 4\nM_osc = 2\nq0 = 0.9\nsnr_db = 10\n"
            "n_realizations = 40\n\n[sweep]\naxis = snr\nvalues = 0 10\n")


# Each input exits 2 with a message naming the listed fields: an INI text
# (given a one-point snr sweep when it has none), None for a bad --sizes,
# or an argv list.  The three cases whose generated ids collided with
# other cases' when test names are cut at 100 characters carry short ids.
INVALID_INPUTS = [
    ("[system]\nalpha = inf\n", ("alpha:",)),
    pytest.param("[system]\nsnr_db = nan\n", ("snr_db:",), id="snr_db-nan"),
    ("[system]\nM = abc\n", ("M:",)),
    ("[system]\nq0 = 0\n", ("q0:",)),
    pytest.param("[system]\nM = 20\nK = 4\n\n[sweep]\naxis = snr\nvalues = 0 x\n",
                 ("sweep.values:",), id="snr-values-x"),
    pytest.param("[system]\nM = 20\nK = 4\n\n[sweep]\naxis = snr\nvalues = 0 inf\n",
                 ("sweep.values:",), id="snr-values-inf"),
    ("[system]\nM = 50\nK = 10\nM_osc = 5\nn_realizations = 10\n\n"
     "[sweep]\naxis = beta\nvalues = 3.3 2\n", ("sweep.values:", "M_osc")),
    (None, ("sizes:",)),
    ("[system]\nM = 10\nK = 10\nn_realizations = 10\n", ("K:", "beta")),
    pytest.param("[system]\nM = 20\nK = 4\n\n[sweep]\naxis = m_osc\nvalues = 2.5\n",
                 ("sweep.values:", "m_osc"), id="m_osc-values-2.5"),
    (["preset", "fig3", "--seed", "-1"], ("master_seed:",)),
    (["preset", "fig5", "--out", "TMP/missing/x.csv"], ("--out:",)),
    (["lemmas", "--sizes", "32,64", "--trials", "4", "--out", "TMP/missing/x.csv"],
     ("--out:",)),
    (["lemmas", "--sizes", "64,64"], ("sizes:",)),
    (["lemmas", "--sizes", "1,2"], ("sizes:",)),
    (["lemmas", "--sizes", "0,4"], ("sizes:",)),
    (["lemmas", "--sizes", "64,100"], ("sizes:",)),
    (["lemmas", "--sizes", "64"], ("sizes:",)),
    (["lemmas", "--trials", "-1"], ("trials:",)),
    (["lemmas", "--trials", "0"], ("trials:",)),
    ("[system]\nq0 = 1\nsigma_w2 = 0\n", ("sigma_w2:",)),
    pytest.param("[system]\nq0 = 1\nsigma_w2 = 0\nalpha = 0.1\n", ("sigma_w2:",),
                 id="sigma_w2-0-alpha"),
    pytest.param("[system]\nsnr_db = 4000\n", ("sigma_w2:", "snr_db"),
                 id="snr_db-4000"),
    pytest.param("[system]\nsnr_db = -4000\n", ("sigma_w2:", "snr_db"),
                 id="snr_db-neg-4000"),
    (["preset", "fig3", "--realizations", "1"], ("n_realizations:",)),
    (["lemmas", "--sizes", "2,3"], ("sizes:",)),
    ("[system]\nM = 20\nM = 20\n", ("config:", "line 3")),
    ("[system]\nM = 20\n[system]\nK = 4\n", ("config:", "line 3")),
    ("M = 20\n[system]\nK = 4\n", ("config:", "line 1")),
    pytest.param("[system]\nM = 20\nK\n", ("config:", "line 3"), id="K-without-value"),
    (["lemmas", "--seed", "-1"], ("seed:",)),
    ("[system]\nsigma_deg_bs = 6\n\n[sweep]\naxis = sigma_phi\nvalues = 0.1 -0.1\n",
     ("sweep.values:", "sigma_phi")),
    ("[system]\nalpha = -1\n", ("alpha:",)),
    ("[system]\nalpha_mode = fixed\nalpha = 0.3\n", ("alpha_mode:", "unknown")),
    ("[system]\nM = 50\n\n[sweep]\naxis = m_osc\nvalues = 1 3\n",
     ("sweep.values:", "M_osc")),
    pytest.param("[system]\nM_osc = 0\n", ("M_osc:",), id="m_osc-0"),
    pytest.param("[system]\nK = 0\n", ("K:",), id="K-0"),
    pytest.param("[system]\nsigma_deg_bs = 1e200\n", ("sigma_deg_bs:",),
                 id="sigma_deg_bs-1e200"),
    # a sweep point's tau sigma^2 overflows while the plan holds numpy's raise mode
    pytest.param("[system]\nM = 20\nK = 4\n\n[sweep]\naxis = sigma_phi\nvalues = 1e308\n",
                 ("sweep.values:", "sigma_deg_bs:"), id="sigma_phi-values-1e308"),
    pytest.param("[system]\nq0 = 1e-300\n", ("q0:",), id="q0-1e-300"),
    pytest.param("[system]\nM = 20\nK = 4\n\n[sweep]\naxis = beta\nvalues = 1e308\n",
                 ("sweep.values:", "beta"), id="beta-values-1e308"),
    # M = 23.4 would run as 23, i.e. beta 2.3, under a row saying 2.34
    pytest.param("[system]\nM = 20\nK = 10\n\n[sweep]\naxis = beta\nvalues = 2.34\n",
                 ("sweep.values:", "beta"), id="beta-values-2.34"),
    pytest.param("[system]\nK = 2\npowers = 1e308 1e308\n", ("powers:",),
                 id="powers-sum-1e308"),
    pytest.param("[system]\nM = 1000000000000000000\nK = 10\nn_realizations = 2\n",
                 ("M:",), id="M-1e18"),
    pytest.param(["lemmas", "--sizes", "64,10000000000"], ("sizes:",), id="sizes-1e10"),
    pytest.param(["lemmas", "--sizes", "8,16", "--trials", "1000000000000000000"],
                 ("trials:",), id="trials-1e18"),
    # indexable, but more than the 16 GiB machine the tests pin (_machine)
    pytest.param("[system]\nM = 1000000000000\nK = 10\nn_realizations = 2\n",
                 ("M:", "1312000000009816 bytes"), id="M-1e12"),
    pytest.param(["lemmas", "--sizes", "64,200000", "--trials", "1"],
                 ("sizes:", "3840000000000 bytes"), id="sizes-200000"),
    # 80 B per user and 8 KiB, gated before any per-user array is built
    pytest.param("[system]\nM = 1000000000\nK = 1000000000\n",
                 ("K:", "80000008192 bytes"), id="K-1e9"),
]

# Each scenario passes SystemConfig, but its RZF closed form overflows, turns
# 0/0 or goes negative: the run exits 3 naming the column and the sweep point.
_SMALL = "[system]\nM = 20\nK = 4\nn_realizations = 4\n"
NUMERICAL_FAILURES = [
    pytest.param(_SMALL + "\n[sweep]\naxis = alpha\nvalues = 1e-320\n",
                 "rzf at alpha = 1e-320", id="alpha-values-1e-320"),
    pytest.param(_SMALL + "alpha = 1e300\n\n[sweep]\naxis = snr\nvalues = 0\n",
                 "rzf at snr = 0.0", id="alpha-1e300"),
    pytest.param(_SMALL + "\n[sweep]\naxis = beta\nvalues = 1e300\n",
                 "rzf at beta = 1e+300", id="beta-values-1e300"),
    pytest.param("[system]\nM = 10\nK = 10\nq0 = 1\nsigma_deg_bs = 0\nalpha = 1e-18\n"
                 "n_realizations = 4\n\n[sweep]\naxis = snr\nvalues = 200\n",
                 "rzf at snr = 200.0", id="negative-rzf-sinr"),
]
# Each scenario's closed forms are finite, but std_error_at squares
# mean_int_power + sigma_w2: at K = 1 and snr 3000 dB the square underflows
# to 0, at snr -1560 dB it overflows.  sweep exits 3 naming std_error and the
# sweep point; validate-config, which draws nothing, exits 0.
MONTE_CARLO_FAILURES = [
    pytest.param("[system]\nM = 8\nK = 1\nn_realizations = 4\n\n"
                 "[sweep]\naxis = snr\nvalues = 0 3000\n", "at snr = 3000.0",
                 id="K-1-snr-3000"),
    pytest.param("[system]\nM = 8\nK = 4\nalpha = 0.1\nn_realizations = 4\n\n"
                 "[sweep]\naxis = snr\nvalues = -1560\n", "at snr = -1560.0",
                 id="snr-neg-1560"),
]
INVALID_INI = [case for case in INVALID_INPUTS
               if isinstance(getattr(case, "values", case)[0], str)]

# A 9-point snr sweep over all three precoders on M = 20, K = 4: one draw set
# of 11 (kind, alpha) pairs whose 100,000 realizations hold far more than
# their chunk.
SNR_SWEEP_INI = ("[system]\nM = 20\nK = 4\nn_realizations = 100000\n\n[sweep]\n"
                 "axis = snr\nvalues = -10 -5 0 5 10 15 20 25 30\n")

def _machine(monkeypatch, nbytes):
    """Report nbytes of physical memory to the memory gate, which reads it
    once per process (test_linksim.TestMemoryLimit covers that read)."""
    monkeypatch.setattr(config, "_memory_limit", lambda: nbytes)


def _ini_file(ini, tmp_path):
    if "[sweep]" not in ini:
        ini += "\n[sweep]\naxis = snr\nvalues = 0\n"
    path = tmp_path / "bad.ini"
    path.write_text(ini)
    return str(path)


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CFG_TEXT)
    return str(path)


class TestRunSweep:
    def test_row_per_point_and_precoder(self):
        cfg = SystemConfig(M=20, K=4, M_osc=2, snr_db=10.0, n_realizations=30)
        rows = run_sweep(cfg, "snr", [0.0, 10.0])
        assert len(rows) == 6
        assert {r["precoder"] for r in rows} == {"rzf", "zf", "mf"}
        for r in rows:
            assert r["empirical_sinr"] is not None
            assert r["analytical_sinr"] > 0

    def test_empty_values_rejected(self):
        cfg = SystemConfig(M=20, K=4, M_osc=2, snr_db=10.0)
        with pytest.raises(ConfigError):
            run_sweep(cfg, "snr", [])

    # the plan checks what run_sweep is given before it builds a point
    @pytest.mark.parametrize("axis, values, precoders, field", [
        pytest.param("snr", [0.0], (), "precoder:", id="no-precoders"),
        pytest.param("snr", [0.0], ("rzf", "bogus"), "precoder:", id="unknown-precoder"),
        pytest.param("bogus", [0.0], ("rzf",), "sweep.axis:", id="unknown-axis"),
        pytest.param("m_osc", [math.inf], ("rzf",), "sweep.values:", id="m_osc-inf"),
        pytest.param("m_osc", [math.nan], ("rzf",), "sweep.values:", id="m_osc-nan"),
        pytest.param("snr", [10 ** 400], ("rzf",), "sweep.values:", id="int-overflow"),
        pytest.param("snr", ["0"], ("rzf",), "sweep.values:", id="str-value")])
    def test_sweep_inputs_rejected_by_the_plan(self, axis, values, precoders, field):
        cfg = SystemConfig(M=20, K=4, M_osc=2, n_realizations=4)
        with pytest.raises(ConfigError, match=f"^{re.escape(field)}"):
            run_sweep(cfg, axis, values, precoders)

    def test_monte_carlo_cache_shared_across_snr(self):
        # ZF/MF powers are noise-independent: empirical interference power
        # must be identical at both SNR points
        cfg = SystemConfig(M=20, K=4, M_osc=2, snr_db=10.0, n_realizations=30)
        rows = run_sweep(cfg, "snr", [0.0, 20.0], precoders=("zf",))
        s0, s1 = rows[0], rows[1]
        assert s0["empirical_sinr"] != s1["empirical_sinr"]
        assert s0["n_realizations"] == s1["n_realizations"]

    def test_beta_axis_keeps_topology(self):
        distributed = SystemConfig(M=50, K=10, M_osc=50, snr_db=10.0)
        rows = run_sweep(distributed, "beta", [3.3], precoders=("mf",),
                         with_empirical=False)
        assert (rows[0]["M"], rows[0]["M_osc"]) == (33, 33)
        with pytest.raises(ConfigError, match="sweep.values.*M_osc"):
            run_sweep(replace(distributed, M_osc=5), "beta", [3.3], precoders=("mf",),
                      with_empirical=False)

    @pytest.mark.parametrize("K,beta,M", [(25, 2.2, 55), (4, 2.5, 10)])
    def test_beta_axis_takes_integer_M_within_rounding(self, K, beta, M):
        cfg = SystemConfig(M=2 * K, K=K, snr_db=10.0)
        rows = run_sweep(cfg, "beta", [beta], precoders=("mf",), with_empirical=False)
        assert (rows[0]["M"], rows[0]["sweep_value"]) == (M, beta)

    @pytest.mark.parametrize("axis,values", [("snr", [0.0, 10.0, 20.0]),
                                             ("alpha", [0.05, 0.3])])
    def test_one_pass_equals_one_point_sweeps(self, axis, values):
        # the points share one draw set; each row must still read its own
        # (precoder, alpha) estimate at its own sigma_w2
        cfg = SystemConfig(M=20, K=4, M_osc=2, snr_db=10.0, n_realizations=30)
        alone = [row for v in values for row in run_sweep(cfg, axis, [v])]
        assert run_sweep(cfg, axis, values) == alone

    def test_analytic_only_mode(self):
        cfg = SystemConfig(M=20, K=4, M_osc=2, snr_db=10.0)
        rows = run_sweep(cfg, "snr", [0.0], with_empirical=False)
        assert all(r["empirical_sinr"] is None for r in rows)

    def test_closed_forms_looked_up_per_call(self, monkeypatch):
        # a wrapped or patched analytics function is the one a row runs
        calls = []
        for kind in ("zf", "mf"):
            monkeypatch.setattr(analytics, f"sinr_{kind}",
                                lambda c, kind=kind: calls.append(kind) or 1.0)
        cfg = SystemConfig(M=20, K=4, M_osc=2, snr_db=10.0)
        rows = run_sweep(cfg, "snr", [0.0, 10.0], with_empirical=False)
        assert calls == ["zf", "mf", "zf", "mf"]
        assert [r["analytical_sinr"] for r in rows if r["precoder"] != "rzf"] == [1.0] * 4

    def test_gate_runs_once_per_channel_set(self, monkeypatch):
        # gated: (M_osc, pairs) of each draw set of a gated channel set
        gated = []
        monkeypatch.setattr(sweep, "check_draw_size", lambda point, variants, more: gated.append(
            [(point.M_osc, len(variants))] + [(p.M_osc, len(v)) for p, v in more]))
        cfg = SystemConfig(M=20, K=4, M_osc=2, snr_db=10.0)
        rows, channel_sets = plan_sweep(cfg, "snr", [0.0, 10.0, 20.0])
        assert gated == [[(2, 5)]] and len(channel_sets) == 1 and len(rows) == 9
        # three oscillator counts are three draw sets of one channel set; M
        # (the beta axis) splits the channel set
        _, channel_sets = plan_sweep(cfg, "m_osc", [1, 2, 4], precoders=("zf",))
        assert gated[1:] == [[(1, 1), (2, 1), (4, 1)]] and len(channel_sets) == 1
        _, channel_sets = plan_sweep(cfg, "beta", [5, 10], precoders=("zf",))
        assert gated[2:] == [[(2, 1)], [(2, 1)]] and len(channel_sets) == 2
        # a closed-form-only sweep draws nothing, so nothing is gated
        del gated[:]
        assert plan_sweep(cfg, "snr", [0.0], with_empirical=False)[1] == []
        run_preset("fig6a")
        assert gated == []


class TestSharedDraws:
    def test_one_draw_set_per_oscillator_variant(self, monkeypatch):
        # fig2: 4 M_osc variants x 9 SNR points, each with its own optimal
        # RZF alpha; the variants are four draw sets of one channel set, so
        # each realization builds its stream once for all four, and one
        # kernel pass runs them
        streams, planned, passes = [], [], []
        real, plan, powers = np.random.PCG64, sweep._plan, linksim._powers

        def counted(seed):
            streams.append(seed)
            return real(seed)

        monkeypatch.setattr(linksim.np.random, "PCG64", counted)
        monkeypatch.setattr(sweep, "_plan", lambda *args: planned.append(plan(*args))
                            or planned[-1])
        monkeypatch.setattr(linksim, "_powers", lambda *args: passes.append(1)
                            or powers(*args))
        rows = run_preset("fig2", n_realizations=10)
        assert len(rows) == 4 * 9
        (_, channel_sets), = planned
        assert [[point.M_osc for point, _ in sets] for sets in channel_sets] == [[1, 2, 5, 50]]
        assert len(passes) == 1
        assert len(streams) == 10

    @pytest.mark.parametrize("change", [
        dict(snr_db=0.0), dict(snr_db=None, sigma_w2_value=0.3),
        dict(alpha=0.2), dict(parallelism=2)])
    def test_noise_alpha_and_workers_share_a_draw_key(self, change):
        cfg = SystemConfig(M=20, K=4, M_osc=2, snr_db=10.0)
        assert _draw_key(replace(cfg, **change)) == _draw_key(cfg)

    @pytest.mark.parametrize("change", [
        dict(ue_index=1), dict(powers=[0.4, 0.3, 0.2, 0.1]), dict(master_seed=7),
        dict(n_realizations=100), dict(M_osc=4), dict(q0=0.8), dict(tau=5)])
    def test_drawn_fields_split_the_draw_key(self, change):
        cfg = SystemConfig(M=20, K=4, M_osc=2, snr_db=10.0)
        assert _draw_key(replace(cfg, **change)) != _draw_key(cfg)


class TestPresets:
    def test_registry_contents(self):
        assert "fig5" in PRESETS and "lte" in PRESETS

    def test_rate_kind_recorded(self, capsys):
        assert main(["preset", "--list"]) == 0
        listing = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
        assert listing["fig8"].endswith(" [rate: min]")
        assert PRESETS["fig8"].rate_kind == "min"

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            run_preset("nope")

    def test_analytic_preset_runs(self):
        rows = run_preset("fig6c")
        assert len(rows) == 13 * 3
        assert all(r["preset"] == "fig6c" for r in rows)


class TestEmission:
    def test_csv_schema(self, tmp_path):
        path = tmp_path / "out.csv"
        assert main(["preset", "fig6c", "--out", str(path)]) == 0
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert list(parsed[0].keys()) == COLUMNS
        assert parsed[0]["schema_version"] == "1"

    def test_csv_float_round_trip(self):
        cfg = SystemConfig(M=20, K=4, M_osc=2, snr_db=10.0)
        rows = run_sweep(cfg, "snr", [0.0], with_empirical=False)
        text = rows_to_csv(rows)
        record = next(csv.DictReader(text.splitlines()))
        assert float(record["analytical_sinr"]) == rows[0]["analytical_sinr"]

    def test_csv_numpy_scalars_written_as_python_scalars(self):
        cfg = SystemConfig(M=20, K=4, M_osc=2, snr_db=10.0)
        row = dict(run_sweep(cfg, "snr", [0.0], with_empirical=False)[0],
                   empirical_sinr=0.1, std_error=5e-324, rate_awgn=1e16,
                   rate_lapidoth=-0.0, rate_min=1e-5, n_realizations=30, n_rejected=0)
        as_numpy = {c: np.float64(v) if type(v) is float else
                    np.int64(v) if type(v) is int else v for c, v in row.items()}
        assert any(isinstance(v, np.int64) for v in as_numpy.values())
        assert rows_to_csv([as_numpy]) == rows_to_csv([row])

    def test_jsonl_round_trip(self):
        cfg = SystemConfig(M=20, K=4, M_osc=2, snr_db=10.0)
        rows = run_sweep(cfg, "snr", [0.0], with_empirical=False)
        loaded = [json.loads(line) for line in rows_to_jsonl(rows).splitlines()]
        assert list(loaded[0]) == COLUMNS
        assert loaded[0]["analytical_sinr"] == rows[0]["analytical_sinr"]

    def test_rerun_byte_identical(self, cfg_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", cfg_file, "--out", str(a)]) == 0
        assert main(["sweep", cfg_file, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCliEntry:
    def test_validate_ok(self, cfg_file, capsys):
        assert main(["validate-config", cfg_file]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_huge_phase_variance_falls_back_to_awgn(self, tmp_path, capsys):
        # at sigma_phi = 1e307 rad^2, v = tau (s2_ue + s2_bs) overflows: the
        # high-SNR bound is a large negative number, not -inf, so rate_min
        # takes the AWGN bound and the plan passes
        path = tmp_path / "phase.ini"
        path.write_text("[system]\nM = 20\nK = 4\n\n[sweep]\naxis = sigma_phi\n"
                        "values = 1e307\n")
        assert main(["validate-config", str(path)]) == 0
        assert "ok:" in capsys.readouterr().out
        rows, _ = plan_sweep(*load_config(str(path)))
        assert len(rows) == 3
        for row in rows:
            assert -math.inf < row["rate_lapidoth"] < 0
            assert row["rate_min"] == row["rate_awgn"]

    def test_validate_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[system]\nM = 10\nK = 20\n\n[sweep]\naxis = snr\nvalues = 0\n")
        assert main(["validate-config", str(bad)]) == 2
        assert "K" in capsys.readouterr().err

    def test_sweep_to_file(self, cfg_file, tmp_path):
        out = tmp_path / "res.csv"
        assert main(["sweep", cfg_file, "--out", str(out)]) == 0
        assert out.read_text().startswith("schema_version,")

    def test_sweep_seed_override_changes_empirical(self, cfg_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", cfg_file, "--out", str(a), "--seed", "1"])
        main(["sweep", cfg_file, "--out", str(b), "--seed", "2"])
        assert a.read_text() != b.read_text()

    def test_preset_list(self, tmp_path, capsys):
        assert main(["preset", "--list"]) == 0
        listing = capsys.readouterr().out
        assert "fig2" in listing
        # --out takes the listing as it takes any table
        out = tmp_path / "presets.txt"
        assert main(["preset", "--list", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == listing.encode()

    def test_preset_unknown(self, capsys):
        assert main(["preset", "nope"]) == 2

    def test_preset_missing_name(self):
        assert main(["preset"]) == 2

    def test_preset_stdout_jsonl(self, capsys):
        assert main(["preset", "fig6d", "--format", "json-lines"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out.splitlines()[0])["preset"] == "fig6d"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ini,fields", INVALID_INPUTS)
    def test_invalid_input_exits_2(self, ini, fields, tmp_path, capsys, monkeypatch):
        _machine(monkeypatch, 16 << 30)
        if ini is None:
            argv = ["lemmas", "--sizes", "64,x"]
        elif isinstance(ini, list):
            argv = [a.replace("TMP", str(tmp_path)) for a in ini]
        else:
            argv = ["sweep", _ini_file(ini, tmp_path), "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert all(f in err for f in fields)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ini,fields", INVALID_INI)
    def test_validate_config_rejects_what_sweep_rejects(self, ini, fields, tmp_path,
                                                        capsys, monkeypatch):
        _machine(monkeypatch, 16 << 30)
        assert main(["validate-config", _ini_file(ini, tmp_path)]) == 2
        err = capsys.readouterr().err
        assert all(f in err for f in fields)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("verb", ["validate-config", "sweep"])
    def test_non_utf8_config_exits_2(self, verb, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_bytes(b"[system]\nM = 20\xff\n\n[sweep]\naxis = snr\nvalues = 0\n")
        out = ["--out", str(tmp_path / "out.csv")] if verb == "sweep" else []
        assert main([verb, str(path), *out]) == 2
        err = capsys.readouterr().err
        assert "config:" in err and "Traceback" not in err

    # the plan's message, alike under both verbs and the Python API
    @pytest.mark.parametrize("sweep_text", [
        pytest.param("axis = bogus\nvalues = 0\n", id="unknown-axis"),
        pytest.param("values = 0\n", id="no-axis"),
        pytest.param("axis = snr\n", id="no-values"),
        pytest.param("axis = snr\nvalues = 0 inf\n", id="inf"),
        pytest.param("axis = m_osc\nvalues = nan\n", id="nan")])
    def test_sweep_input_errors_read_alike(self, sweep_text, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(f"[system]\nM = 20\nK = 4\n\n[sweep]\n{sweep_text}")
        parsed = load_config(str(path))  # parses; only the plan checks
        with pytest.raises(ConfigError, match=r"^sweep\.(axis|values): ") as exc:
            run_sweep(*parsed)
        out = tmp_path / "out.csv"
        for argv in (["sweep", str(path), "--out", str(out)], ["validate-config", str(path)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"configuration error: {exc.value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["sweep", "validate-config"])
    def test_missing_config_file_exits_2(self, verb, tmp_path, capsys):
        path = str(tmp_path / "missing.ini")
        assert main([verb, path]) == 2
        assert capsys.readouterr().err == f"configuration error: config: cannot read {path}\n"

    # /dev/full opens, but every write to it fails: only the write after the run sees it
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        pytest.param(["preset", "fig6a"], id="preset"),
        pytest.param(["lemmas", "--sizes", "16,32", "--trials", "2"], id="lemmas")])
    def test_failed_write_exits_2(self, argv, capsys):
        assert main([*argv, "--out", "/dev/full"]) == 2
        err = capsys.readouterr().err
        assert err == ("configuration error: --out: cannot write /dev/full: "
                       "No space left on device\n")

    @pytest.mark.filterwarnings("error")
    def test_config_without_sweep_exits_2(self, tmp_path, capsys):
        # every config file is a sweep: both verbs reject a [system]-only
        # file with the same code and message
        path = tmp_path / "run.ini"
        path.write_text("[system]\nM = 20\nK = 4\n")
        for argv in (["validate-config", str(path)],
                     ["sweep", str(path), "--out", str(tmp_path / "out.csv")]):
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                "configuration error: config: missing [sweep] section\n")
        assert not (tmp_path / "out.csv").exists()

    def test_alpha_alone_fixes_the_regularizer(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[system]\nalpha = 0.3\n\n[sweep]\naxis = snr\nvalues = 0 10\n")
        out = tmp_path / "out.csv"
        assert main(["sweep", str(path), "--realizations", "10", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            alphas = [r["alpha"] for r in csv.DictReader(fh) if r["precoder"] == "rzf"]
        assert alphas == ["0.3", "0.3"]

    def test_unwritable_out_fails_before_any_work(self, cfg_file, tmp_path,
                                                   monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for name in ("run_preset", "run_sweep"):
            monkeypatch.setattr(cli, name, must_not_run)
        # the lemmas verb imports its checks on first use, from pnmimo.lemmas
        for name in ("check_trace_lemma", "check_rank1_perturbation",
                     "check_free_probability_traces", "check_quadratic_form_identities",
                     "check_matrix_inversion_identity", "check_resolvent_identity"):
            monkeypatch.setattr(lemmas, name, must_not_run)
        missing = str(tmp_path / "missing" / "x.csv")
        for argv in (["preset", "fig2", "--out", missing],
                     ["lemmas", "--out", missing],
                     ["sweep", cfg_file, "--out", missing],
                     ["preset", "fig2", "--out", str(tmp_path)]):
            assert main(argv) == 2
            assert "--out: cannot write" in capsys.readouterr().err

    def test_lemmas_csv(self, tmp_path, capsys):
        out = tmp_path / "lem.csv"
        assert main(["lemmas", "--sizes", "32,64", "--trials", "10",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("name,M,median_error,slope")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("verb", ["sweep", "validate-config"])
    @pytest.mark.parametrize("ini,where", NUMERICAL_FAILURES)
    def test_closed_form_failure_exits_3(self, ini, where, verb, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(ini)
        out = tmp_path / "out.csv"
        assert main([verb, str(path), *(["--out", str(out)] if verb == "sweep" else [])]) == 3
        err = capsys.readouterr().err
        assert f"numerical failure: analytical_sinr is nan for {where}" in err
        assert "rejected" not in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ini,where", MONTE_CARLO_FAILURES)
    def test_monte_carlo_failure_exits_3(self, ini, where, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(ini)
        out = tmp_path / "out.csv"
        assert main(["sweep", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: std_error is nan for" in err and where in err
        assert "Traceback" not in err
        assert not out.exists()
        assert main(["validate-config", str(path)]) == 0

    def test_rejection_cap_exits_3(self, cfg_file, tmp_path, monkeypatch, capsys):
        # a cap below 0 rejects every draw set, even one with no rejected draw
        monkeypatch.setattr(linksim, "MAX_REJECTION_RATE", -1.0)
        out = tmp_path / "o.csv"
        assert main(["sweep", cfg_file, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: 0/40 realizations rejected" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_exact_identity_deviation_exits_3(self, tmp_path, monkeypatch, capsys):
        # the table and both report lines come first, then the failure
        monkeypatch.setattr(lemmas, "check_matrix_inversion_identity", lambda M, rng: 1e-3)
        out = tmp_path / "lem.csv"
        assert main(["lemmas", "--sizes", "32,64", "--trials", "2",
                     "--out", str(out)]) == 3
        assert out.read_text().startswith("name,M,median_error,slope")
        err = capsys.readouterr().err
        assert "exact identities: matrix-inversion 1.00e-03, resolvent" in err
        assert "quadratic-form deviations at M=64: " in err
        assert ("numerical failure: exact identity tolerance 1e-10 exceeded: "
                "matrix-inversion 1.00e-03, resolvent ") in err
        assert "Traceback" not in err

    # three (kind, alpha) pairs; one chunk of b realizations holds
    # 16 b (K (8 M + 4 K + 18) + 2 M) bytes, each realization of a seed
    # block (b times the fewest chunks that reach 2048 realizations, at most
    # n) 172 bytes, and each realization 96 bytes:
    # 16 (10 x 160058 + 40000) + 268 x 2000 and
    # 3264 (4 x 194 + 40) + 172 x 2244 + 96 x 200000
    @pytest.mark.parametrize("argv, field", [
        pytest.param(["sweep", "M = 20000\nK = 10\n"],
                     "M: the buffers need 26785280 bytes", id="sweep-M"),
        pytest.param(["validate-config", "M = 20000\nK = 10\n"],
                     "M: the buffers need 26785280 bytes", id="validate-M"),
        pytest.param(["sweep", "M = 20\nK = 4\nn_realizations = 200000\n"],
                     "n_realizations: the buffers need 22249392 bytes",
                     id="sweep-n_realizations"),
        pytest.param(["lemmas", "--sizes", "64,512", "--trials", "1"],
                     "sizes: the buffers need 25165824 bytes", id="lemmas-sizes"),
        pytest.param(["lemmas", "--sizes", "8,16", "--trials", "20000"],
                     "trials: the buffers need 41419264 bytes", id="lemmas-trials")])
    def test_memory_gate_names_the_field(self, argv, field, tmp_path, monkeypatch,
                                         capsys):
        # a 4 MiB machine rejects what a real one would accept, before any
        # closed form's Monte Carlo or lemma check runs
        _machine(monkeypatch, 4 << 20)
        monkeypatch.setattr(linksim, "_simulate_block", None)
        monkeypatch.setattr(lemmas, "check_trace_lemma", None)
        if argv[0] != "lemmas":
            path = tmp_path / "run.ini"
            path.write_text(f"[system]\n{argv[1]}\n[sweep]\naxis = snr\nvalues = 0\n")
            argv = [argv[0], str(path)] + (["--out", str(tmp_path / "o.csv")]
                                           if argv[0] == "sweep" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert field in err and "4194304 bytes available" in err

    @pytest.mark.parametrize("check", ["check_rank1_perturbation", "check_trace_lemma"])
    def test_sizes_count_bounds_the_traced_peak(self, check, monkeypatch):
        # the count for --sizes 32,64 bounds what a check holds at once at
        # those sizes; the rank-1 check holds the most
        counted = {}

        def count_and_stop(name, value, nbytes):
            counted[name] = nbytes
            raise ConfigError("counted")

        monkeypatch.setattr(lemmas, "check_buffer", count_and_stop)
        assert main(["lemmas", "--sizes", "32,64", "--trials", "3"]) == 2
        rng = np.random.default_rng(5)
        getattr(lemmas, check)([32, 64], rng, n_trials=3)  # warm up
        tracemalloc.start()
        try:
            getattr(lemmas, check)([32, 64], rng, n_trials=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counted["sizes"] == 96 * 64 * 64

    # many trials at small sizes, where the trials count leads; few trials at
    # larger sizes, where B and numpy's reduction buffer do
    @pytest.mark.parametrize("sizes, trials", [("8,16", 20000), ("2,4", 50000),
                                               ("4,8,16,32", 5000), ("64,128,256", 8),
                                               ("128,256", 1)])
    def test_trials_count_bounds_the_trace_lemmas_traced_peak(self, sizes, trials,
                                                              monkeypatch):
        counted = {}

        def count_and_stop(name, value, nbytes):
            counted[name] = nbytes
            if name == "trials":  # the last gate
                raise ConfigError("counted")

        monkeypatch.setattr(lemmas, "check_buffer", count_and_stop)
        assert main(["lemmas", "--sizes", sizes, "--trials", str(trials)]) == 2
        M_values = [int(s) for s in sizes.split(",")]
        rng = np.random.default_rng(5)
        lemmas.check_trace_lemma(M_values, rng, n_trials=trials)  # warm up
        tracemalloc.start()
        try:
            lemmas.check_trace_lemma(M_values, rng, n_trials=trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counted["trials"]

    @pytest.mark.parametrize("verb", ["sweep", "validate-config"])
    def test_gate_counts_every_pair_of_a_draw_set(self, verb, tmp_path, monkeypatch,
                                                  capsys):
        # 11 pairs hold 16 B per realization each, far more than their chunk:
        # a 4 MiB machine rejects the run before any draw
        _machine(monkeypatch, 4 << 20)
        monkeypatch.setattr(linksim, "_simulate_block", None)
        path = tmp_path / "run.ini"
        path.write_text(SNR_SWEEP_INI)
        out = tmp_path / "o.csv"
        assert main([verb, str(path), *(["--out", str(out)] if verb == "sweep" else [])]) == 2
        err = capsys.readouterr().err
        assert "n_realizations: the buffers need" in err
        assert "4194304 bytes available" in err and "Traceback" not in err
        assert not out.exists()

    def test_gate_counts_every_draw_set_of_a_preset(self, tmp_path, monkeypatch, capsys):
        # at 10000 realizations one fig2 variant (9 RZF pairs) fits an 8 MiB
        # machine, but its channel set of four variants (36 pairs) does not:
        # the preset exits 2 before any precoder is built
        _machine(monkeypatch, 8 << 20)
        p, n = PRESETS["fig2"], 10_000
        for extra in p.variants:
            plan_sweep(SystemConfig(**{**p.config, **extra}, n_realizations=n), p.axis,
                       p.values, p.precoders)
        built = []
        real = linksim.precoders
        monkeypatch.setattr(linksim, "precoders", lambda *args: built.append(1) or real(*args))
        out = tmp_path / "o.csv"
        assert main(["preset", "fig2", "--realizations", str(n), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "n_realizations: the buffers need" in err and "8388608 bytes available" in err
        assert built == [] and not out.exists()

    def test_closed_form_preset_is_not_gated(self, monkeypatch, capsys):
        # fig6a draws nothing, so no realization count makes it too large
        _machine(monkeypatch, 4 << 20)
        assert main(["preset", "fig6a"]) == 0
        table = capsys.readouterr().out
        assert main(["preset", "fig6a", "--realizations", "100000000000000"]) == 0
        assert capsys.readouterr().out == table

    def test_validate_config_plans_without_drawing(self, cfg_file, monkeypatch, capsys):
        monkeypatch.setattr(linksim, "_simulate_block", None)
        monkeypatch.setattr(cli, "run_sweep", None)
        assert main(["validate-config", cfg_file]) == 0
        assert capsys.readouterr().out.startswith("ok: M=20 K=4 ")

    def test_escaped_memory_error_exits_2(self, cfg_file, tmp_path, monkeypatch, capsys):
        # raised on the serial path, then in a worker thread: exit 2 naming
        # the cause, no table and no traceback
        on_main = []

        def out_of_memory(*args, **kwargs):
            on_main.append(threading.current_thread() is threading.main_thread())
            raise MemoryError("Unable to allocate 1.00 TiB for an array")

        monkeypatch.setattr(linksim, "_simulate_block", out_of_memory)
        pool_on_two_cores(monkeypatch, 20, 4, 20)  # CFG_TEXT: 2 chunks
        for parallelism in ("1", "2"):
            out = tmp_path / f"o{parallelism}.csv"
            assert main(["sweep", cfg_file, "--parallelism", parallelism,
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "out of memory: Unable to allocate 1.00 TiB" in err
            assert "Traceback" not in err
            assert not out.exists()
        assert on_main[0] and len(on_main) > 1 and not any(on_main[1:])

    def test_worker_thread_failure_exits_3(self, cfg_file, tmp_path, monkeypatch, capsys):
        # a numerical failure raised in a worker thread reaches cli.main as
        # one on the serial path does: exit 3, no table, no traceback, and
        # the workers joined
        on_main = []

        def overflow(*args, **kwargs):
            on_main.append(threading.current_thread() is threading.main_thread())
            raise FloatingPointError("overflow in a worker thread")

        monkeypatch.setattr(linksim, "_simulate_block", overflow)
        pool_on_two_cores(monkeypatch, 20, 4, 20)  # CFG_TEXT: 2 chunks
        threads = threading.active_count()
        out = tmp_path / "o.csv"
        assert main(["sweep", cfg_file, "--parallelism", "2", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: overflow in a worker thread" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert on_main and not any(on_main)
        assert threading.active_count() == threads

    def test_rank1_bound_violation_exits_3(self, tmp_path, monkeypatch, capsys):
        # a solve that returns 1e3 y inflates the rank-1 gap 1e3-fold against a
        # scale-free bound, which no correct solve can do
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: 1e3 * solve(a, b))
        assert main(["lemmas", "--sizes", "32,64", "--trials", "2",
                     "--out", str(tmp_path / "lem.csv")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: rank-1 trace gap" in err
        assert "Traceback" not in err

    def test_rank1_failure_inside_the_overlap_cleans_up(self, tmp_path, monkeypatch,
                                                        capsys, two_blas_threads):
        # the worker's third solve returns 1e3 y, so the bound fails partway
        # through the overlap: exit 3, the workers joined and BLAS back at
        # its thread count
        solve, seen = np.linalg.solve, []

        def inflate_third_helper_solve(a, b):
            if threading.current_thread() is threading.main_thread():
                return solve(a, b)
            seen.append(two_blas_threads())
            return (1e3 if len(seen) == 3 else 1.0) * solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", inflate_third_helper_solve)
        threads = threading.active_count()
        assert main(["lemmas", "--sizes", "32,64", "--trials", "4",
                     "--out", str(tmp_path / "lem.csv")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: rank-1 trace gap" in err
        assert "Traceback" not in err
        assert seen == [1, 1, 1]  # one BLAS thread per worker
        assert threading.active_count() == threads
        assert two_blas_threads() == 2

    @pytest.mark.parametrize("compute", ["_resolvent_gap", "_free_probability_gap",
                                         "_quadratic_form_devs"])
    def test_worker_trial_failure_exits_3_and_cleans_up(self, compute, tmp_path,
                                                        monkeypatch, capsys,
                                                        two_blas_threads):
        # the third trial of a check that runs its trials on the workers
        # raises there: exit 3, the workers joined and BLAS back at its count
        trial, calls, on_main = getattr(lemmas, compute), itertools.count(), []

        def fail_third_trial(*args):
            on_main.append(threading.current_thread() is threading.main_thread())
            if next(calls) == 2:
                raise FloatingPointError(f"trial 3 of {compute}")
            return trial(*args)

        monkeypatch.setattr(lemmas, compute, fail_third_trial)
        threads = threading.active_count()
        assert main(["lemmas", "--sizes", "32,64", "--trials", "8",
                     "--out", str(tmp_path / "lem.csv")]) == 3
        err = capsys.readouterr().err
        assert f"numerical failure: trial 3 of {compute}" in err
        assert "Traceback" not in err
        assert len(on_main) >= 3 and not any(on_main)
        assert threading.active_count() == threads
        assert two_blas_threads() == 2

    def test_one_parser_serves_repeated_calls(self, capsys):
        # main() parses with one parser per process: a call argparse rejects
        # leaves nothing behind, and each later table has a fresh process's bytes
        parser = cli.build_parser()
        with pytest.raises(SystemExit) as exc:
            main(["preset", "fig2", "--format", "xml"])
        assert exc.value.code == 2
        capsys.readouterr()
        for argv in (["preset", "--list"], ["preset", "fig6a"],
                     ["lemmas", "--sizes", "8,16", "--trials", "2"]):
            assert main(argv) == 0
            fresh = subprocess.run([sys.executable, "-m", "pnmimo.cli", *argv],
                                   capture_output=True, env=fresh_env(), check=True).stdout
            assert capsys.readouterr().out.encode() == fresh, argv
        assert cli.build_parser() is parser


# Generated config files: a small valid scenario with up to two keys, and
# the sweep, set to values from the edges of float range or to malformed
# text.  M <= 24 and n_realizations <= 4 keep a run short; a beta value sets
# M = beta K, up to 3000 K.  A run fits in one pooled chunk and runs
# serially, except where such an M gives each of two threads two pooled
# chunks and `parallelism` is above 1: worker threads run those.
_TEXT_FLOATS = st.sampled_from(["0", "-0", "0.5", "1", "2", "6", "10", "-10", "30",
                                "1e300", "-1e300", "1e308", "1e-300", "-1e-300",
                                "1e-320", "5e-324", "nan", "inf", "-inf", "3000",
                                "-1560"])
_TEXT_INTS = st.sampled_from(["1", "2", "4", "10", "0", "-1", "2.5", "1e1", "nan", "x",
                              ""])
_TEXT_KEYS = {
    "M": st.sampled_from(["1", "4", "10", "24", "0", "-1", "2.5", "1e300", "nan"]),
    "n_realizations": st.sampled_from(["2", "3", "1", "0", "2.5", "inf"]),
    **{key: _TEXT_INTS for key in ("K", "M_osc", "tau", "T_c", "ue_index",
                                   "master_seed", "parallelism")},
    **{key: _TEXT_FLOATS for key in ("q0", "sigma_deg_bs", "sigma_deg_ue", "snr_db",
                                     "sigma_w2", "alpha")},
    "powers": st.one_of(st.just("equal"), st.lists(_TEXT_FLOATS, min_size=4, max_size=4)
                        .map(" ".join)),
}


@st.composite
def config_files(draw) -> bytes:
    system = {"M": "20", "K": "4", "M_osc": "2", "n_realizations": "4"}
    for key in draw(st.lists(st.sampled_from(sorted(_TEXT_KEYS)), max_size=2, unique=True)):
        system[key] = draw(_TEXT_KEYS[key])
    text = "[system]\n" + "".join(f"{k} = {v}\n" for k, v in system.items())
    # a sweep in most files, a non-UTF-8 byte in few
    if draw(st.sampled_from([True] * 9 + [False])):
        axis = draw(st.sampled_from(SWEEP_AXES + ("bogus",)))
        values = draw(st.lists(_TEXT_FLOATS, min_size=1, max_size=2))
        text += f"\n[sweep]\naxis = {axis}\nvalues = {' '.join(values)}\n"
    data = text.encode()
    if draw(st.sampled_from([False] * 9 + [True])):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _main_stderr(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


@given(config_files())
@settings(max_examples=400, deadline=None)
def test_generated_config_files_exit_0_2_or_3(data):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path, out = os.path.join(tmp, "run.ini"), os.path.join(tmp, "out.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        validated, validate_err = _main_stderr(["validate-config", path])
        swept, sweep_err = _main_stderr(["sweep", path, "--out", out])
        assert validated in (0, 2, 3) and swept in (0, 2, 3)
        # a config error fails both verbs alike, and so does any failure
        # validate-config finds; only a Monte-Carlo cell (validate-config 0,
        # sweep 3) fails sweep alone
        if validated != 0 or swept == 2:
            assert (swept, sweep_err) == (validated, validate_err)
        if swept != 0:
            assert not os.path.exists(out)
            return
        with open(out, newline="") as fh:
            cells = [c for row in csv.reader(fh) for c in row]
        assert not {c.lower() for c in cells} & {"nan", "inf", "-inf"}


# Toy scenarios whose tables must not depend on the worker count.
# n_realizations >= 8, so pooled chunks of n_realizations // 2 split the
# draws over two worker threads; parallelism 1 and 2 are the only values run.
@st.composite
def toy_scenarios(draw) -> SystemConfig:
    M = draw(st.integers(2, 24))
    return SystemConfig(M=M, K=draw(st.integers(1, M // 2)),
                        M_osc=draw(st.sampled_from([d for d in range(1, M + 1)
                                                    if M % d == 0])),
                        q0=draw(st.sampled_from([0.5, 0.9, 1.0])),
                        n_realizations=draw(st.integers(8, 16)),
                        master_seed=draw(st.integers(0, 2 ** 32 - 1)))


# the fig2 shape: 8-realization chunks serially, 65 on the workers, whose
# second range ends in a partial chunk
@given(toy_scenarios())
@example(SystemConfig(M=50, K=10, M_osc=5, n_realizations=150))
@settings(max_examples=6, deadline=None)
def test_tables_byte_identical_at_parallelism_1_and_2(cfg):
    assert cfg.n_realizations >= 4 * 2
    with pytest.MonkeyPatch.context() as mp:
        # pooled chunks of at most half the realizations
        pool_on_two_cores(mp, min(linksim.CHUNK_BUDGET // (cfg.K * cfg.M),
                                  cfg.n_realizations // 2), cfg.K, cfg.M)
        chunks, tables = chunks_per_thread(mp), []
        for workers in (1, 2):
            chunks.clear()
            tables.append(rows_to_csv(run_sweep(replace(cfg, parallelism=workers), "snr",
                                                [0.0, 10.0])))
    assert two_worker_threads(chunks)
    assert tables[0] == tables[1]


@pytest.mark.parametrize("parallelism", ["1", "2"])
def test_ctrl_c_exits_130_within_a_chunk(parallelism, tmp_path):
    # SIGINT once the Monte-Carlo kernel runs, in a run of some ten seconds
    # (chunks of 4 realizations take a few ms): exit 130 within a second,
    # one stderr line and no table
    ini, out = tmp_path / "run.ini", tmp_path / "o.csv"
    ini.write_text("[system]\nM = 200\nK = 40\nM_osc = 5\nn_realizations = 20000\n\n"
                   "[sweep]\naxis = snr\nvalues = 0 20\n")
    code = ("import sys, pnmimo.cli, pnmimo.linksim as linksim\n"
            "block = linksim._simulate_block\n"
            "def announced(*args):\n"
            "    print('kernel', flush=True)\n"
            "    block(*args)\n"
            "linksim._simulate_block = announced\n"
            f"sys.exit(pnmimo.cli.main(['sweep', {str(ini)!r}, '--parallelism', "
            f"{parallelism!r}, '--out', {str(out)!r}]))\n")
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=fresh_env())
    try:
        assert proc.stdout.readline() == "kernel\n"
        proc.send_signal(signal.SIGINT)
        sent = time.perf_counter()
        err = proc.communicate(timeout=60)[1]
        elapsed = time.perf_counter() - sent
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130 and elapsed < 1.0, (proc.returncode, elapsed, err)
    assert err == "interrupted\n"
    assert not out.exists()


# Where each verb's run first loads numpy.random (about 10 ms on a 2-core
# x86 machine), a hook that starts the SIGINT timer just before the load:
# the kernel's seed type on the first chunk, and the lemmas verb's size gate,
# after which only the seed check runs before its generator is built
_LOAD_HOOKS = {
    "preset": ("linksim", "_seed_words_type", ["preset", "fig4", "--realizations", "4000"]),
    "lemmas": ("lemmas", "check_lab_size",
               ["lemmas", "--sizes", "64,128,256", "--trials", "20"]),
}


@pytest.mark.parametrize("verb", sorted(_LOAD_HOOKS))
def test_ctrl_c_during_the_numpy_random_load_exits_130(verb, tmp_path):
    # SIGINT sent 0-15 ms after the hook, across the load: an interrupt
    # that lands inside the import must still end the run with exit 130,
    # one stderr line and no table, never a finished run that exits 0
    module, name, argv = _LOAD_HOOKS[verb]
    out, outcomes = tmp_path / "o.csv", []
    for delay_ms in range(16):
        code = ("import os, signal, sys, threading, pnmimo.cli\n"
                f"from pnmimo import {module} as hooked\n"
                f"real, armed = hooked.{name}, [True]\n"
                "def hook(*args):\n"
                "    if armed:\n"
                "        armed.clear()\n"
                f"        threading.Timer({delay_ms / 1000!r}, os.kill,\n"
                "                        (os.getpid(), signal.SIGINT)).start()\n"
                "    return real(*args)\n"
                f"hooked.{name} = hook\n"
                f"sys.exit(pnmimo.cli.main({argv + ['--out', str(out)]!r}))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=fresh_env(), timeout=120)
        outcomes.append((delay_ms, proc.returncode, proc.stderr, out.exists()))
        out.unlink(missing_ok=True)
    assert [o for o in outcomes if o[1:] != (130, "interrupted\n", False)] == []


def test_lemma_report_independent_of_the_blas_thread_count(tmp_path, capsys,
                                                          two_blas_threads):
    # at these sizes OpenBLAS threads the trace lemma's product: run at the
    # process's two threads, trace_lemma at M=256 read ...955 against
    # ...977 at one thread
    argv = ["lemmas", "--seed", "0", "--sizes", "64,128,256,512", "--trials", "8"]
    reports = []
    for threads in (2, 1):
        out = tmp_path / f"threads{threads}.csv"
        with config.blas_threads() if threads == 1 else contextlib.nullcontext():
            assert main(argv + ["--out", str(out)]) == 0
        reports.append((out.read_bytes(), capsys.readouterr().err))
    assert reports[0] == reports[1]
    assert two_blas_threads() == 2


def test_tables_byte_identical_at_parallelism_1_and_2_where_blas_threads(
        tmp_path, two_blas_threads):
    # at M=1000, K=200 OpenBLAS threads the kernel's products and eigh, so
    # the two tables agree only if both paths run the kernel at one thread
    path = tmp_path / "run.ini"
    path.write_text("[system]\nM = 1000\nK = 200\nM_osc = 5\nn_realizations = 16\n"
                    "master_seed = 7\n\n[sweep]\naxis = snr\nvalues = 0 20\n")
    tables = []
    for workers in ("1", "2"):
        out = tmp_path / f"parallelism{workers}.csv"
        assert main(["sweep", str(path), "--parallelism", workers, "--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]
    assert two_blas_threads() == 2
