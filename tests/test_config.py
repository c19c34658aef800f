import copy
import math
import re
import threading
import tracemalloc
import warnings
from dataclasses import astuple, fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnmimo import analytics, config
from pnmimo.cli import main
from pnmimo.config import (ConfigError, SystemConfig, deg_to_var, load_config, optimal_alpha,
                           t_pn_second_moment)
from pnmimo.sweep import (PRECODERS, SWEEP_AXES, _apply_axis, _draw_key, plan_sweep,
                          rows_to_csv, run_sweep)


class TestValidation:
    def test_defaults_valid(self):
        cfg = SystemConfig()
        assert cfg.beta == 5.0
        assert np.allclose(cfg.powers, 0.1)

    def test_snr_to_noise_variance(self):
        cfg = SystemConfig(M=50, K=10, snr_db=10.0)
        # per-UE SNR is p_k / sigma_w^2 with p_k = 1/K
        assert cfg.sigma_w2 == pytest.approx(0.1 / 10.0)

    def test_explicit_noise_variance(self):
        cfg = SystemConfig(snr_db=None, sigma_w2_value=0.25)
        assert cfg.sigma_w2 == 0.25

    def test_exactly_one_noise_handle(self):
        with pytest.raises(ConfigError, match="noise"):
            SystemConfig(snr_db=10.0, sigma_w2_value=0.1)

    @pytest.mark.parametrize("kw,field", [
        (dict(M=50, M_osc=7), "M_osc"),
        (dict(M=10, K=20), "K"),
        (dict(q0=1.5), "q0"),
        (dict(tau=200, T_c=100), "tau"),
        (dict(powers=np.array([1.0, 2.0])), "powers"),
        (dict(alpha=0.0), "alpha"),
        (dict(alpha=-1.0), "alpha"),
        (dict(ue_index=99), "ue_index"),
        (dict(n_realizations=0), "n_realizations"),
        (dict(parallelism=0), "parallelism"),
        (dict(powers=np.zeros(10)), "powers"),
        (dict(powers=np.array([0.1] * 9 + [np.inf])), "powers"),
        (dict(q0=float("nan")), "q0"),
        (dict(sigma_deg_bs=float("inf")), "sigma_deg_bs"),
        (dict(sigma_deg_ue=float("-inf")), "sigma_deg_ue"),
        (dict(snr_db=float("nan")), "snr_db"),
        (dict(snr_db=None, sigma_w2_value=float("inf")), "sigma_w2"),
        (dict(alpha=float("inf")), "alpha"),
        (dict(q0=0.0), "q0"),
        (dict(master_seed=-1), "master_seed"),
        (dict(sigma_deg_bs=-1.0), "sigma_deg_bs"),
        (dict(tau=0), "tau"),
        (dict(snr_db=None, sigma_w2_value=0.0), "sigma_w2"),
        (dict(n_realizations=1), "n_realizations"),
        (dict(M_osc=0), "M_osc"),
        (dict(K=0), "K"),
        (dict(powers="bogus"), "powers"),
    ])
    def test_field_level_messages(self, kw, field):
        with pytest.raises(ConfigError, match=field):
            SystemConfig(**kw)

    def test_zero_quality_needs_fixed_alpha(self):
        with pytest.raises(ConfigError, match="set an explicit alpha"):
            SystemConfig(q0=0.0)
        assert SystemConfig(q0=0.0, alpha=0.1).q0 == 0.0

    def test_tau_may_equal_coherence_window(self):
        cfg = SystemConfig(tau=100, T_c=100)
        assert cfg.tau == 100

    def test_custom_powers(self):
        p = np.array([0.5, 0.3, 0.2])
        cfg = SystemConfig(M=6, K=3, M_osc=1, powers=p)
        assert np.array_equal(cfg.powers, p)

    def test_with_override(self):
        cfg = replace(SystemConfig(), M_osc=5)
        assert cfg.M_osc == 5
        assert cfg.e_tpn2 == t_pn_second_moment(5, cfg.tau, cfg.sigma2_bs)

    def test_powers_are_a_read_only_copy(self):
        p = np.full(10, 0.1)
        cfg = SystemConfig(powers=p)
        for c in (cfg, replace(cfg, M_osc=5), SystemConfig()):
            with pytest.raises(TypeError):
                c.powers[0] = 5.0
        p[0] = 5.0  # the caller's array stays writable and is not shared
        assert cfg.powers[0] == 0.1


class TestUserCountGate:
    """SystemConfig gates K on memory before it builds any per-user data."""

    # the fixed part leads at one user, the per-user part at 10,000
    @pytest.mark.parametrize("K", [1, 10_000])
    def test_count_bounds_traced_peak(self, monkeypatch, K):
        counted = []
        monkeypatch.setattr(config, "check_buffer",
                            lambda name, value, nbytes: counted.append(nbytes))
        values = dict(snr=5.0, m_osc=2.0, beta=3.0, sigma_phi=0.1, alpha=0.2)
        assert set(values) == set(SWEEP_AXES)
        for axis, value in values.items():
            _apply_axis(_fields(SystemConfig(M=2 * K, K=K)), axis, value)  # warm up
            tracemalloc.start()
            try:
                # a base scenario and one sweep point built from its fields
                _apply_axis(_fields(SystemConfig(M=2 * K, K=K)), axis, value)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= counted[-1] == 80 * K + 8192

    def test_gate_runs_before_per_user_data(self, monkeypatch):
        monkeypatch.setattr(config, "_memory_limit", lambda: 1 << 20)
        monkeypatch.setattr(config.np, "full", None)
        monkeypatch.setattr(config.np, "array", None)
        with pytest.raises(ConfigError, match="^K: the buffers need 80008192 bytes"):
            SystemConfig(M=10 ** 6, K=10 ** 6)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[system]\nM = 20\nK = 4\nM_osc = 2\nq0 = 0.8\n"
                        "snr_db = 5\npowers = equal\n\n"
                        "[sweep]\naxis = m_osc\nvalues = 1 2 4\n")
        cfg, axis, values = load_config(str(path))
        assert (cfg.M, cfg.K, cfg.M_osc, cfg.q0) == (20, 4, 2, 0.8)
        assert axis == "m_osc"
        assert values == [1.0, 2.0, 4.0]

    def test_sigma_w2_key(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[system]\nsigma_w2 = 0.3\n\n[sweep]\naxis = snr\nvalues = 0\n")
        cfg, _, _ = load_config(str(path))
        assert cfg.sigma_w2 == 0.3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[system]\nbogus = 1\n\n[sweep]\naxis = snr\nvalues = 0\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(str(path))

    def test_missing_system_section(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[sweep]\naxis = snr\nvalues = 0\n")
        with pytest.raises(ConfigError, match="system"):
            load_config(str(path))

    def test_bad_axis(self, tmp_path, capsys):
        # load_config only parses; the sweep's plan rejects the axis
        path = tmp_path / "run.ini"
        path.write_text("[system]\nM = 8\nK = 2\n\n[sweep]\naxis = nope\nvalues = 1\n")
        for argv in (["sweep", str(path), "--out", str(tmp_path / "o.csv")],
                     ["validate-config", str(path)]):
            assert main(argv) == 2
            assert "configuration error: sweep.axis: " in capsys.readouterr().err

    def test_readme_example_parses(self, tmp_path):
        # the ini block under "Config file format", inline ';' comments included
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = re.search(r"### Config file format.*?```ini\n(.*?)```", readme, re.S)[1]
        path = tmp_path / "run.ini"
        path.write_text(block)
        cfg, axis, values = load_config(str(path))
        assert (cfg.M, cfg.K, cfg.M_osc, cfg.q0, cfg.tau) == (50, 10, 5, 0.9, 10)
        assert (cfg.sigma_deg_bs, cfg.snr_db, cfg.n_realizations) == (6.0, 10.0, 2000)
        assert axis == "snr"
        assert values == [-10.0, 0.0, 10.0, 20.0, 30.0]

    def test_ini_keys_and_fields_map_one_to_one(self, tmp_path):
        # every SystemConfig field has exactly one INI key, its own name
        # (sigma_w2 sets sigma_w2_value), that parses to the field's type
        key = {"sigma_w2_value": "sigma_w2"}
        names = [f.name for f in fields(SystemConfig)]
        sample = dict(M=40, K=5, M_osc=4, q0=0.5, sigma_deg_bs=3.0, sigma_deg_ue=2.0,
                      tau=5, T_c=50, snr_db=None, sigma_w2_value=0.2,
                      powers=[0.1, 0.2, 0.3, 0.2, 0.2], alpha=0.3, ue_index=3,
                      n_realizations=100, master_seed=7, parallelism=2)
        assert list(sample) == names
        path = tmp_path / "run.ini"
        path.write_text("[system]\n" + "".join(
            f"{key.get(n, n)} = {' '.join(map(str, v)) if n == 'powers' else v}\n"
            for n, v in sample.items() if v is not None)
            + "\n[sweep]\naxis = snr\nvalues = 0\n")
        cfg, _, _ = load_config(str(path))
        assert np.array_equal(cfg.powers, sample.pop("powers"))
        assert {n: getattr(cfg, n) for n in sample} == sample
        assert {n: type(getattr(cfg, n)) for n in sample} == {
            n: type(v) for n, v in sample.items()}
        # the field name behind the sigma_w2 key is no key of its own
        path.write_text("[system]\nsigma_w2_value = 0.2\n\n[sweep]\naxis = snr\nvalues = 0\n")
        with pytest.raises(ConfigError, match="sigma_w2_value: unknown configuration key"):
            load_config(str(path))

    def test_percent_sign_is_plain_text(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[system]\nM = 50%\n\n[sweep]\naxis = snr\nvalues = 0\n")
        with pytest.raises(ConfigError, match="M: expected int"):
            load_config(str(path))


def _fields(cfg) -> dict:
    """A scenario's fields by name, as a sweep plan reads its base scenario."""
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}


# The domain the closed forms and the simulator rely on, built from inputs at
# and beyond the edges of float range.  SystemConfig is the one place it is
# checked, so every mix must either build inside it or name a field.
_EDGE_FLOATS = [0.0, -0.0, 0.5, 1.0, 6.0, 10.0, -10.0, 1e300, -1e300, 1e-300,
                -1e-300, 1e-320, 5e-324, math.nan, math.inf, -math.inf]
_FIELDS = {f.name for f in fields(SystemConfig)} | {"sigma_w2"}


_EDGES = {
    "M": st.sampled_from([0, 4, 24]), "K": st.sampled_from([0, 1, 20]),
    "M_osc": st.sampled_from([0, 3, 4]), "tau": st.sampled_from([0, 1, 100]),
    "T_c": st.sampled_from([10, 10 ** 6]), "ue_index": st.sampled_from([-1, 3]),
    "n_realizations": st.sampled_from([1, 2]), "master_seed": st.sampled_from([-1, 2 ** 70]),
    "parallelism": st.sampled_from([0, 2]),
    "q0": st.sampled_from(_EDGE_FLOATS), "sigma_deg_bs": st.sampled_from(_EDGE_FLOATS),
    "sigma_deg_ue": st.sampled_from(_EDGE_FLOATS),
    "snr_db": st.sampled_from(_EDGE_FLOATS + [None]),
    "sigma_w2_value": st.sampled_from(_EDGE_FLOATS + [None]),
    "alpha": st.sampled_from(_EDGE_FLOATS + [None]),
    "powers": st.one_of(st.just("equal"), st.lists(st.sampled_from(_EDGE_FLOATS),
                                                   min_size=4, max_size=4)),
}


@st.composite
def config_kwargs(draw, min_edges=1, max_edges=4):
    """A valid scenario with min_edges to max_edges fields set to edge values."""
    kw = dict(M=20, K=4, M_osc=2, n_realizations=4)
    for name in draw(st.lists(st.sampled_from(sorted(_EDGES)), min_size=min_edges,
                              max_size=max_edges, unique=True)):
        kw[name] = draw(_EDGES[name])
    if isinstance(kw.get("powers"), list):
        kw["powers"] = np.array(kw["powers"])
    return kw


def _derived_oracle(cfg) -> dict:
    """The derived values from their defining formulas, each written out on
    its own, as SystemConfig's properties once computed them on access."""
    sigma_w2 = (cfg.sigma_w2_value if cfg.sigma_w2_value is not None
                else float(cfg.powers[cfg.ue_index]) / 10.0 ** (cfg.snr_db / 10.0))
    beta = cfg.M / cfg.K
    e_tpn2 = t_pn_second_moment(cfg.M_osc, cfg.tau, deg_to_var(cfg.sigma_deg_bs))
    return dict(beta=beta, sigma_w2=sigma_w2,
                sigma2_bs=deg_to_var(cfg.sigma_deg_bs),
                sigma2_ue=deg_to_var(cfg.sigma_deg_ue),
                p_k=float(cfg.powers[cfg.ue_index]), p_sum=float(np.sum(cfg.powers)),
                e_tpn2=e_tpn2, q_eff=cfg.q0 * e_tpn2,
                rzf_alpha=(cfg.alpha if cfg.alpha is not None
                           else optimal_alpha(cfg.q0, e_tpn2, sigma_w2, beta)))


def _check_derived(cfg) -> None:
    """Each derived attribute equals its formula, bit for bit; none is a
    field, so equality, replace() and the draw key ignore them."""
    derived = _derived_oracle(cfg)
    assert {name: getattr(cfg, name) for name in derived} == derived
    assert not set(derived) & {f.name for f in fields(cfg)}
    twin = copy.copy(cfg)  # the same field values, the powers tuple included
    for name in derived:
        object.__setattr__(twin, name, -1.0)  # a wrong value must go unnoticed
    assert twin == cfg
    assert _draw_key(twin) == _draw_key(cfg)
    assert {name: getattr(replace(twin), name) for name in derived} == derived


class TestDomain:
    @given(config_kwargs())
    @settings(max_examples=500, deadline=None)
    def test_builds_in_domain_or_names_a_field(self, kw):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                cfg = SystemConfig(**kw)
            except ConfigError as exc:
                head = str(exc).split(":")[0]
                assert set(head.split("/")) <= _FIELDS, str(exc)
                return
            _check_derived(cfg)
            # the preconditions the rmt, precoding and rates modules no longer check
            assert cfg.beta >= 1
            assert 0.0 < cfg.rzf_alpha < math.inf
            assert math.isfinite(cfg.tau * cfg.sigma2_bs)
            assert math.isfinite(cfg.tau * cfg.sigma2_ue)
            precoders = PRECODERS if cfg.beta > 1 else ("rzf", "mf")
            try:
                rows = run_sweep(cfg, "m_osc", [cfg.M_osc], precoders,
                                 with_empirical=False)
            except FloatingPointError:
                return
        assert all(math.isfinite(v) for row in rows for v in row.values()
                   if isinstance(v, float))

    @given(config_kwargs())
    @settings(max_examples=200, deadline=None)
    def test_equal_and_hashed_by_value(self, kw):
        try:
            cfg = SystemConfig(**kw)
        except ConfigError:
            return
        twin = replace(cfg)  # equal fields, its own powers tuple
        assert twin.powers is not cfg.powers
        assert twin == cfg and hash(twin) == hash(cfg) and len({cfg, twin}) == 1
        nudged = copy.copy(cfg)
        p = list(cfg.powers)
        p[-1] = np.nextafter(p[-1], math.inf)
        object.__setattr__(nudged, "powers", tuple(p))
        assert nudged != cfg
        assert replace(cfg, master_seed=cfg.master_seed + 1) != cfg
        assert cfg != astuple(cfg)


# The finite sweep values of the generated config files in tests/test_cli.py,
# and small integers, which the m_osc and beta axes need.
_SWEEP_VALUES = [0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0, -10.0, 30.0, 1e300,
                 -1e300, 1e308, 1e-300, -1e-300, 1e-320, 5e-324, 3000.0, -1560.0]
_DERIVED = ("beta", "sigma_w2", "sigma2_bs", "sigma2_ue", "p_k", "p_sum", "e_tpn2",
            "q_eff", "rzf_alpha")


def _axis_changes(cfg, axis: str, value: float) -> dict | None:
    """The fields one value of a sweep axis sets, written out on their own
    (sigma_phi through numpy), or None where the axis rejects the value."""
    if axis == "snr":
        return dict(snr_db=value, sigma_w2_value=None)
    if axis == "alpha":
        return dict(alpha=value)
    if axis == "m_osc":
        return dict(M_osc=int(value)) if value == int(value) else None
    if axis == "sigma_phi":
        deg = float(np.rad2deg(np.sqrt(value))) if value >= 0 else None
        return None if deg is None else dict(sigma_deg_bs=deg, sigma_deg_ue=deg)
    M = value * cfg.K  # beta
    if not math.isfinite(M) or not math.isclose(M, round(M), rel_tol=1e-9):
        return None
    return dict(M=round(M), M_osc=round(M)) if cfg.M_osc == cfg.M else dict(M=round(M))


def _bits(cfg) -> dict:
    """Every field and derived attribute as (type, value), floats as hex."""
    def exact(v):
        if isinstance(v, tuple):
            return tuple(map(exact, v))
        return (type(v), v.hex() if isinstance(v, float) else v)
    return {name: exact(getattr(cfg, name))
            for name in [f.name for f in fields(cfg)] + list(_DERIVED)}


class TestSweepPoints:
    """A sweep point is the base scenario with the axis's fields replaced."""

    # a base scenario as the generated config files in tests/test_cli.py
    # make them: up to two fields at edge values
    @given(config_kwargs(0, 2), st.sampled_from(SWEEP_AXES), st.sampled_from(_SWEEP_VALUES))
    @settings(max_examples=1500, deadline=None)
    def test_plan_builds_the_replaced_scenario(self, kw, axis, value):
        try:
            cfg = SystemConfig(**kw)
        except ConfigError:
            return
        built, error = [], None

        def closed_form(point):  # the plan's one MF cell records its point
            built.append(point)
            return 1.0

        with mock.patch.object(analytics, "sinr_mf", closed_form), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                plan_sweep(cfg, axis, [value], ("mf",), with_empirical=False)
            except ConfigError as exc:
                error = str(exc)
        changes = _axis_changes(cfg, axis, value)
        if changes is None:  # rejected by the axis before any point is built
            assert error.startswith("sweep.values: ") and not built
            assert "gives an invalid scenario" not in error
            return
        try:
            want = replace(cfg, **changes)
        except ConfigError as exc:
            assert error == (f"sweep.values: {axis} = {value:g} gives an invalid "
                             f"scenario: {exc}")
            assert not built
            return
        assert error is None
        assert _bits(built[0]) == _bits(want)


def _in_threads(*targets):
    """Run each target on its own thread at once; their results, in order,
    or the first error raised."""
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=len(targets)) as pool:
        futures = [pool.submit(target) for target in targets]
        return [future.result() for future in futures]


class TestBlasBudget:
    """config.blas_threads holds one BLAS thread for every caller inside it,
    on any thread, until the last one leaves."""

    def test_overlapping_callers_keep_one_thread(self, two_blas_threads):
        # A enters, B enters, A exits: B still reads one thread, and the
        # process's count is back once both have left
        a_in, b_in, a_out = (threading.Barrier(2, timeout=10) for _ in range(3))

        def a():
            with config.blas_threads():
                inside = two_blas_threads()
                a_in.wait()
                b_in.wait()
            a_out.wait()
            return inside

        def b():
            a_in.wait()
            with config.blas_threads():
                b_in.wait()
                a_out.wait()
                return two_blas_threads()

        assert _in_threads(a, b) == [1, 1]
        assert two_blas_threads() == 2

    def test_nested_entry_restores_on_the_last_exit(self, two_blas_threads):
        with pytest.raises(RuntimeError, match="body"):
            with config.blas_threads():
                with config.blas_threads():
                    assert two_blas_threads() == 1
                assert two_blas_threads() == 1
                raise RuntimeError("body")
        assert two_blas_threads() == 2

    def test_concurrent_sweeps_match_their_serial_runs(self, two_blas_threads):
        # at M=1000, K=200 two OpenBLAS threads move the kernel's bits, so
        # each table equals its serial run only if neither sweep's exit hands
        # the other the process's two threads
        configs = [SystemConfig(M=1000, K=200, M_osc=5, n_realizations=4, master_seed=seed)
                   for seed in (7, 8)]
        serial = [rows_to_csv(run_sweep(c, "snr", [0.0, 20.0])) for c in configs]
        start = threading.Barrier(2, timeout=10)

        def tables(c):
            start.wait()
            return [rows_to_csv(run_sweep(c, "snr", [0.0, 20.0])) for _ in range(3)]

        runs = _in_threads(*(lambda c=c: tables(c) for c in configs))
        assert runs == [[table] * 3 for table in serial]
        assert two_blas_threads() == 2
