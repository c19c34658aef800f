"""Parameter-sweep execution, scenario presets, and byte-stable serialization.

A sweep evaluates one scenario along a single axis (snr, m_osc, beta,
sigma_phi, or alpha) for a set of precoders, producing one result row per
(sweep point, precoder).  Rows carry both the closed-form SINR prediction
and, when requested, the Monte-Carlo estimate, plus every rate figure.

rows_to_csv and rows_to_jsonl turn the rows into text; the CLI writes it.
Serialization is byte-stable: floats are written as their shortest
round-trip decimal and wall-clock timing never enters the table, so a rerun
with the same master seed reproduces the file exactly at any parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import analytics, rates
from .config import SWEEP_AXES, ConfigError, SystemConfig
from .linksim import check_draw_size, empirical_powers

__all__ = ["COLUMNS", "SCHEMA_VERSION", "run_sweep", "run_preset",
           "rows_to_csv", "rows_to_jsonl", "list_presets", "PRESETS", "Preset"]

SCHEMA_VERSION = 1

COLUMNS = [
    "schema_version", "preset", "sweep_axis", "sweep_value", "precoder",
    "M", "K", "M_osc", "q0", "sigma_deg_bs", "sigma_deg_ue", "tau", "T_c",
    "snr_db", "sigma_w2", "alpha", "analytical_sinr", "empirical_sinr",
    "std_error", "n_realizations", "n_rejected", "rate_awgn", "rate_lapidoth",
    "rate_min", "rate_ergodic", "master_seed",
]

# Cells copied from the scenario as is.  alpha and n_realizations are config
# fields too, but their cells hold the resolved alpha and the kept-draw count.
_SCENARIO_COLUMNS = ("M", "K", "M_osc", "q0", "sigma_deg_bs", "sigma_deg_ue",
                     "tau", "T_c", "snr_db", "sigma_w2", "master_seed")

PRECODERS = ("rzf", "zf", "mf")


def _apply_axis(config: SystemConfig, axis: str, value: float) -> SystemConfig:
    """The scenario at one sweep point; SystemConfig validates it."""
    if axis == "snr":
        changes = dict(snr_db=float(value), sigma_w2_value=None)
    elif axis == "m_osc":
        if value != int(value):
            raise ConfigError(f"sweep.values: m_osc must be an integer, got {value:g}")
        changes = dict(M_osc=int(value))
    elif axis == "beta":
        if not math.isfinite(value * config.K):
            raise ConfigError(f"sweep.values: beta = {value:g} makes M = beta K overflow")
        M = int(round(value * config.K))
        # a fully distributed BS stays fully distributed
        changes = dict(M=M, M_osc=M) if config.M_osc == config.M else dict(M=M)
    elif axis == "sigma_phi":
        # value is an increment variance in rad^2, applied at both ends
        if value < 0:
            raise ConfigError(f"sweep.values: sigma_phi must be >= 0, got {value:g}")
        deg = float(np.rad2deg(np.sqrt(value)))
        changes = dict(sigma_deg_bs=deg, sigma_deg_ue=deg)
    elif axis == "alpha":
        changes = dict(alpha=float(value))
    else:
        raise ConfigError(f"sweep_axis: must be one of {SWEEP_AXES}, got {axis!r}")
    try:
        return replace(config, **changes)
    except ConfigError as exc:
        raise ConfigError(f"sweep.values: {axis} = {value:g} gives an invalid "
                          f"scenario: {exc}") from None


def _set_finite(row: dict, **cells) -> None:
    """row.update(cells), but a nan or inf cell raises FloatingPointError."""
    for c, v in cells.items():
        if v is not None and not math.isfinite(v):
            raise FloatingPointError(f"{c} is {v} for {row['precoder']} at "
                                     f"{row['sweep_axis']} = {row['sweep_value']!r}")
    row.update(cells)


def _analytic(config: SystemConfig, kind: str):
    if kind == "rzf":
        return analytics.sinr_rzf(config, config.rzf_alpha), config.rzf_alpha
    if kind == "zf":
        return analytics.sinr_zf(config), None
    if kind == "mf":
        return analytics.sinr_mf(config), None
    raise ConfigError(f"precoder: unknown kind {kind!r}")


# Fields the Monte-Carlo draws and powers do not depend on: the noise
# handles, the regularizer (its resolved value is part of each variant) and
# the worker count.
_NOT_DRAWN = frozenset(("snr_db", "sigma_w2_value", "alpha", "parallelism"))


def _draw_key(config: SystemConfig) -> tuple:
    """Scenarios with equal keys share one Monte-Carlo draw set."""
    return tuple(v for f, v in zip(fields(config), config.value_key())
                 if f.name not in _NOT_DRAWN)


def run_sweep(config: SystemConfig, sweep_axis: str, values,
              precoders=PRECODERS, with_empirical: bool = True,
              preset: str = "") -> list[dict]:
    """One row per (sweep point, precoder), deterministic given the seed.

    Rows are built first: scenario cells, closed form, resolved alpha and
    rates.  A nan or inf cell, such as a closed form that overflows, raises
    FloatingPointError, before any Monte-Carlo work.  After a point's closed
    forms, a point whose Monte-Carlo buffers do not fit in memory raises
    ConfigError (linksim.check_draw_size), with or without with_empirical,
    so that validate-config rejects what sweep rejects.  With
    with_empirical, the rows are then grouped by draw key, the scenario
    minus its noise handles (snr_db, sigma_w2), alpha and parallelism, with
    powers compared by value.  Monte-Carlo power averages do not depend on
    those fields, so each group makes one empirical_powers call for all of
    its (precoder, alpha) pairs, and each row reads its SINR at its own
    sigma_w2 off that one draw set.
    """
    if len(values) == 0:
        raise ConfigError("sweep: values must be nonempty")
    rows, points = [], []
    for value in values:
        point = _apply_axis(config, sweep_axis, value)
        # the cells every precoder's row at this point shares, in column order
        head = dict.fromkeys(COLUMNS)
        head.update({c: getattr(point, c) for c in _SCENARIO_COLUMNS}, preset=preset,
                    schema_version=SCHEMA_VERSION, sweep_axis=sweep_axis, sweep_value=float(value))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for kind in precoders:
                row = dict(head, precoder=kind)
                try:
                    sinr_a, alpha = _analytic(point, kind)
                except ArithmeticError:
                    sinr_a, alpha = math.nan, None
                sinr_a = float(sinr_a) if sinr_a >= 0 else math.nan
                _set_finite(row, alpha=None if alpha is None else float(alpha),
                            analytical_sinr=sinr_a, **rates.rate_report(
                                sinr_a, point.tau, point.sigma2_ue, point.sigma2_bs,
                                point.M_osc))
                rows.append(row)
                points.append((point, (kind, alpha)))
        check_draw_size(point)
    if with_empirical:
        # draw key -> (first scenario with it, its (kind, alpha) pairs in order)
        groups: dict = {}
        keys = [_draw_key(point) for point, _ in points]
        for key, (point, variant) in zip(keys, points):
            groups.setdefault(key, (point, {}))[1][variant] = None
        estimates = {key: dict(zip(variants, empirical_powers(point, list(variants))))
                     for key, (point, variants) in groups.items()}
        for row, key, (point, variant) in zip(rows, keys, points):
            est = estimates[key][variant]
            _set_finite(row, empirical_sinr=est.sinr_at(point.sigma_w2),
                        std_error=est.std_error_at(point.sigma_w2),
                        n_realizations=est.n_realizations,
                        n_rejected=est.n_rejected)
    return rows


@dataclass(frozen=True, eq=False)
class Preset:
    """A named, self-contained sweep scenario.

    rate_kind records which rate figure the scenario is meant to be read
    with: "ergodic" (log2(1+S_eff)) or "min" (minimum of the AWGN and
    phase-entropy bounds).
    """

    name: str
    note: str
    rate_kind: str
    config: dict
    axis: str
    values: tuple
    precoders: tuple = PRECODERS
    with_empirical: bool = True
    variants: tuple = ()  # extra config overrides, one sweep each

    def run(self, **config_overrides) -> list[dict]:
        base = {**self.config, **config_overrides}
        rows = []
        for extra in self.variants or ({},):
            rows += run_sweep(SystemConfig(**{**base, **extra}), self.axis, self.values,
                              self.precoders, self.with_empirical, preset=self.name)
        return rows


_VERIFY = dict(M=50, K=10, q0=0.9, sigma_deg_bs=6.0, sigma_deg_ue=6.0,
               tau=10, T_c=100)
_SNRS = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
_MOSC_VARIANTS = tuple({"M_osc": m} for m in (1, 2, 5, 50))
_CODO = dict(K=25, q0=0.9, sigma_deg_bs=6.0, sigma_deg_ue=6.0, tau=25, T_c=100)
_BETAS = tuple(float(b) for b in range(1, 11))

PRESETS: dict[str, Preset] = {p.name: p for p in [
    Preset("fig2", "optimized RZF, SNR sweep per oscillator count; "
           "analytic vs Monte-Carlo agreement", "ergodic",
           _VERIFY, "snr", _SNRS, ("rzf",), True, _MOSC_VARIANTS),
    Preset("fig3", "ZF, SNR sweep per oscillator count", "ergodic",
           _VERIFY, "snr", _SNRS, ("zf",), True, _MOSC_VARIANTS),
    Preset("fig4", "MF, SNR sweep per oscillator count", "ergodic",
           _VERIFY, "snr", _SNRS, ("mf",), True, _MOSC_VARIANTS),
    Preset("fig5", "SINR-maximizing regularization vs SNR, common and "
           "per-antenna oscillators", "ergodic",
           {**_VERIFY, "M": 200, "K": 40}, "snr", _SNRS, ("rzf",), False,
           ({"M_osc": 1}, {"M_osc": 200})),
    Preset("fig6a", "precoder comparison vs phase variance: SNR 0 dB, beta 2",
           "ergodic", {**_VERIFY, "M": 50, "K": 25, "M_osc": 5, "snr_db": 0.0},
           "sigma_phi", tuple(np.geomspace(0.1, 1.0, 13)), PRECODERS, False),
    Preset("fig6b", "precoder comparison vs phase variance: SNR 20 dB, beta 2",
           "ergodic", {**_VERIFY, "M": 50, "K": 25, "M_osc": 5, "snr_db": 20.0},
           "sigma_phi", tuple(np.geomspace(0.005, 1.0, 13)), PRECODERS, False),
    Preset("fig6c", "precoder comparison vs phase variance: SNR 0 dB, beta 5",
           "ergodic", {**_VERIFY, "M": 50, "M_osc": 5, "snr_db": 0.0},
           "sigma_phi", tuple(np.geomspace(0.005, 1.0, 13)), PRECODERS, False),
    Preset("fig6d", "precoder comparison vs phase variance: SNR 20 dB, beta 5",
           "ergodic", {**_VERIFY, "M": 50, "M_osc": 5, "snr_db": 20.0},
           "sigma_phi", tuple(np.geomspace(0.005, 1.0, 13)), PRECODERS, False),
    Preset("fig7", "common vs per-antenna oscillators across load ratio, "
           "optimized RZF, min-bound rate", "min",
           {**_CODO, "M": 25}, "beta", _BETAS, ("rzf",), False,
           ({"M_osc": 1, "snr_db": 0.0}, {"M_osc": 25, "snr_db": 0.0},
            {"M_osc": 1, "snr_db": 40.0}, {"M_osc": 25, "snr_db": 40.0})),
    Preset("fig8", "common vs per-antenna oscillators across load ratio, MF, "
           "min-bound rate", "min",
           {**_CODO, "M": 25}, "beta", _BETAS, ("mf",), False,
           ({"M_osc": 1, "snr_db": 0.0}, {"M_osc": 25, "snr_db": 0.0},
            {"M_osc": 1, "snr_db": 40.0}, {"M_osc": 25, "snr_db": 40.0})),
    Preset("lte", "high-quality oscillators, training-to-data lag of a full "
           "coherence window", "ergodic",
           dict(M=50, K=25, q0=0.9, sigma_deg_bs=0.06, sigma_deg_ue=0.06,
                tau=10_000, T_c=10_000), "m_osc", (1, 2, 5, 10, 25, 50),
           PRECODERS, False, ({"snr_db": 0.0}, {"snr_db": 20.0})),
]}


def list_presets() -> list[tuple[str, str]]:
    """(name, note) pairs of the preset registry, in registry order."""
    return [(p.name, f"{p.note} [rate: {p.rate_kind}]") for p in PRESETS.values()]


def run_preset(name: str, **config_overrides) -> list[dict]:
    if name not in PRESETS:
        raise ConfigError(f"preset: unknown name {name!r}; have {sorted(PRESETS)}")
    return PRESETS[name].run(**config_overrides)


def _cell(value) -> str:
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, (float, np.floating)) else str(value)


def rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        raise ValueError("emit: result table is empty")
    # a Python float, the commonest cell, skips the _cell call
    lines = [COLUMNS] + [[repr(v) if type(v) is float else _cell(v)
                          for v in map(row.__getitem__, COLUMNS)] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def _py(value):
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


def rows_to_jsonl(rows: list[dict]) -> str:
    import json  # loaded by the json-lines format only
    if not rows:
        raise ValueError("emit: result table is empty")
    return "".join(json.dumps({c: _py(row[c]) for c in COLUMNS}, allow_nan=True)
                   + "\n" for row in rows)
