"""Parameter-sweep execution, scenario presets, and byte-stable serialization.

A sweep evaluates one scenario along a single axis (snr, m_osc, beta,
sigma_phi, or alpha) for a set of precoders, producing one result row per
(sweep point, precoder).  Rows carry both the closed-form SINR prediction
and, when requested, the Monte-Carlo estimate, plus every rate figure.

rows_to_csv and rows_to_jsonl turn the rows into text; the CLI writes it.
Serialization is byte-stable: floats are written as their shortest
round-trip decimal and wall-clock timing never enters the table, so a rerun
with the same master seed reproduces the file exactly, at any parallelism,
on one machine's BLAS kernel set.  Another kernel set (OpenBLAS picks one
per CPU) may move the last digits of Monte-Carlo cells, within the stored
tables' 1e-12 relative guard; at most 8.8e-15 relative has been measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from . import analytics, rates
from .config import ConfigError, SystemConfig
from .linksim import channel_key, check_draw_size, empirical_powers

__all__ = ["COLUMNS", "SCHEMA_VERSION", "SWEEP_AXES", "plan_sweep", "run_sweep",
           "run_preset", "rows_to_csv", "rows_to_jsonl", "PRESETS", "Preset"]

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
_scenario_cells = attrgetter(*_SCENARIO_COLUMNS)

# SystemConfig's fields, in order: the keyword arguments that build a scenario
_FIELDS = tuple(f.name for f in fields(SystemConfig))

SWEEP_AXES = ("snr", "m_osc", "beta", "sigma_phi", "alpha")
PRECODERS = ("rzf", "zf", "mf")


def _apply_axis(base: dict, axis: str, value: float) -> SystemConfig:
    """The scenario at one finite value of a SWEEP_AXES axis (plan_sweep
    checks both), built from base, a scenario's fields by name, with the
    axis's fields changed; SystemConfig validates it."""
    if axis == "snr":
        changes = dict(snr_db=float(value), sigma_w2_value=None)
    elif axis == "m_osc":
        if value != int(value):
            raise ConfigError(f"sweep.values: m_osc must be an integer, got {value:g}")
        changes = dict(M_osc=int(value))
    elif axis == "beta":
        M = value * base["K"]
        if not math.isfinite(M):
            raise ConfigError(f"sweep.values: beta = {value:g} makes M = beta K overflow")
        if not math.isclose(M, round(M), rel_tol=1e-9):  # 2.2 * 25 is 55.00000000000001
            raise ConfigError(f"sweep.values: beta = {value:g} makes M = beta K = {M:g}, "
                              "not an integer")
        M = round(M)
        # a fully distributed BS stays fully distributed
        changes = dict(M=M, M_osc=M) if base["M_osc"] == base["M"] else dict(M=M)
    elif axis == "sigma_phi":
        # value is an increment variance in rad^2, applied at both ends
        if value < 0:
            raise ConfigError(f"sweep.values: sigma_phi must be >= 0, got {value:g}")
        deg = math.degrees(math.sqrt(value))
        changes = dict(sigma_deg_bs=deg, sigma_deg_ue=deg)
    else:  # alpha
        changes = dict(alpha=float(value))
    try:
        return SystemConfig(**{**base, **changes})
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


def _cell(compute, *args) -> float:
    """compute(*args) as a float, nan where it raises an ArithmeticError or
    goes negative, so that _set_finite names the cell.  Callers hold numpy's
    raise mode, so a numpy overflow, 0/0 or division by zero raises too."""
    try:
        value = compute(*args)
    except ArithmeticError:
        return math.nan
    return float(value) if value >= 0 else math.nan


# Fields the Monte-Carlo draws and powers do not depend on: the noise
# handles, the regularizer (its resolved value is part of each variant) and
# the worker count.
_NOT_DRAWN = frozenset(("snr_db", "sigma_w2_value", "alpha", "parallelism"))

# _draw_key(config): the tuple of its other fields; scenarios with equal keys
# share one Monte-Carlo draw set
_draw_key = attrgetter(*(name for name in _FIELDS if name not in _NOT_DRAWN))


def plan_sweep(config: SystemConfig, sweep_axis: str, values,
               precoders=PRECODERS, with_empirical: bool = True,
               preset: str = "") -> tuple[list[dict], list]:
    """The rows of a sweep with their closed-form cells, and its channel
    sets, gated on memory: everything run_sweep does but the Monte Carlo.

    This is the one check of what a sweep is given, for the CLI verbs and
    the Python API alike.  Before any point is built it raises ConfigError
    naming sweep.axis for an axis not in SWEEP_AXES, sweep.values for no
    values or one that is not a finite real number (a str, or an int too
    large for a float, included), and precoder for no precoders or one
    not in PRECODERS.

    One pass over the points builds each row: scenario cells, closed form,
    resolved alpha and rates.  The base scenario's fields are read once per
    plan, and each point is SystemConfig(**{**base, **changes}) with only
    the axis's fields changed, validated by SystemConfig as any scenario is.
    numpy's raise mode for the closed forms is entered once per plan, so it
    holds while the points are built too.  A cell whose computation raises an
    ArithmeticError or gives a negative, nan or inf value raises
    FloatingPointError naming the column, the precoder and the sweep point.
    With with_empirical, each row joins its draw set as it is built: the
    draw key is the scenario minus snr_db, sigma_w2, alpha and parallelism,
    which the Monte-Carlo power averages do not depend on.  A draw set is
    its first scenario and a {(precoder, alpha): rows} dict in first-seen
    order.  After the pass, the draw sets whose scenarios share
    linksim.channel_key (master_seed, K, M and n_realizations: the points
    of an m_osc or sigma_phi sweep, say) form one channel set, a list of
    draw sets in first-seen order, and each channel set is gated once on
    what its Monte-Carlo run will hold (linksim.check_draw_size, a
    ConfigError); without with_empirical nothing is drawn, so nothing is
    gated.  validate-config runs this plan as sweep does and stops here.
    """
    return _plan([config], sweep_axis, values, precoders, with_empirical, preset)


def _plan(scenarios, sweep_axis: str, values, precoders, with_empirical: bool,
          preset: str) -> tuple[list[dict], list]:
    """plan_sweep from each base scenario in turn, with the same axis,
    values and precoders: their rows in that order, and the channel sets
    of them all, so draw sets of different base scenarios (a preset's
    variants) share a channel set where their channel_key is equal."""
    if sweep_axis not in SWEEP_AXES:
        raise ConfigError(f"sweep.axis: must be one of {SWEEP_AXES}, got {sweep_axis!r}")
    try:
        finite = len(values) > 0 and all(map(math.isfinite, values))
    except (TypeError, OverflowError):  # not a real number, or an int beyond float
        finite = False
    if not finite:
        raise ConfigError(f"sweep.values: need one or more finite numbers, "
                          f"got {' '.join(map(str, values)) or 'none'}")
    if not precoders or not set(precoders) <= set(PRECODERS):
        raise ConfigError(f"precoder: need one or more of {PRECODERS}, got {precoders!r}")
    # draw key -> (first scenario with it, {(kind, alpha): its rows})
    rows, groups = [], {}
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for config in scenarios:
            base = {name: getattr(config, name) for name in _FIELDS}
            for value in values:
                point = _apply_axis(base, sweep_axis, value)
                if with_empirical:
                    variants = groups.setdefault(_draw_key(point), (point, {}))[1]
                # the cells every precoder's row at this point shares, in column order
                head = dict.fromkeys(COLUMNS)
                head.update(zip(_SCENARIO_COLUMNS, _scenario_cells(point)), preset=preset,
                            schema_version=SCHEMA_VERSION, sweep_axis=sweep_axis,
                            sweep_value=float(value))
                for kind in precoders:
                    row = dict(head, precoder=kind)
                    alpha = point.rzf_alpha if kind == "rzf" else None
                    # analytics.sinr_<kind>, looked up per call so that a
                    # patched or wrapped closed form is the one that runs
                    args = (point,) if alpha is None else (point, alpha)
                    sinr_a = _cell(getattr(analytics, f"sinr_{kind}"), *args)
                    _set_finite(row, alpha=alpha, analytical_sinr=sinr_a, **rates.rate_report(
                        sinr_a, point.tau, point.sigma2_ue, point.sigma2_bs, point.M_osc))
                    rows.append(row)
                    if with_empirical:
                        variants.setdefault((kind, alpha), []).append(row)
    channel_sets = {}
    for draw_set in groups.values():
        channel_sets.setdefault(channel_key(draw_set[0]), []).append(draw_set)
    for (point, variants), *more in channel_sets.values():
        check_draw_size(point, variants, more)
    return rows, list(channel_sets.values())


def _run(plan: tuple[list[dict], list]) -> list[dict]:
    """The rows of a plan, their Monte-Carlo cells filled: one
    empirical_powers call per channel set, for the (precoder, alpha) pairs
    of all its draw sets, after which each row reads its SINR off its
    pair's estimate at its own sigma_w2.  A Monte-Carlo cell
    (empirical_sinr, std_error) fails as a closed-form cell does, once its
    channel set ran."""
    rows, channel_sets = plan
    for channel_set in channel_sets:
        (point, variants), *more = channel_set
        # a draw set's dict iterates its (precoder, alpha) pairs, in the
        # order empirical_powers returns their estimates
        members = [pair_rows for _, v in channel_set for pair_rows in v.values()]
        ests = empirical_powers(point, variants, more)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for est, pair_rows in zip(ests, members):
                for row in pair_rows:
                    _set_finite(row, empirical_sinr=_cell(est.sinr_at, row["sigma_w2"]),
                                std_error=_cell(est.std_error_at, row["sigma_w2"]),
                                n_realizations=est.n_realizations,
                                n_rejected=est.n_rejected)
    return rows


def run_sweep(config: SystemConfig, sweep_axis: str, values,
              precoders=PRECODERS, with_empirical: bool = True,
              preset: str = "") -> list[dict]:
    """One row per (sweep point, precoder), deterministic given the seed.

    The plan (plan_sweep) builds the rows and their channel sets and
    raises before any Monte-Carlo work.  Each channel set then makes one
    empirical_powers call, which draws each realization's channel once for
    all its draw sets, and each row reads its SINR off its (precoder,
    alpha) pair at its own sigma_w2 (_run).
    """
    return _run(plan_sweep(config, sweep_axis, values, precoders, with_empirical, preset))


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


def run_preset(name: str, **config_overrides) -> list[dict]:
    """The rows of preset `name`: one sweep per variant, in order, with
    config_overrides applied to the preset's base scenario.

    All variants are planned in one plan (_plan) before any Monte-Carlo
    work, so a variant that fails its closed forms or the memory gate
    stops the run before the first draw, and the variants' draw sets that
    share a channel_key (fig2-fig4's four oscillator counts) run as one
    channel set, drawing each realization's channel once.
    """
    if name not in PRESETS:
        raise ConfigError(f"preset: unknown name {name!r}; have {sorted(PRESETS)}")
    p = PRESETS[name]
    base = {**p.config, **config_overrides}
    scenarios = [SystemConfig(**{**base, **extra}) for extra in p.variants or ({},)]
    return _run(_plan(scenarios, p.axis, p.values, p.precoders, p.with_empirical, name))


def rows_to_csv(rows: list[dict]) -> str:
    # str of a float, numpy's included, is its shortest round-trip repr
    lines = [COLUMNS] + [["" if v is None else str(v)
                          for v in map(row.__getitem__, COLUMNS)] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def _py(value):
    return value.item() if isinstance(value, np.generic) else value


def rows_to_jsonl(rows: list[dict]) -> str:
    import json  # loaded by the json-lines format only
    return "".join(json.dumps({c: _py(row[c]) for c in COLUMNS}, allow_nan=True)
                   + "\n" for row in rows)
