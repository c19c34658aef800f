"""Per-layer metrics of a traced run, from span totals, call records and the
output tables.

Counts are per pass.  Operation counts and bytes moved are computed from
array sizes (dominant terms, 8 real flops per complex multiply-add, 16 bytes
per complex128 element), not measured; cache misses are ignored.
"""

from __future__ import annotations

import inspect
from collections import defaultdict

from workloads import parse_table

PER_LAYER_UNITS = {
    "channel.draw_channel.calls": "count",
    "channel.draw_channel.us_per_call": "us",
    "channel.synthesize_estimate.self_us_per_call": "us",
    "phase_noise.simulate_wiener.us_per_call": "us",
    "phase_noise.theta_vector.calls": "count",
    "phase_noise.theta_vector.us_per_call": "us",
    "precoding.build_rzf.us_per_call": "us",
    "precoding.build_zf.us_per_call": "us",
    "precoding.build_mf.us_per_call": "us",
    "precoding.singular_rejections": "count",
    "precoding.accept_ratio": "ratio",
    "precoding.computed_gflop_per_pass": "GFLOP",
    "precoding.computed_mb_per_pass": "MB",
    "precoding.computed_gflop_per_s": "GFLOP/s",
    "linksim.empirical_powers.calls": "count",
    "linksim.empirical_powers.s_per_call": "s",
    "linksim.self_us_per_realization": "us",
    "linksim.redundant_draw_ratio": "ratio",
    "linksim.max_abs_z": "std_error",
    "analytics.resolve_alpha.us_per_call": "us",
    "analytics.sinr_rzf.us_per_call": "us",
    "analytics.sinr_zf.us_per_call": "us",
    "analytics.sinr_mf.us_per_call": "us",
    "rmt.stieltjes_mp.calls_per_row": "count",
    "rates.rate_report.us_per_call": "us",
    "sweep.run_sweep.self_us_per_row": "us",
    "sweep.cache_hit_ratio": "ratio",
    "sweep.rows_to_csv.us_per_row": "us",
    "lemmas.check_rank1_perturbation.s_per_call": "s",
    "lemmas.check_quadratic_form_identities.s_per_call": "s",
    "lemmas.check_free_probability_traces.s_per_call": "s",
    "lemmas.check_trace_lemma.s_per_call": "s",
    "lemmas.check_matrix_inversion_identity.s_per_call": "s",
    "lemmas.check_resolvent_identity.s_per_call": "s",
    "lemmas.computed_gflop_per_pass": "GFLOP",
    "lemmas.computed_mb_per_pass": "MB",
    "lemmas.computed_gflop_per_s": "GFLOP/s",
    "cli.main.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

_C = 16  # bytes per complex128 element

LEMMA_CHECKS = ("check_trace_lemma", "check_rank1_perturbation",
                "check_free_probability_traces", "check_quadratic_form_identities",
                "check_matrix_inversion_identity", "check_resolvent_identity")

# Per trial: (complex multiply-adds / M^3, dense M x M operands touched / M^2).
# rank1: two SPD products, two inverses, A @ difference, the 2-norm's SVD
# (taken as 4/3 M^3), plus outer product and sums.  free: H^H H (K = M/4) and
# one inverse.  quadratic form: two Gram products, three inverses, U @ A^-1 and
# U @ V.  matrix inversion: SPD product, a solve and two inverses.
# resolvent: two SPD products, two inverses and two products.
_LEMMA_COST = {
    "check_rank1_perturbation": (19 / 3, 27),
    "check_free_probability_traces": (5 / 4, 10),
    "check_quadratic_form_identities": (11 / 2, 27),
    "check_matrix_inversion_identity": (10 / 3, 15),
    "check_resolvent_identity": (6.0, 24),
}


def precoder_cost(kind: str, K: int, M: int) -> tuple[float, float]:
    """(flops, bytes) of one precoder build on a K x M estimate.

    RZF: K x K Gram, Cholesky, K-column triangular solves, M x K product.
    ZF: Gram, condition number by SVD (taken as 2 K^3), LU solve, product.
    MF: scaling and normalization of the M x K conjugate.
    """
    if kind == "mf":
        return 6.0 * M * K, 4.0 * _C * M * K
    gram = K * K * M
    product = M * K * K
    if kind == "rzf":
        macs = gram + K ** 3 / 6 + K ** 3 + product
    else:
        macs = gram + 2 * K ** 3 + K ** 3 / 3 + K ** 3 + product
    moved = _C * (K * M + K * K) + _C * 6 * K * K + _C * (3 * M * K + K * K) \
        + 2 * _C * M * K
    return 8.0 * macs, float(moved)


def lemma_cost(check: str, sizes, trials: int) -> tuple[float, float]:
    """(flops, bytes) of one lemma check call over its sizes and trials."""
    flops = moved = 0.0
    for M in sizes:
        if check == "check_trace_lemma":
            macs, ops = M ** 3 + trials * 2 * M * M, 3 + trials * 2
        else:
            coeff, touched = _LEMMA_COST[check]
            macs, ops = trials * coeff * M ** 3, trials * touched
        flops += 8.0 * macs
        moved += ops * _C * M * M
    return flops, moved


class CallRecords:
    """Arguments of traced calls that the per-layer metrics need."""

    def __init__(self):
        self.pass_index = 0
        self.draws = []  # (pass, draw-relevant config, realizations)
        self.precoders = defaultdict(int)  # (kind, K, M) -> calls
        self.lemma_calls = []  # (check, sizes, trials)

    def hooks(self) -> dict:
        hooks = {"linksim.empirical_powers": self._empirical}
        for kind in ("rzf", "zf", "mf"):
            hooks[f"precoding.build_{kind}"] = self._precoder(kind)
        for check in LEMMA_CHECKS:
            hooks[f"lemmas.{check}"] = self._lemma(check)
        return hooks

    def _empirical(self, args, kwargs):
        config = args[0]
        n = kwargs.get("n_realizations", args[3] if len(args) > 3 else None)
        n = config.n_realizations if n is None else n
        # The stream of realization i depends on these fields only.
        key = (config.M, config.K, config.M_osc, config.q0, config.sigma_deg_bs,
               config.sigma_deg_ue, config.tau, config.master_seed)
        self.draws.append((self.pass_index, key, n))

    def _precoder(self, kind):
        def hook(args, kwargs):
            K, M = args[0].shape
            self.precoders[(kind, K, M)] += 1
        return hook

    def _lemma(self, check):
        def hook(args, kwargs):
            import pnmimo.lemmas
            bound = inspect.signature(getattr(pnmimo.lemmas, check)).bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            sizes = a["M_values"] if "M_values" in a else [a["M"]]
            self.lemma_calls.append((check, list(sizes), a["n_trials"]))
        return hook


def _per_call(stat: dict, key: str, scale: float) -> float:
    return stat[key] / stat["calls"] * scale if stat["calls"] else 0.0


def per_layer(summary: dict, records: CallRecords, tables: dict, passes: int,
              overhead_ratio: float) -> dict:
    """Every metric in PER_LAYER_UNITS; a function that is absent reads 0.

    summary and records cover `passes` traced passes; tables is the output
    of one pass (every pass writes the same bytes).  overhead_ratio is the
    median over adjacent pairs of traced / untraced pass wall time.
    """
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}

    def s(name):
        return summary.get(name, empty)

    rows = [r for t in tables.values() for r in parse_table(t)]
    sweep_rows = sum(1 for r in rows if "precoder" in r)
    mc_rows = [r for r in rows if r.get("empirical_sinr")]
    m = {}
    m["channel.draw_channel.calls"] = s("channel.draw_channel")["calls"] / passes
    m["channel.draw_channel.us_per_call"] = _per_call(s("channel.draw_channel"), "total_s", 1e6)
    m["channel.synthesize_estimate.self_us_per_call"] = _per_call(
        s("channel.synthesize_estimate"), "self_s", 1e6)
    m["phase_noise.simulate_wiener.us_per_call"] = _per_call(
        s("phase_noise.simulate_wiener"), "total_s", 1e6)
    m["phase_noise.theta_vector.calls"] = s("phase_noise.theta_vector")["calls"] / passes
    m["phase_noise.theta_vector.us_per_call"] = _per_call(
        s("phase_noise.theta_vector"), "total_s", 1e6)
    builds = rejected = 0
    build_s = 0.0
    for kind in ("rzf", "zf", "mf"):
        st = s(f"precoding.build_{kind}")
        m[f"precoding.build_{kind}.us_per_call"] = _per_call(st, "total_s", 1e6)
        builds += st["calls"]
        rejected += st["errors"]
        build_s += st["total_s"]
    m["precoding.singular_rejections"] = rejected / passes
    m["precoding.accept_ratio"] = (builds - rejected) / builds if builds else 0.0
    flops = moved = 0.0
    for (kind, K, M), calls in records.precoders.items():
        f, b = precoder_cost(kind, K, M)
        flops += calls * f
        moved += calls * b
    m["precoding.computed_gflop_per_pass"] = flops / passes / 1e9
    m["precoding.computed_mb_per_pass"] = moved / passes / 1e6
    m["precoding.computed_gflop_per_s"] = flops / build_s / 1e9 if build_s else 0.0

    ep = s("linksim.empirical_powers")
    simulated = sum(n for _, _, n in records.draws)
    streams = defaultdict(int)
    for p, key, n in records.draws:
        streams[(p, key)] = max(streams[(p, key)], n)
    m["linksim.empirical_powers.calls"] = ep["calls"] / passes
    m["linksim.empirical_powers.s_per_call"] = _per_call(ep, "total_s", 1.0)
    m["linksim.self_us_per_realization"] = ep["self_s"] / simulated * 1e6 if simulated else 0.0
    m["linksim.redundant_draw_ratio"] = (simulated / sum(streams.values())
                                         if streams else 0.0)
    z = [abs(float(r["empirical_sinr"]) - float(r["analytical_sinr"]))
         / float(r["std_error"]) for r in mc_rows if float(r["std_error"]) > 0]
    m["linksim.max_abs_z"] = max(z, default=0.0)

    for fn in ("resolve_alpha", "sinr_rzf", "sinr_zf", "sinr_mf"):
        m[f"analytics.{fn}.us_per_call"] = _per_call(s(f"analytics.{fn}"), "total_s", 1e6)
    per_pass_rows = sweep_rows
    m["rmt.stieltjes_mp.calls_per_row"] = (s("rmt.stieltjes_mp")["calls"] / passes
                                           / per_pass_rows if per_pass_rows else 0.0)
    m["rates.rate_report.us_per_call"] = _per_call(s("rates.rate_report"), "total_s", 1e6)
    m["sweep.run_sweep.self_us_per_row"] = (s("sweep.run_sweep")["self_s"] / passes
                                            / per_pass_rows * 1e6 if per_pass_rows else 0.0)
    lookups = len(mc_rows)
    m["sweep.cache_hit_ratio"] = (1.0 - ep["calls"] / passes / lookups) if lookups else 0.0
    m["sweep.rows_to_csv.us_per_row"] = (s("sweep.rows_to_csv")["total_s"] / passes
                                         / per_pass_rows * 1e6 if per_pass_rows else 0.0)

    lemma_s = 0.0
    for check in LEMMA_CHECKS:
        st = s(f"lemmas.{check}")
        m[f"lemmas.{check}.s_per_call"] = _per_call(st, "total_s", 1.0)
        lemma_s += st["total_s"]
    flops = moved = 0.0
    for check, sizes, trials in records.lemma_calls:
        f, b = lemma_cost(check, sizes, trials)
        flops += f
        moved += b
    m["lemmas.computed_gflop_per_pass"] = flops / passes / 1e9
    m["lemmas.computed_mb_per_pass"] = moved / passes / 1e6
    m["lemmas.computed_gflop_per_s"] = flops / lemma_s / 1e9 if lemma_s else 0.0

    m["cli.main.self_ms"] = _per_call(s("cli.main"), "self_s", 1e3)
    m["trace.overhead_ratio"] = overhead_ratio
    return m
