"""Monte-Carlo effective-SINR estimation of the downlink.

One realization draws a channel H, a joint phase trajectory, and the
estimate H_hat = sqrt(q0) Theta(0) H + sqrt(1-q0) W_e, builds the requested
precoder G from H_hat, and reads off the scalar coefficients
h_k^T Theta_k(tau) G that the observed UE k sees on its own symbol and on
every interferer's symbol at data time.  Averaging |zeta_sig|^2 and
||zeta_int||^2 over realizations yields the empirical effective SINR.  The
scenario is validated once, by SystemConfig; the stages below it take plain
arrays and floats.

Realization `i` always uses the RNG stream seeded by (master_seed, i), and
results are assembled by index, so output is bit-identical for any
parallelism degree or execution order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import draw_channel, synthesize_estimate
from .config import SystemConfig
from .phase_noise import simulate_wiener, theta_vector
from .precoding import (PrecoderMatrix, SingularChannelError, build_mf,
                        build_rzf, build_zf)

__all__ = ["PowerEstimate", "empirical_powers", "RejectionRateError",
           "MAX_REJECTION_RATE"]

# A ZF run aborts if more than this fraction of draws fails the condition cap.
MAX_REJECTION_RATE = 1e-3


class RejectionRateError(RuntimeError):
    """Too many degenerate channel draws were rejected for a trustworthy result."""


@dataclass
class PowerEstimate:
    """Noise-independent Monte-Carlo averages of signal and interference power."""

    mean_sig_power: float
    mean_int_power: float
    n_realizations: int
    n_rejected: int
    sig_powers: np.ndarray
    int_powers: np.ndarray

    def sinr_at(self, sigma_w2: float) -> float:
        return self.mean_sig_power / (self.mean_int_power + sigma_w2)

    def std_error_at(self, sigma_w2: float) -> float:
        """Delta-method standard error of the SINR ratio estimator."""
        s, q = self.sig_powers, self.int_powers
        den = self.mean_int_power + sigma_w2
        cov = np.cov(s, q)
        grad = np.array([1.0 / den, -self.mean_sig_power / den ** 2])
        var = float(grad @ cov @ grad) / self.n_realizations
        return float(np.sqrt(max(var, 0.0)))


def _build(kind: str, H_hat: np.ndarray, alpha: float | None,
           powers: np.ndarray) -> PrecoderMatrix:
    if kind == "rzf":
        return build_rzf(H_hat, alpha, powers)
    if kind == "zf":
        return build_zf(H_hat, powers)
    if kind == "mf":
        return build_mf(H_hat, powers)
    raise ValueError(f"unknown precoder kind {kind!r}")


def _simulate_block(config: SystemConfig, kind: str, alpha: float | None,
                    start: int, stop: int):
    """Per-realization powers for indices [start, stop); NaN marks rejection."""
    M, K, k, tau = config.M, config.K, config.ue_index, config.tau
    sigma2_bs, sigma2_ue = config.sigma2_bs, config.sigma2_ue
    sig = np.empty(stop - start)
    intf = np.empty(stop - start)
    for i in range(start, stop):
        rng = np.random.default_rng((config.master_seed, i))
        H = draw_channel(M, K, rng)
        trace = simulate_wiener(config.M_osc, K, sigma2_bs, sigma2_ue, tau, rng)
        H_hat = synthesize_estimate(
            H, theta_vector(trace.ue_phases[0], trace.bs_phases[0], M), config.q0, rng)
        try:
            G = _build(kind, H_hat, alpha, config.powers).G
        except SingularChannelError:
            sig[i - start] = intf[i - start] = np.nan
            continue
        # the observed UE's channel row, rotated by its data-time phases
        row = H[k] * theta_vector(trace.ue_phases[1, k], trace.bs_phases[1], M)
        p = np.abs(row @ G) ** 2
        sig[i - start] = p[k]
        intf[i - start] = p.sum() - p[k]
    return sig, intf


def empirical_powers(config: SystemConfig, kind: str,
                     alpha: float | None = None) -> PowerEstimate:
    """Monte-Carlo averages of desired and interference power for one scenario.

    These averages do not depend on the receiver noise level, so one call
    serves every SNR point that shares the channel/phase configuration.
    """
    n, workers = config.n_realizations, config.parallelism
    if workers <= 1 or n < 4 * workers:
        sig, intf = _simulate_block(config, kind, alpha, 0, n)
    else:
        bounds = np.linspace(0, n, workers + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_simulate_block, config, kind, alpha, int(a), int(b))
                       for a, b in zip(bounds[:-1], bounds[1:])]
            pieces = [f.result() for f in futures]
        sig = np.concatenate([p[0] for p in pieces])
        intf = np.concatenate([p[1] for p in pieces])
    rejected = int(np.isnan(sig).sum())
    if rejected > MAX_REJECTION_RATE * n:
        raise RejectionRateError(
            f"{rejected}/{n} realizations rejected (cap {MAX_REJECTION_RATE:.1%})")
    keep = ~np.isnan(sig)
    sig, intf = sig[keep], intf[keep]
    return PowerEstimate(mean_sig_power=float(sig.mean()),
                         mean_int_power=float(intf.mean()),
                         n_realizations=int(sig.size),
                         n_rejected=rejected,
                         sig_powers=sig, int_powers=intf)
