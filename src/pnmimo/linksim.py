"""Monte-Carlo effective-SINR estimation of the downlink.

One realization draws a channel H, a joint phase trajectory, and the
estimate H_hat = sqrt(q0) Theta(0) H + sqrt(1-q0) W_e, and forms the
observed UE k's channel row h_k^T Theta_k(tau) at data time.  One
`precoding.precoders` call gives every requested precoder (a kind and, for
RZF, a regularizer alpha) as G = H_hat^H C, so the row is projected onto
H_hat^H once and each C turns it into the scalar coefficients the UE sees
on its own symbol (c_sig) and on every interferer's symbol (c_int).
Averaging |c_sig|^2 and ||c_int||^2 over realizations yields the empirical
effective SINR.  The averages do not depend on the receiver noise level, so
one draw set serves every precoder, alpha and SNR point of a scenario.  The
scenario is validated once, by SystemConfig; the stages below it take plain
arrays and floats.

Realization `i` always uses the RNG stream seeded by (master_seed, i), and
results are assembled by index, so output is bit-identical for any
parallelism degree, execution order or set of precoders built on the draw.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import draw_channel, synthesize_estimate
from .config import SystemConfig
from .phase_noise import simulate_wiener, theta_vector
from .precoding import precoders

__all__ = ["PowerEstimate", "empirical_powers", "RejectionRateError",
           "MAX_REJECTION_RATE"]

# A ZF run aborts if more than this fraction of draws fails the condition cap.
MAX_REJECTION_RATE = 1e-3


class RejectionRateError(RuntimeError):
    """Too many degenerate channel draws were rejected for a trustworthy result."""


@dataclass
class PowerEstimate:
    """Noise-independent Monte-Carlo averages of signal and interference power.

    The SINR is a ratio of mean powers, E|c_sig|^2 / (E||c_int||^2 +
    sigma_w2), so the signal power the UE cannot use coherently stays in the
    numerator.  At q0 = 0 the estimate is independent of the data-time row
    and, with equal powers, every precoder tends to the incoherent floor
    p_k / (sum_{j != k} p_j + sigma_w2 sum_j p_j), where the closed form,
    which keeps only the coherent term, reads 0.
    """

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


def _simulate_block(config: SystemConfig, variants, start: int, stop: int):
    """Per-variant, per-realization powers for indices [start, stop).

    Returns two (len(variants), stop - start) arrays; NaN marks a draw that
    the variant's precoder rejected.
    """
    M, K, k, tau = config.M, config.K, config.ue_index, config.tau
    sigma2_bs, sigma2_ue = config.sigma2_bs, config.sigma2_ue
    sig = np.empty((len(variants), stop - start))
    intf = np.empty_like(sig)
    for i in range(start, stop):
        rng = np.random.default_rng((config.master_seed, i))
        H = draw_channel(M, K, rng)
        bs, ue = simulate_wiener(config.M_osc, K, sigma2_bs, sigma2_ue, tau, rng)
        H_hat = synthesize_estimate(H, theta_vector(ue[0], bs[0], M), config.q0, rng)
        # the observed UE's channel row, rotated by its data-time phases, seen
        # through H_hat^H: row @ G = row_hat @ C for every precoder G = H_hat^H C
        row = H[k] * theta_vector(ue[1, k], bs[1], M)
        row_hat = row @ H_hat.conj().T
        for v, C in enumerate(precoders(H_hat, config.powers, variants)):
            if C is None:
                sig[v, i - start] = intf[v, i - start] = np.nan
                continue
            p = np.abs(row_hat @ C) ** 2
            sig[v, i - start] = p[k]
            intf[v, i - start] = p.sum() - p[k]
    return sig, intf


def _estimate(sig: np.ndarray, intf: np.ndarray) -> PowerEstimate:
    n = sig.size
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


def empirical_powers(config: SystemConfig, variants) -> list[PowerEstimate]:
    """Monte-Carlo power averages of every (kind, alpha) pair on one draw set.

    Realization i is drawn once and every pair's precoder is built from it;
    alpha is None for ZF and MF.  Returns one PowerEstimate per pair, in
    order.  The averages do not depend on the receiver noise level, so one
    call serves every SNR point of the scenario.  Draws a pair's precoder
    rejects are dropped for that pair only, and the rejection cap applies
    per pair.
    """
    variants = list(variants)
    n, workers = config.n_realizations, config.parallelism
    if workers <= 1 or n < 4 * workers:
        sig, intf = _simulate_block(config, variants, 0, n)
    else:
        bounds = np.linspace(0, n, workers + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_simulate_block, config, variants, int(a), int(b))
                       for a, b in zip(bounds[:-1], bounds[1:])]
            pieces = [f.result() for f in futures]
        sig = np.concatenate([p[0] for p in pieces], axis=1)
        intf = np.concatenate([p[1] for p in pieces], axis=1)
    return [_estimate(s, q) for s, q in zip(sig, intf)]
