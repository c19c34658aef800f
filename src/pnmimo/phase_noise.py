"""Wiener phase-noise traces, per-antenna phase rotations, and E|T_PN|^2.

M antennas are fed by M_osc free-running oscillators in contiguous equal
blocks of M/M_osc antennas.  The two named extremes are the common-oscillator
setup (M_osc = 1) and the distributed setup (M_osc = M).  The functions here
take plain counts, variances and phase arrays; the scenario rules (M_osc
divides M, variances >= 0, tau >= 1) are enforced once, by SystemConfig.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "deg_to_var",
    "simulate_wiener",
    "theta_vector",
    "t_pn_second_moment",
]


def deg_to_var(sigma_deg: float) -> float:
    """Per-symbol increment variance (rad^2) from a std dev given in degrees."""
    return float(np.deg2rad(sigma_deg) ** 2)


def _wiener_endpoints(n: int, tau: int, sigma2: float, rng: np.random.Generator):
    """Phases at 0 and tau for n independent Wiener processes."""
    phi0 = rng.uniform(0.0, 2.0 * np.pi, size=n)
    # A single Gaussian of variance tau*sigma2 is distributionally identical
    # to the sum of tau i.i.d. steps.
    phit = phi0 + rng.normal(0.0, np.sqrt(tau * sigma2), size=n)
    return np.vstack([phi0, phit])


def simulate_wiener(M_osc: int, K: int, sigma2_bs: float, sigma2_ue: float,
                    tau: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw one joint realization of BS-oscillator and UE phase processes.

    Each process starts uniform on [0, 2*pi) and advances by a zero-mean
    Gaussian increment of variance tau*sigma2 between symbols 0 and tau.
    The M_osc BS oscillators are drawn first, then the K UEs.  Returns
    (bs_phases, ue_phases), a (2, M_osc) and a (2, K) array whose rows are
    symbol 0 and symbol tau.
    """
    bs = _wiener_endpoints(M_osc, tau, sigma2_bs, rng)
    ue = _wiener_endpoints(K, tau, sigma2_ue, rng)
    return bs, ue


def theta_vector(ue_phases, bs_phases: np.ndarray, M: int) -> np.ndarray:
    """Diagonal of the phase matrix Theta_k at one symbol.

    Entry m is exp(j(ue phase + phase of the oscillator feeding antenna m)).
    A scalar UE phase gives one length-M row; a length-K vector gives K x M.
    """
    bs = np.repeat(bs_phases, M // len(bs_phases))
    return np.exp(1j * (np.asarray(ue_phases)[..., None] + bs))


def t_pn_second_moment(M_osc: int, tau: int, sigma2_bs: float) -> float:
    """Second moment of T_PN over phase draws.

    T_PN = (1/M) sum_m exp(j * BS phase drift over tau symbols at antenna m).
    E|T_PN|^2 = (1 - e^{-tau*sigma2}) / M_osc + e^{-tau*sigma2}; equals 1 for a common
    oscillator and decreases to e^{-tau*sigma2} as M_osc grows.
    """
    e = np.exp(-tau * sigma2_bs)
    return float((1.0 - e) / M_osc + e)
