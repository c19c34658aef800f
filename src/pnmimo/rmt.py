"""Closed-form random-matrix quantities for the large-system SINR analysis.

Everything here is a deterministic function of the load ratio beta = M/K and
the regularization parameter alpha: the Marchenko-Pastur Stieltjes transform
m, its derivative m', and the SINR-maximizing RZF regularization.  The SINR
expressions that combine them with q_eff live in :mod:`pnmimo.analytics`.
The Monte-Carlo counterparts (empirical traces, empirical precoder
normalization) live in the test suite and in :mod:`pnmimo.lemmas`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stieltjes_mp", "stieltjes_mp_derivative", "optimal_alpha"]


def stieltjes_mp(alpha: float, beta: float) -> float:
    """Stieltjes transform of the Marchenko-Pastur law evaluated at -alpha.

    Valid for alpha > 0 and beta >= 1 (more antennas than users).
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    s = np.sqrt(beta * beta * alpha * alpha + 2 * (beta + 1) * alpha * beta + (1 - beta) ** 2)
    return (beta - 1 - alpha * beta + s) / (2 * alpha * beta)


def stieltjes_mp_derivative(alpha: float, beta: float) -> float:
    """d m(z)/dz evaluated at z = -alpha, by analytic differentiation.

    Finite differences are used only as an oracle in the tests.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    s = np.sqrt(beta * beta * alpha * alpha + 2 * (beta + 1) * alpha * beta + (1 - beta) ** 2)
    ds = beta * (beta * alpha + beta + 1) / s
    # m(-alpha) = f(alpha); dm/dz|_{z=-alpha} = -df/dalpha
    num = (-beta + ds) * alpha - (beta - 1 - alpha * beta + s)
    return -num / (2 * alpha * alpha * beta)


def optimal_alpha(q0: float, e_tpn2: float, sigma_w2: float, beta: float) -> float:
    """SINR-maximizing regularization for the RZF precoder.

    alpha = (sigma_w^2 + 1 - E|T|^2 q0^2) / (E|T|^2 q0^2 beta).

    Degenerate when q0 = 0 or E|T|^2 = 0 (matched filter is optimal there;
    the caller decides what to do).
    """
    if not 0 <= q0 <= 1:
        raise ValueError(f"q0 must be in [0, 1], got {q0}")
    if e_tpn2 * q0 * q0 <= 0:
        raise ValueError("degenerate: q0 = 0 or e_tpn2 = 0, MF precoding is optimal")
    if sigma_w2 < 0:
        raise ValueError(f"sigma_w2 must be >= 0, got {sigma_w2}")
    if beta < 1:
        raise ValueError(f"beta must be >= 1, got {beta}")
    q = e_tpn2 * q0 * q0
    return (sigma_w2 + 1.0 - q) / (q * beta)
