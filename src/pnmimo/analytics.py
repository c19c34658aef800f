"""Closed-form effective SINR of the RZF, ZF, and MF precoders.

BS phase drift acts exactly like a loss of channel-estimate quality: each
precoder obeys its phase-noise-free large-system SINR with q0 replaced by
the effective quality q_eff = q0 * E|T_PN|^2.  :func:`effective_quality` is
the one place q_eff is computed, and it is the single input through which
phase noise enters the three SINR expressions below.  They combine it with
the Marchenko-Pastur quantities from :mod:`pnmimo.rmt` and return plain
floats.
"""

from __future__ import annotations

from . import rmt
from .config import ConfigError, SystemConfig

__all__ = ["effective_quality", "resolve_alpha", "sinr_rzf", "sinr_zf", "sinr_mf"]


def effective_quality(config: SystemConfig) -> float:
    """q_eff = q0 * E|T_PN|^2, the phase-drift-degraded CSI quality."""
    return config.q0 * config.e_tpn2


def resolve_alpha(config: SystemConfig) -> float:
    """The RZF regularization: the configured alpha, or the SINR-maximizing
    one when alpha is None (both computed once, by SystemConfig)."""
    return config.rzf_alpha


def sinr_rzf(config: SystemConfig, alpha: float) -> float:
    """Large-system effective SINR of the RZF precoder for the observed UE.

    With m = m(-alpha), t = m/(1+m), t2 = (sum_{j != k} p_j) m'/(1+m)^2 and
    xi^2 = M (1+m)^2 / (m' sum p):
    numerator    p_k * t^2 * q_eff
    denominator  (t2/M)(1 - t*q_eff - t*q_eff/(1+m)) + sigma_w^2/xi^2
    """
    q = effective_quality(config)
    m = rmt.stieltjes_mp(alpha, config.beta)
    mp = rmt.stieltjes_mp_derivative(alpha, config.beta)
    p_k = float(config.powers[config.ue_index])
    psum = float(config.powers.sum())
    t = m / (m + 1.0)
    t2 = (psum - p_k) * mp / (1.0 + m) ** 2
    xi2 = config.M * (1.0 + m) ** 2 / (mp * psum)
    den = (t2 / config.M) * (1.0 - t * q - t * q / (1.0 + m)) + config.sigma_w2 / xi2
    return float(p_k * t ** 2 * q / den)


def sinr_zf(config: SystemConfig) -> float:
    """ZF limit alpha -> 0 of the RZF SINR; requires beta strictly above 1.

    In the limit t -> 1, t2 -> (sum_{j != k} p_j) beta/(beta-1) and
    xi^2 -> M (beta-1)/(beta sum p).
    """
    beta = config.beta
    if beta <= 1:
        raise ConfigError(f"K: ZF needs beta = M/K > 1, got M={config.M}, K={config.K}")
    q = effective_quality(config)
    p_k = float(config.powers[config.ue_index])
    psum = float(config.powers.sum())
    t2 = (psum - p_k) * beta / (beta - 1.0)
    xi2 = config.M * (beta - 1.0) / (beta * psum)
    return p_k * q / ((t2 / config.M) * (1.0 - q) + config.sigma_w2 / xi2)


def sinr_mf(config: SystemConfig) -> float:
    """MF (conjugate beamforming) effective SINR, in the large-system limit
    M*q_eff*p_k / ((sigma_w^2+1)*sum p)."""
    p_k = float(config.powers[config.ue_index])
    psum = float(config.powers.sum())
    den = (config.sigma_w2 + 1.0) * psum
    return config.M * effective_quality(config) * p_k / den
