"""Wiener phase noise: per-antenna phase rotations and E|T_PN|^2.

M antennas are fed by M_osc free-running oscillators in contiguous equal
blocks of M/M_osc antennas.  The two named extremes are the common-oscillator
setup (M_osc = 1) and the distributed setup (M_osc = M).  Each phase starts
uniform on [0, 2*pi) and drifts by a Gaussian of variance tau*sigma2 by
symbol tau; the Monte-Carlo kernel (linksim) draws the phases into its chunk
buffers.  The functions here take plain counts, variances and phase arrays;
the scenario rules (M_osc divides M, variances >= 0, tau >= 1) are enforced
once, by SystemConfig.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "deg_to_var",
    "theta_vector",
    "t_pn_second_moment",
]


def deg_to_var(sigma_deg: float) -> float:
    """Per-symbol increment variance (rad^2) from a std dev given in degrees,
    inf where the square overflows.  The same bits as
    float(np.deg2rad(sigma_deg) ** 2): both scale by pi/180 and square with
    the C library's pow, but on a Python float, without numpy's scalar
    dispatch or its overflow report."""
    try:
        return math.radians(sigma_deg) ** 2
    except OverflowError:
        return math.inf


def theta_vector(ue_phases, bs_phases: np.ndarray, M: int) -> np.ndarray:
    """Diagonal of the phase matrix Theta_k at one symbol.

    Entry m is exp(j(ue phase + phase of the oscillator feeding antenna m)).
    A scalar UE phase gives one length-M row; a length-K vector gives K x M.
    Stacks broadcast as ue_phases[..., None] against bs_phases' (..., M_osc):
    UE phases (b, K) with BS phases (b, 1, M_osc) give (b, K, M).  Each
    oscillator's block shares one exponential, copied to its M/M_osc
    antennas.
    """
    bs_phases = np.asarray(bs_phases)
    block = np.exp(1j * (np.asarray(ue_phases)[..., None] + bs_phases))
    return np.repeat(block, M // bs_phases.shape[-1], axis=-1)


def t_pn_second_moment(M_osc: int, tau: int, sigma2_bs: float) -> float:
    """Second moment of T_PN over phase draws.

    T_PN = (1/M) sum_m exp(j * BS phase drift over tau symbols at antenna m).
    E|T_PN|^2 = (1 - e^{-tau*sigma2}) / M_osc + e^{-tau*sigma2}; equals 1 for a common
    oscillator and decreases to e^{-tau*sigma2} as M_osc grows.
    """
    e = float(np.exp(-tau * sigma2_bs))  # np.exp: math.exp's bits differ
    return (1.0 - e) / M_osc + e
