"""Wiener phase noise: the per-antenna phase rotations of one symbol.

M antennas are fed by M_osc free-running oscillators in contiguous equal
blocks of M/M_osc antennas.  The two named extremes are the common-oscillator
setup (M_osc = 1) and the distributed setup (M_osc = M).  Each phase starts
uniform on [0, 2*pi) and drifts by a Gaussian of variance tau*sigma2 by
symbol tau; the Monte-Carlo kernel (linksim) draws the phases into its chunk
buffers, and the lemma lab rotates its quadratic forms by them.  The
scenario's phase-noise scalars (the increment variances and E|T_PN|^2) are
derived once, by SystemConfig, which also enforces the scenario rules
(M_osc divides M, variances >= 0, tau >= 1).
"""

from __future__ import annotations

import numpy as np

__all__ = ["theta_vector"]


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
