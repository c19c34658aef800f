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


def theta_vector(ue_phases, bs_phases: np.ndarray, M: int, out=None) -> np.ndarray:
    """Diagonal of the phase matrix Theta_k at one symbol.

    Entry m is exp(j(ue phase + phase of the oscillator feeding antenna m)).
    A scalar UE phase gives one length-M row; a length-K vector gives K x M.
    Stacks broadcast as ue_phases[..., None] against bs_phases' (..., M_osc):
    UE phases (b, K) with BS phases (b, 1, M_osc) give (b, K, M).  Each
    oscillator's block shares one exponential, copied to its M/M_osc
    antennas.  The result is written into out where given (a complex array
    of its shape) and returned.  The exponentials are formed in place, as
    exp(j (phase + 0j)), in out itself when M_osc = M, else in one
    (..., M_osc) array, so nothing else of the result's size is allocated.
    """
    bs_phases = np.asarray(bs_phases)
    ue = np.asarray(ue_phases)[..., None]
    shape = np.broadcast_shapes(ue.shape, bs_phases.shape)
    if out is None:
        out = np.empty(shape[:-1] + (M,), dtype=complex)
    block = out if shape[-1] == M else np.empty(shape, dtype=complex)
    np.add(ue, bs_phases, out=block.real)
    block.imag = 0.0
    np.exp(np.multiply(1j, block, out=block), out=block)
    if block is not out:
        out.reshape(shape + (-1,))[...] = block[..., None]
    return out
