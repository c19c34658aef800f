"""Gauss-Markov channel-estimate synthesis for Rayleigh block fading.

The Monte-Carlo kernel (linksim) draws the channel H and the estimation
noise W_e, K x M i.i.d. unit-variance circularly symmetric Gaussians, into
its chunk buffers.  q0 is validated once, by SystemConfig.
"""

from __future__ import annotations

import numpy as np

__all__ = ["synthesize_estimate"]


def synthesize_estimate(H: np.ndarray, theta0: np.ndarray, q0: float,
                        W_e: np.ndarray, out=None) -> np.ndarray:
    """Gauss-Markov estimate H_hat = sqrt(q0) Theta(0) H + sqrt(1-q0) W_e.

    theta0 is the K x M training-time phase rotation (row k is the diagonal
    of Theta_k(0)), so all downstream aging comes from the phase drift
    accumulated over tau symbols.  The estimation noise W_e is drawn like H
    and independent of it; a realization draws it last, after the channel
    and the phase trace.  Every argument may carry leading stack axes, e.g.
    a (b, K, M) chunk of realizations.

    The estimate is written into out where given (it may be theta0) and
    returned.  W_e is scaled in place, so it holds sqrt(1-q0) W_e after the
    call, and nothing of the stack's size is allocated beyond out.  The
    product keeps its operand order, theta0 times H: under FMA, H times
    theta0 rounds differently in the last bit.
    """
    out = np.multiply(theta0, H, out=out)
    np.multiply(np.sqrt(q0), out, out=out)
    return np.add(out, np.multiply(np.sqrt(1.0 - q0), W_e, out=W_e), out=out)
