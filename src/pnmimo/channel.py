"""Rayleigh block-fading channel generation and Gauss-Markov estimate synthesis.

Both functions take plain arrays and floats; the estimate quality q0 is
validated once, by SystemConfig.
"""

from __future__ import annotations

import numpy as np

__all__ = ["draw_channel", "synthesize_estimate"]


def draw_channel(M: int, K: int, rng: np.random.Generator) -> np.ndarray:
    """K x M matrix of i.i.d. unit-variance circularly symmetric Gaussians."""
    if M < 1 or K < 1:
        raise ValueError(f"M and K must be >= 1, got M={M}, K={K}")
    # one draw of the real parts, then the imaginary parts: the same stream
    # use and the same values as two separate K x M draws
    z = rng.standard_normal((2, K, M))
    H = np.empty((K, M), dtype=complex)
    H.real = np.sqrt(0.5) * z[0]
    H.imag = np.sqrt(0.5) * z[1]
    return H


def synthesize_estimate(H: np.ndarray, theta0: np.ndarray, q0: float,
                        W_e: np.ndarray) -> np.ndarray:
    """Gauss-Markov estimate H_hat = sqrt(q0) Theta(0) H + sqrt(1-q0) W_e.

    theta0 is the K x M training-time phase rotation (row k is the diagonal
    of Theta_k(0)), so all downstream aging comes from the phase drift
    accumulated over tau symbols.  The estimation noise W_e is a
    draw_channel draw independent of H; a realization draws it last, after
    the channel and the phase trace.  Every argument may carry leading
    stack axes, e.g. a (b, K, M) chunk of realizations.
    """
    return np.sqrt(q0) * (theta0 * H) + np.sqrt(1.0 - q0) * W_e
