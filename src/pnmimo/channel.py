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
    scale = np.sqrt(0.5)
    return scale * (rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M)))


def synthesize_estimate(H: np.ndarray, theta0: np.ndarray, q0: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Gauss-Markov estimate H_hat = sqrt(q0) Theta(0) H + sqrt(1-q0) W_e.

    theta0 is the K x M training-time phase rotation (row k is the diagonal
    of Theta_k(0)), so all downstream aging comes from the phase drift
    accumulated over tau symbols.  The estimation noise W_e is drawn from
    rng after everything else and is independent of H.
    """
    K, M = H.shape
    W_e = draw_channel(M, K, rng)
    return np.sqrt(q0) * (theta0 * H) + np.sqrt(1.0 - q0) * W_e
