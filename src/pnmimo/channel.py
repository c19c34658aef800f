"""Rayleigh block-fading channel generation and Gauss-Markov estimate synthesis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phase_noise import OscillatorTopology, PhaseTrace, theta_vector

__all__ = ["EstimateQuality", "ChannelPair", "draw_channel", "synthesize_estimate"]


@dataclass(frozen=True)
class EstimateQuality:
    """Gauss-Markov coupling coefficients of the channel estimate.

    q0 is the power fraction carried over from the true channel, q1 = 1 - q0
    the estimation-noise fraction, and q2 = sqrt(q0*q1) the cross term.
    """

    q0: float

    def __post_init__(self):
        if not 0.0 <= self.q0 <= 1.0:
            raise ValueError(f"q0 must be in [0, 1], got {self.q0}")

    @property
    def q1(self) -> float:
        return 1.0 - self.q0

    @property
    def q2(self) -> float:
        return float(np.sqrt(self.q0 * self.q1))


@dataclass
class ChannelPair:
    """True channel, its synthesized estimate, and the estimation noise.

    All three are K x M; row k of H_hat is sqrt(q0) * theta_{0,k} * h_k
    + sqrt(q1) * w_{e,k}, with W_e independent of H.
    """

    H: np.ndarray
    H_hat: np.ndarray
    estimation_noise: np.ndarray
    quality: EstimateQuality


def draw_channel(M: int, K: int, rng: np.random.Generator) -> np.ndarray:
    """K x M matrix of i.i.d. unit-variance circularly symmetric Gaussians."""
    if M < 1 or K < 1:
        raise ValueError(f"M and K must be >= 1, got M={M}, K={K}")
    scale = np.sqrt(0.5)
    return scale * (rng.standard_normal((K, M)) + 1j * rng.standard_normal((K, M)))


def synthesize_estimate(H: np.ndarray, trace: PhaseTrace, quality: EstimateQuality,
                        topology: OscillatorTopology, tau: int,
                        rng: np.random.Generator) -> ChannelPair:
    """Gauss-Markov estimate of each UE's channel as seen at training time.

    The training-time phase rotation is baked into the estimate, so all
    downstream aging comes from the phase drift accumulated over tau symbols.
    """
    K, M = H.shape
    W_e = draw_channel(M, K, rng)
    rotated = np.empty_like(H)
    for k in range(K):
        rotated[k] = theta_vector(trace, k, 0, tau, topology) * H[k]
    H_hat = np.sqrt(quality.q0) * rotated + np.sqrt(quality.q1) * W_e
    return ChannelPair(H=H, H_hat=H_hat, estimation_noise=W_e, quality=quality)
