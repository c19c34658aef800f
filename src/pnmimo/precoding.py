"""RZF, ZF, and MF downlink precoders with exact empirical power normalization.

Every builder returns an M x K matrix G with trace(G^H G) = 1; column k is
the beam serving UE k and already carries sqrt(p_k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

__all__ = ["PrecoderMatrix", "SingularChannelError", "build_rzf", "build_zf",
           "build_mf", "CONDITION_CAP"]

# ZF rejects an estimated channel whose Gram condition number exceeds this.
CONDITION_CAP = 1e12


class SingularChannelError(RuntimeError):
    """Raised when the estimated channel's Gram matrix fails the condition cap."""


@dataclass
class PrecoderMatrix:
    """Normalized precoder and the applied scalar."""

    G: np.ndarray
    xi_empirical: float


def _normalize(raw: np.ndarray) -> PrecoderMatrix:
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        raise SingularChannelError("precoder collapsed to zero")
    xi = 1.0 / norm
    return PrecoderMatrix(G=raw * xi, xi_empirical=xi)


def build_rzf(H_hat: np.ndarray, alpha: float, powers: np.ndarray) -> PrecoderMatrix:
    """Regularized zero-forcing beams.

    Computed through the K x K Gram system H_hat H_hat^H + M*alpha*I rather
    than the M x M form; the two are algebraically identical and the small
    system costs O(K^2 M).
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    K, M = H_hat.shape
    gram = H_hat @ H_hat.conj().T + (M * alpha) * np.eye(K)
    sol = cho_solve(cho_factor(gram), np.diag(np.sqrt(np.asarray(powers, dtype=float))))
    return _normalize(H_hat.conj().T @ sol)


def build_zf(H_hat: np.ndarray, powers: np.ndarray) -> PrecoderMatrix:
    """Zero-forcing beams: exact interference nulling on the estimated channel."""
    K, M = H_hat.shape
    if K > M:
        raise ValueError(f"ZF requires K <= M, got K={K}, M={M}")
    gram = H_hat @ H_hat.conj().T
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > CONDITION_CAP:
        raise SingularChannelError(
            f"estimated-channel Gram condition number {cond:.3e} exceeds cap {CONDITION_CAP:.1e}"
        )
    sol = np.linalg.solve(gram, np.diag(np.sqrt(np.asarray(powers, dtype=float))))
    return _normalize(H_hat.conj().T @ sol)


def build_mf(H_hat: np.ndarray, powers: np.ndarray) -> PrecoderMatrix:
    """Matched-filter (conjugate) beams proportional to the estimate itself."""
    return _normalize(H_hat.conj().T * np.sqrt(np.asarray(powers, dtype=float)))
