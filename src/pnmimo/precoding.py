"""RZF, ZF and MF downlink precoders as filters on the estimated Gram matrix.

Every precoder is G = H_hat^H C for a K x K coefficient matrix C, scaled so
that ||G||_F = 1; column k is the beam serving UE k and already carries
sqrt(p_k).  RZF and ZF are spectral filters d(lambda) of the Gram
H_hat H_hat^H = U diag(lambda) U^H, so one eigendecomposition serves every
regularizer and ZF:

    C = U diag(d) U^H P^1/2 / sqrt(sum_i lambda_i d_i^2 ||(U^H P^1/2)_i||^2)

with d = 1/(lambda + M alpha) for RZF and d = 1/lambda for ZF (RZF's
alpha -> 0 limit).  MF is the unfiltered conjugate, C = P^1/2 scaled by the
Gram diagonal, and needs no decomposition.
"""

from __future__ import annotations

import numpy as np

__all__ = ["precoders", "CONDITION_CAP"]

# ZF rejects an estimated channel whose Gram condition number exceeds this.
CONDITION_CAP = 1e12


def precoders(H_hat: np.ndarray, powers: np.ndarray, variants) -> list:
    """Coefficient matrices C (G = H_hat^H C) of every (kind, alpha) pair.

    variants is a sequence of pairs; alpha is the RZF regularizer and is
    ignored for ZF and MF.  Returns one
    K x K matrix per pair, in order, or None where ZF rejects the draw: the
    Gram's smallest eigenvalue is <= 0 or its condition number exceeds
    CONDITION_CAP.
    """
    K, M = H_hat.shape
    p = np.asarray(powers, dtype=float)
    sqrt_p = np.sqrt(p)
    for kind, alpha in variants:
        if kind not in ("rzf", "zf", "mf"):
            raise ValueError(f"unknown precoder kind {kind!r}")
        if kind == "rzf" and not alpha > 0:
            raise ValueError(f"alpha must be > 0, got {alpha}")
        if kind == "zf" and K > M:
            raise ValueError(f"ZF requires K <= M, got K={K}, M={M}")
    if any(kind != "mf" for kind, _ in variants):
        lam, U = np.linalg.eigh(H_hat @ H_hat.conj().T)
        UhP = U.conj().T * sqrt_p
        energy = np.sum(np.abs(UhP) ** 2, axis=1)
    out = []
    for kind, alpha in variants:
        if kind == "mf":
            gram_diag = np.sum(np.abs(H_hat) ** 2, axis=1)
            out.append(np.diag(sqrt_p / np.sqrt(np.sum(p * gram_diag))))
            continue
        if kind == "rzf":
            d = 1.0 / (lam + M * alpha)
        elif lam[0] <= 0 or lam[-1] > CONDITION_CAP * lam[0]:
            out.append(None)
            continue
        else:
            d = 1.0 / lam
        d /= np.sqrt(np.sum(lam * d ** 2 * energy))
        out.append((U * d) @ UhP)
    return out
