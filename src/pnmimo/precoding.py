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

Estimates may come stacked, (..., K, M); every step then runs once on the
whole stack.  A draw ZF rejects is a NaN slice of the ZF array, so the
other slices and variants are unaffected.
"""

from __future__ import annotations

import numpy as np

__all__ = ["precoders", "CONDITION_CAP"]

# ZF rejects an estimated channel whose Gram condition number exceeds this.
CONDITION_CAP = 1e12


def precoders(H_hat: np.ndarray, powers: np.ndarray, variants) -> list:
    """Coefficient matrices C (G = H_hat^H C) of every (kind, alpha) pair.

    H_hat is one K x M estimate or a (..., K, M) stack of them; each slice
    is treated on its own, with the same bits as a call on that slice
    alone.  variants is a sequence of pairs; alpha is the RZF regularizer
    and is ignored for ZF and MF.  Returns one (..., K, K) array per pair,
    in order.  A slice that ZF rejects, because its Gram's smallest
    eigenvalue is <= 0 or its condition number exceeds CONDITION_CAP, is
    NaN in the ZF array only.
    """
    K, M = H_hat.shape[-2:]
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
        lam, U = np.linalg.eigh(H_hat @ H_hat.conj().swapaxes(-1, -2))
        UhP = U.conj().swapaxes(-1, -2) * sqrt_p
        energy = np.sum(np.abs(UhP) ** 2, axis=-1)
    out = []
    for kind, alpha in variants:
        if kind == "mf":
            gram_diag = np.sum(np.abs(H_hat) ** 2, axis=-1)
            scale = sqrt_p / np.sqrt(np.sum(p * gram_diag, axis=-1, keepdims=True))
            out.append(scale[..., None] * np.eye(K))
            continue
        if kind == "rzf":
            d = 1.0 / (lam + M * alpha)
        else:
            lo, hi = lam[..., :1], lam[..., -1:]
            d = 1.0 / np.where((lo <= 0) | (hi > CONDITION_CAP * lo), np.nan, lam)
        d /= np.sqrt(np.sum(lam * d ** 2 * energy, axis=-1, keepdims=True))
        out.append((U * d[..., None, :]) @ UhP)
    return out
