"""RZF, ZF and MF downlink precoders as filters on the estimated Gram matrix.

Every precoder is G = H_hat^H C for a K x K coefficient matrix C, scaled so
that ||G||_F = 1; column k is the beam serving UE k and already carries
sqrt(p_k).  RZF and ZF are spectral filters d(lambda) of the Gram
H_hat H_hat^H = U diag(lambda) U^H, so one eigendecomposition serves every
regularizer and ZF:

    C = U diag(d) U^H P^1/2 / sqrt(sum_i lambda_i d_i^2 ||(U^H P^1/2)_i||^2)

with d = 1/(lambda + M alpha) for RZF and d = 1/lambda for ZF (RZF's
alpha -> 0 limit).  MF is the unfiltered conjugate, C = P^1/2 scaled by the
Gram diagonal, and needs no decomposition.  SystemConfig enforces once
that RZF's alpha > 0 and ZF's K <= M.

A caller that only reads C through a few rows L (the Monte-Carlo kernel
reads one: the observed UE's row seen through H_hat^H) passes them as
`left` and gets L C, computed as ((L U) diag(d)) (U^H P^1/2) for RZF and ZF
and as L times MF's diagonal, so no K x K coefficient matrix is formed.

Estimates may come stacked, (..., K, M); every step then runs once on the
whole stack.  The RZF alphas of one call form a leading axis of their own:
d for all of them comes from one broadcast, followed by one normalization
and one batched product, and each slice keeps the bits of a call with that
alpha alone.  A draw ZF rejects is a NaN slice of the ZF array, so the
other slices and variants are unaffected.
"""

from __future__ import annotations

import numpy as np

__all__ = ["precoders", "CONDITION_CAP"]

# ZF rejects an estimated channel whose Gram condition number exceeds this.
CONDITION_CAP = 1e12


def precoders(H_hat: np.ndarray, powers: np.ndarray, variants, left=None) -> list:
    """L C of every (kind, alpha) pair, for the coefficient matrices C
    (G = H_hat^H C) and rows L = left; C itself where left is None.

    H_hat is one K x M estimate or a (..., K, M) stack of them; each slice
    is treated on its own, with the same bits as a call on that slice
    alone.  left is None or an (..., R, K) array that broadcasts against
    the stack.  variants is a sequence of pairs; alpha is the RZF
    regularizer and is ignored for ZF and MF.  Returns one (..., K, K)
    array, or (..., R, K) with left, per pair, in order.  A slice that ZF
    rejects, because its Gram's smallest eigenvalue is <= 0 or its
    condition number exceeds CONDITION_CAP, is NaN in the ZF array only.
    """
    K, M = H_hat.shape[-2:]
    p = np.asarray(powers, dtype=float)
    sqrt_p = np.sqrt(p)
    if any(kind != "mf" for kind, _ in variants):
        lam, U = np.linalg.eigh(H_hat @ H_hat.conj().swapaxes(-1, -2))
        UhP = U.conj().swapaxes(-1, -2) * sqrt_p
        energy = np.sum(np.abs(UhP) ** 2, axis=-1)
        LU = U if left is None else left @ U

    def filtered(d):
        d /= np.sqrt(np.sum(lam * d ** 2 * energy, axis=-1, keepdims=True))
        return (LU * d[..., None, :]) @ UhP

    alphas = np.array([alpha for kind, alpha in variants if kind == "rzf"], dtype=float)
    rzf = iter(filtered(1.0 / np.add.outer(M * alphas, lam)) if alphas.size else ())
    out = []
    for kind, alpha in variants:
        if kind == "mf":
            gram_diag = np.sum(np.abs(H_hat) ** 2, axis=-1)
            scale = sqrt_p / np.sqrt(np.sum(p * gram_diag, axis=-1, keepdims=True))
            out.append((np.eye(K) if left is None else left) * scale[..., None, :])
        elif kind == "rzf":
            out.append(next(rzf))
        else:
            lo, hi = lam[..., :1], lam[..., -1:]
            out.append(filtered(1.0 / np.where((lo <= 0) | (hi > CONDITION_CAP * lo),
                                               np.nan, lam)))
    return out
