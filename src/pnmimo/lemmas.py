"""Numerical verification oracles for the random-matrix identities the SINR
analysis rests on.

Two kinds of checks live here: exact algebraic identities (matrix inversion,
resolvent) that must hold to solver precision on every draw, and asymptotic
concentration results (trace lemma, rank-1 perturbation, trace
factorization, phase-rotated quadratic forms) whose empirical error must
decay with matrix size at the predicted log-log slope.

"Freely independent" pairs are realized concretely as (Wishart-derived
matrix, independent block-constant diagonal phase matrix) — the only pairing
the SINR derivation needs — rather than via general free-probability
machinery.  The sizes and oscillator counts are checked once, by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ConvergenceRecord", "check_matrix_inversion_identity",
           "check_resolvent_identity", "check_trace_lemma",
           "check_rank1_perturbation", "check_free_probability_traces",
           "check_quadratic_form_identities", "block_phase_diag",
           "convergence_to_csv"]


@dataclass
class ConvergenceRecord:
    """Median absolute deviations of one identity across matrix sizes."""

    name: str
    M_values: list[int]
    errors: list[float]
    slope: float

    def __post_init__(self):
        if any(e <= 0 for e in self.errors):
            raise ValueError("errors must be positive")


def _fit_slope(M_values, errors) -> float:
    return float(np.polyfit(np.log(M_values), np.log(errors), 1)[0])


def _record(name, M_values, per_size_errors) -> ConvergenceRecord:
    med = [float(np.median(e)) for e in per_size_errors]
    return ConvergenceRecord(name, list(M_values), med, _fit_slope(M_values, med))


def _gaussian_vec(M, rng, scale):
    z = rng.standard_normal((2, M))  # the real parts, then the imaginary parts
    z *= np.sqrt(scale / 2.0)
    out = np.empty(M, dtype=complex)
    out.real, out.imag = z
    return out


def _random_spd(M, rng):
    B = _gaussian_vec(M * M, rng, 1.0).reshape(M, M)
    S = B @ B.conj().T
    S /= M
    S.flat[::M + 1] += 1.0
    return S


def _random_spd_from_parts(M, rng):
    """_random_spd's matrix B B^H / M + I from the same draws, without the
    complex product: with B = (Zr + j Zi) / sqrt(2), the real part is
    (Zr Zr^T + Zi Zi^T) / (2M) + I and the imaginary part (Y - Y^T) / (2M),
    Y = Zi Zr^T.  It agrees with _random_spd to rounding."""
    Zr, Zi = rng.standard_normal((2, M, M))
    G = Zr @ Zr.T  # X @ X.T takes BLAS's symmetric product
    G += Zi @ Zi.T
    G /= 2.0 * M
    G.flat[::M + 1] += 1.0
    S = np.empty((M, M), dtype=complex)
    S.real = G
    Y = Zi @ Zr.T
    np.subtract(Y, Y.T, out=S.imag)
    S.imag /= 2.0 * M
    return S


def _wishart_resolvent(lam, F, a, Z):
    """(H^H H / M + a I)^{-1} Z from the eigenpairs (lam, W) of the K x K
    Gram H H^H / M, with F = W^H H: the inverse is I / a except on the K
    directions that the rows of F span."""
    M = F.shape[1]
    return Z / a - F.conj().T @ ((F @ Z) / (M * a * (lam + a))[:, None])


def block_phase_diag(M: int, M_osc: int, rng: np.random.Generator) -> np.ndarray:
    """Diagonal of a unitary block-constant phase matrix (M_osc blocks)."""
    phases = rng.uniform(0.0, 2.0 * np.pi, size=M_osc)
    return np.exp(1j * np.repeat(phases, M // M_osc))


def check_matrix_inversion_identity(M: int, rng: np.random.Generator,
                                    n_trials: int = 20) -> float:
    """h^H (U + q h h^H)^{-1} = h^H U^{-1} / (1 + q h^H U^{-1} h), exactly.

    Draws with a near-singular update (denominator below 1e-6) are resampled.
    Returns the maximum absolute deviation over all trials.
    """
    worst = 0.0
    for _ in range(n_trials):
        while True:
            U = _random_spd(M, rng)
            h = _gaussian_vec(M, rng, 1.0)
            q = float(rng.normal())
            denom = 1.0 + q * np.real(h.conj() @ np.linalg.solve(U, h))
            if abs(denom) > 1e-6:
                break
        lhs = h.conj() @ np.linalg.inv(U + q * np.outer(h, h.conj()))
        rhs = (h.conj() @ np.linalg.inv(U)) / denom
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def check_resolvent_identity(M: int, rng: np.random.Generator,
                             n_trials: int = 20) -> float:
    """U^{-1} - V^{-1} = -U^{-1}(U - V)V^{-1} for invertible pairs."""
    worst = 0.0
    for _ in range(n_trials):
        U = _random_spd(M, rng)
        V = _random_spd(M, rng)
        Ui, Vi = np.linalg.inv(U), np.linalg.inv(V)
        worst = max(worst, float(np.max(np.abs((Ui - Vi) + Ui @ (U - V) @ Vi))))
    return worst


def check_trace_lemma(M_values, rng: np.random.Generator,
                      n_trials: int = 200) -> ConvergenceRecord:
    """|x^H A x - tr(A)/M| and |x^H A w| vanish at the 1/sqrt(M) rate.

    A = B B^H / M + I is never formed.  B is drawn as _random_spd draws it,
    then every trial's (x, w) in one call, and one product B^H [x w ...]
    gives x^H A x = ||B^H x||^2 / M + ||x||^2, x^H A w = (B^H x)^H (B^H w) / M
    + x^H w and tr(A)/M = ||B||_F^2 / M^2 + 1.
    """
    per_size = []
    for M in M_values:
        B = _gaussian_vec(M * M, rng, 1.0).reshape(M, M)
        tr = np.vdot(B, B).real / M ** 2 + 1.0
        # z[t, 0] and z[t, 1] are trial t's x and w as (real, imaginary) rows,
        # the stream use of 2 n_trials _gaussian_vec(M, rng, 1 / M) calls
        z = rng.standard_normal((n_trials, 2, 2, M))
        z *= np.sqrt(1.0 / M / 2.0)
        xw = np.empty((n_trials, 2, M), dtype=complex)
        xw.real, xw.imag = z[:, :, 0], z[:, :, 1]
        x, w = xw[:, 0], xw[:, 1]
        # rows (B^H x)^* and (B^H w)^*, from one (2 n_trials) x M product
        r = (xw.conj().reshape(-1, M) @ B).reshape(n_trials, 2, M)
        xAx = (np.sum(np.abs(r[:, 0]) ** 2, axis=1) / M
               + np.sum(np.abs(x) ** 2, axis=1))
        xAw = (np.sum(r[:, 0] * r[:, 1].conj(), axis=1) / M
               + np.sum(x.conj() * w, axis=1))
        per_size.append(np.maximum(np.abs(xAx - tr), np.abs(xAw)))
    return _record("trace_lemma", M_values, per_size)


def check_rank1_perturbation(M_values, rng: np.random.Generator,
                             n_trials: int = 100) -> ConvergenceRecord:
    """Normalized trace gap from a rank-1 update of a regularized matrix.

    The gap (1/M)|tr A[(U + I + q h h^H)^{-1} - (U + I)^{-1}]| decays like
    1/M.  By Sherman-Morrison, with S = U + I and y = S^{-1} h, the gap is
    q y^H A y / (M |1 + q h^H y|).  S is _random_spd's matrix, formed from
    real products by _random_spd_from_parts.  A = C C^H / M + I is never
    formed: its factor C is drawn as _random_spd draws it, and y^H A y =
    ||C^H y||^2 / M + ||y||^2.

    A gap above the Rayleigh quotient of y over M, (y^H A y / ||y||^2) / M,
    raises FloatingPointError.  That bound is at most ||A||_2 / M, so every
    draw it passes also passes the ||A||_2 / M bound of the lemma.  In exact
    arithmetic the test reads q ||y||^2 <= |1 + q h^H y|, and h^H y =
    y^H S y >= ||y||^2 leaves a margin of at least 1, so rounding cannot trip
    it; only a wrong solve or quadratic form can.
    """
    per_size = []
    for M in M_values:
        errs = np.empty(n_trials)
        for t in range(n_trials):
            S = _random_spd_from_parts(M, rng)  # U + I
            C = _gaussian_vec(M * M, rng, 1.0).reshape(M, M)
            h = _gaussian_vec(M, rng, 1.0)
            q = abs(float(rng.normal())) + 0.1
            y = np.linalg.solve(S, h)
            Chy = y.conj() @ C  # (C^H y)^*, the same norm as C^H y
            yy = np.vdot(y, y).real
            yAy = np.vdot(Chy, Chy).real / M + yy
            gap = q * yAy / (M * abs(1.0 + q * (h.conj() @ y)))
            bound = yAy / yy / M
            if gap > bound * (1 + 1e-10):
                raise FloatingPointError(
                    f"rank-1 trace gap {gap} exceeds bound {bound} at M={M}")
            errs[t] = gap
        per_size.append(errs)
    return _record("rank1_perturbation", M_values, per_size)


def check_free_probability_traces(M_values, rng: np.random.Generator,
                                  n_trials: int = 100) -> ConvergenceRecord:
    """tr(UV)/M factorizes into (tr U/M)(tr V/M) for a Wishart resolvent U and
    an independent diagonal phase matrix V, one oscillator per antenna.

    Only diag(U) is needed; by Woodbury it is 2 - 2 sum_k conj(H) * (S^{-1} H)
    with the K x K matrix S = H H^H + (M/2) I.
    """
    per_size = []
    for M in M_values:
        K = max(M // 4, 1)
        errs = np.empty(n_trials)
        for t in range(n_trials):
            H = _gaussian_vec(K * M, rng, 1.0).reshape(K, M)
            S = H @ H.conj().T + 0.5 * M * np.eye(K)
            u = 2.0 - 2.0 * np.sum(H.conj() * np.linalg.solve(S, H), axis=0)
            v = block_phase_diag(M, M, rng)
            errs[t] = abs(u @ v / M - u.mean() * v.mean())
        per_size.append(errs)
    return _record("free_probability_traces", M_values, per_size)


def check_quadratic_form_identities(M: int, q0: float, rng: np.random.Generator,
                                    n_trials: int = 100, M_osc: int = 5) -> np.ndarray:
    """Phase-rotated quadratic forms against their three deterministic limits.

    With A = H^H H / M + alpha I and U = (H^H H / M + 2 alpha I)^{-1} at
    alpha = 1/2, V = (A + q0 xx^H + q1 ww^H + q2 xw^H + q2 wx^H)^{-1}, N a
    unitary block-phase diagonal independent of A, and t1 = tr(A^{-1})/M,
    t2 = tr(U A^{-1})/M, the targets are
      x^H N U V N^H x  ->  t2 - q0 t1 t2 |tr N / M|^2 / (1 + t1)
      x^H U V N^H x    ->  t2 (1 + q1 t1) / (1 + t1) * tr(N^H)/M
      w^H U V N^H x    ->  -q2 t1 t2 / (1 + t1) * tr(N^H)/M
    A and U share the eigenvectors of H^H H / M, so one eigendecomposition of
    the K x K Gram H H^H / M gives t1, t2 and every product with A^{-1} or U.
    Returns the median absolute deviation of each identity.
    """
    K = M // 4
    alpha = 0.5
    q1 = 1.0 - q0
    q2 = np.sqrt(q0 * q1)
    devs = np.empty((n_trials, 3))
    for t in range(n_trials):
        H = _gaussian_vec(K * M, rng, 1.0).reshape(K, M)
        x = _gaussian_vec(M, rng, 1.0 / M)
        w = _gaussian_vec(M, rng, 1.0 / M)
        n = block_phase_diag(M, M_osc, rng)
        lam, W = np.linalg.eigh(H @ H.conj().T / M)
        F = W.conj().T @ H
        t1 = ((M - K) / alpha + np.sum(1.0 / (lam + alpha))) / M
        t2 = ((M - K) / (2.0 * alpha ** 2)
              + np.sum(1.0 / ((lam + alpha) * (lam + 2.0 * alpha)))) / M
        trn = n.mean()
        # the update is v v^H with v = sqrt(q0) x + sqrt(q1) w, as q2^2 = q0 q1,
        # so V N^H x is one Sherman-Morrison step from A^{-1}
        v = np.sqrt(q0) * x + np.sqrt(q1) * w
        nhx = np.conj(n) * x
        Ai_nhx, Ai_v = _wishart_resolvent(lam, F, alpha, np.stack([nhx, v], 1)).T
        VNhx = Ai_nhx - Ai_v * (v.conj() @ Ai_nhx) / (1.0 + v.conj() @ Ai_v)
        # U is Hermitian: z^H U V N^H x = (U z)^H V N^H x
        forms = _wishart_resolvent(lam, F, 2.0 * alpha,
                                   np.stack([nhx, x, w], 1)).conj().T @ VNhx
        targets = np.array([t2 - q0 * t1 * t2 * abs(trn) ** 2 / (1.0 + t1),
                            t2 * (1.0 + q1 * t1) / (1.0 + t1) * np.conj(trn),
                            (-q2 * t1 * t2) / (1.0 + t1) * np.conj(trn)])
        devs[t] = np.abs(forms - targets)
    return np.median(devs, axis=0)


def convergence_to_csv(records: list[ConvergenceRecord]) -> str:
    """Serialize convergence records as CSV text for plotting."""
    lines = ["name,M,median_error,slope"]
    for rec in records:
        for M, err in zip(rec.M_values, rec.errors):
            lines.append(f"{rec.name},{M},{err!r},{rec.slope!r}")
    return "\n".join(lines) + "\n"
