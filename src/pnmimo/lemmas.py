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
machinery.  The sizes and oscillator counts are checked once, by the CLI,
which also calls check_lab_size, the memory gate, before any check runs.
Each check holds one matrix size at a time.  Complex normals are staged
through one real buffer of at most _PIECE normals (_gaussian_vec), and U + I
is built in one real M x M workspace over normals it spends (_spd), so the
rank-1 check, the largest, holds 72 M^2 bytes at size M and the trace lemma
16 M^2, each with one piece.

Every check's BLAS work runs at one OpenBLAS thread (config.blas_threads),
so its results do not depend on the machine's core count.  The checks with
independent trials run them on two worker threads (config.workers,
_trials): the calling thread makes every draw in the order of a serial
loop and the workers compute, so every value and the generator's final
state are those of the serial loop at one BLAS thread.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .config import blas_threads, check_buffer, workers
from .phase_noise import theta_vector

__all__ = ["ConvergenceRecord", "check_matrix_inversion_identity",
           "check_resolvent_identity", "check_trace_lemma",
           "check_rank1_perturbation", "check_free_probability_traces",
           "check_quadratic_form_identities", "convergence_to_csv",
           "check_lab_size"]


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


def check_lab_size(M_values, n_trials: int, sizes: str) -> None:
    """Raise ConfigError naming sizes (the text that gave M_values) or
    trials when the checks at M_values with n_trials trials would hold more
    than fits in memory at once (config.check_buffer).  The byte counts
    bound tracemalloc's peak of the rank-1 check and the trace lemma
    (tests/test_cli.py)."""
    top = max(M_values)
    # at the largest size M: the rank-1 check's workspaces ((2, M, M)
    # float64 normals Z, complex C and S, real Y: 56 M^2 bytes) with numpy's
    # complex copy of S in each solve and the piece of _PIECE float64
    # normals that stages C's; the trace lemma's B (16 M^2 bytes) with the
    # piece that stages its normals and, per trial, four times 32 M bytes
    # (the float64 normals of (x, w), the complex pair, the product r, and
    # the pair's conjugate or two (M,) complex temporaries of a reduction),
    # 8 bytes per size of results, and numpy's reduction buffer (8192
    # complex)
    check_buffer("sizes", sizes, 72 * top * top + 8 * _PIECE)
    check_buffer("trials", n_trials,
                 16 * top * top + 8 * _PIECE
                 + n_trials * (128 * top + 8 * len(M_values)) + 131072)


# The most real normals _gaussian_vec stages at once (512 KB).
_PIECE = 1 << 16

# Trials submitted and not yet collected in _trials: enough to keep both
# workers busy while the calling thread draws, few enough to bound memory.
_IN_FLIGHT = 4


def _trials(pool, compute, draws, out: np.ndarray) -> np.ndarray:
    """out[t] = compute(*args) for the t-th args the generator draws yields.

    This thread runs draws, so every draw is made here in the serial order;
    compute, which must draw nothing, runs on the pool, with at most
    _IN_FLIGHT trials submitted and not yet collected.  Each result is
    written at its own trial index.  A compute that raises is raised here."""
    pending = deque()
    for t, args in enumerate(draws):
        if len(pending) == _IN_FLIGHT:
            i, result = pending.popleft()
            out[i] = result.result()
        pending.append((t, pool.submit(compute, *args)))
    for i, result in pending:
        out[i] = result.result()
    return out


def _gaussian_vec(N, rng, scale, out=None, z=None):
    """N complex normals of variance scale, drawn as the real parts, then
    the imaginary parts, through the real buffer z of at most _PIECE
    normals: each piece is drawn into z, scaled and written into out.real
    or out.imag.  Consecutive draws into z use the stream as one (2, N)
    draw does, so no (2, N) array of normals is ever held.  Given the
    workspaces out (N complex) and z, they are filled in place."""
    if out is None:
        out = np.empty(N, dtype=complex)
    if z is None:
        z = np.empty(max(1, min(N, _PIECE)))
    s = np.sqrt(scale / 2.0)
    for part in (out.real, out.imag):
        for i in range(0, N, len(z)):
            piece = z[:N - i]
            rng.standard_normal(out=piece)
            piece *= s
            part[i:i + len(piece)] = piece
    return out


def _spd(Z, work=None):
    """B B^H / M + I for B = (Zr + j Zi) / sqrt(2), from the (2, M, M)
    normals Z = (Zr, Zi), without the complex product: the real part is
    (Zr Zr^T + Zi Zi^T) / (2M) + I and the imaginary part (Y - Y^T) / (2M),
    Y = Zi Zr^T.  Draws nothing; Z drawn as rng.standard_normal((2, M, M))
    uses the stream as _gaussian_vec(M * M, rng, 1.0) does.

    Z is spent: Zi Zi^T is written over Zr once Zr has been read.  work
    holds the M x M workspaces (Y, S), Y real and S complex; S is built in
    place and returned.  Without it both are new."""
    Zr, Zi = Z
    M = Zr.shape[0]
    Y, S = work or (np.empty((M, M)), np.empty((M, M), dtype=complex))
    np.matmul(Zi, Zr.T, out=Y)
    np.subtract(Y, Y.T, out=S.imag)
    S.imag /= 2.0 * M
    np.matmul(Zr, Zr.T, out=Y)  # X @ X.T takes BLAS's symmetric product
    Y += np.matmul(Zi, Zi.T, out=Zr)
    Y /= 2.0 * M
    Y.flat[::M + 1] += 1.0
    S.real = Y
    return S


def _wishart_resolvent(lam, W, H, a, Z):
    """(H^H H / M + a I)^{-1} Z from the eigenpairs (lam, W) of the K x K
    Gram H H^H / M: the inverse is I / a except on the K directions that the
    rows of W^H H span.  W^H H is never formed; Z's few columns meet H and W
    one product at a time."""
    M = H.shape[1]
    Y = np.conj(W.T @ np.conj(H @ Z)) / (M * a * (lam + a))[:, None]  # W^H H Z, scaled
    return Z / a - np.conj(H.T @ np.conj(W @ Y))  # H^H W Y


def check_matrix_inversion_identity(M: int, rng: np.random.Generator,
                                    n_trials: int = 20) -> float:
    """h^H (U + q h h^H)^{-1} = h^H U^{-1} / (1 + q h^H U^{-1} h), exactly.

    Draws with a near-singular update (denominator below 1e-6) are resampled.
    Returns the maximum absolute deviation over all trials.
    """
    worst = 0.0
    with blas_threads():
        for _ in range(n_trials):
            while True:
                U = _spd(rng.standard_normal((2, M, M)))
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
    """U^{-1} - V^{-1} = -U^{-1}(U - V)V^{-1} for invertible pairs.

    Returns the maximum absolute deviation over all trials; a NaN deviation
    makes it NaN.  Each trial draws the (2, M, M) normals of U, then those
    of V; the workers build (_spd) and invert both.
    """
    draws = ((rng.standard_normal((2, M, M)), rng.standard_normal((2, M, M)))
             for _ in range(n_trials))
    with workers(2) as pool:
        return float(np.max(_trials(pool, _resolvent_gap, draws, np.empty(n_trials))))


def _resolvent_gap(Zu, Zv) -> float:
    U, V = _spd(Zu), _spd(Zv)
    Ui, Vi = np.linalg.inv(U), np.linalg.inv(V)
    return np.max(np.abs((Ui - Vi) + Ui @ (U - V) @ Vi))


def check_trace_lemma(M_values, rng: np.random.Generator,
                      n_trials: int = 200) -> ConvergenceRecord:
    """|x^H A x - tr(A)/M| and |x^H A w| vanish at the 1/sqrt(M) rate.

    A = B B^H / M + I is never formed.  Each size draws B as
    _gaussian_vec(M * M, rng, 1.0), then every trial's (x, w) in one call,
    and one product B^H [x w ...] gives x^H A x = ||B^H x||^2 / M + ||x||^2,
    x^H A w = (B^H x)^H (B^H w) / M + x^H w and tr(A)/M = ||B||_F^2 / M^2 + 1.
    B and the trials' arrays are drawn inside the _trace_gaps call that reads
    them, so no size's arrays outlive that size.
    """
    with blas_threads():
        # z[t, 0] and z[t, 1] are trial t's x and w as (real, imaginary)
        # rows, the stream use of 2 n_trials _gaussian_vec(M, rng, 1 / M) calls
        per_size = [_trace_gaps(_gaussian_vec(M * M, rng, 1.0).reshape(M, M),
                                rng.standard_normal((n_trials, 2, 2, M)))
                    for M in M_values]
    return _record("trace_lemma", M_values, per_size)


def _trace_gaps(B: np.ndarray, z: np.ndarray) -> np.ndarray:
    """max(|x^H A x - tr(A)/M|, |x^H A w|) per trial, for A = B B^H / M + I
    and trial t's (x, w) from the (real, imaginary) normals z[t]."""
    M = len(B)
    tr = np.vdot(B, B).real / M ** 2 + 1.0
    z *= np.sqrt(1.0 / M / 2.0)
    xw = np.empty(z.shape[:2] + (M,), dtype=complex)
    xw.real, xw.imag = z[:, :, 0], z[:, :, 1]
    x, w = xw[:, 0], xw[:, 1]
    # rows (B^H x)^* and (B^H w)^*, from one (2 n_trials) x M product
    r = (xw.conj().reshape(-1, M) @ B).reshape(xw.shape)
    xAx = (np.sum(np.abs(r[:, 0]) ** 2, axis=1) / M
           + np.sum(np.abs(x) ** 2, axis=1))
    xAw = (np.sum(r[:, 0] * r[:, 1].conj(), axis=1) / M
           + np.sum(x.conj() * w, axis=1))
    return np.maximum(np.abs(xAx - tr), np.abs(xAw))


def check_rank1_perturbation(M_values, rng: np.random.Generator,
                             n_trials: int = 100) -> ConvergenceRecord:
    """Normalized trace gap from a rank-1 update of a regularized matrix.

    The gap (1/M)|tr A[(U + I + q h h^H)^{-1} - (U + I)^{-1}]| decays like
    1/M.  By Sherman-Morrison, with S = U + I and y = S^{-1} h, the gap is
    q y^H A y / (M |1 + q h^H y|), S built by _spd from one (2, M, M)
    normal draw.  A = C C^H / M + I is never formed: its factor C is drawn
    as _gaussian_vec(M * M, rng, 1.0), and y^H A y = ||C^H y||^2 / M + ||y||^2.

    A gap above the Rayleigh quotient of y over M, (y^H A y / ||y||^2) / M,
    raises FloatingPointError.  That bound is at most ||A||_2 / M, so every
    draw it passes also passes the ||A||_2 / M bound of the lemma.  In exact
    arithmetic the test reads q ||y||^2 <= |1 + q h^H y|, and h^H y =
    y^H S y >= ||y||^2 leaves a margin of at least 1, so rounding cannot trip
    it; only a wrong solve or quadratic form can.

    One worker builds S from its normals and solves for y while this thread
    makes every draw, in the order of a serial loop: C, h and q while S is
    built, and the next trial's S normals during the solve.  Only the draws
    touch rng, so the errors and rng's final state are those of the serial
    loop.  Each size's M x M arrays live in workspaces of that size, reused
    by all its trials (_rank1_gaps).
    """
    with workers(2) as pool:
        per_size = [_rank1_gaps(M, rng, n_trials, pool) for M in M_values]
    return _record("rank1_perturbation", M_values, per_size)


def _rank1_gaps(M, rng, n_trials, pool) -> np.ndarray:
    """check_rank1_perturbation's n_trials gaps at size M.  Its workspaces
    are allocated once and refilled at every trial, each only after its last
    reader has returned: the (2, M, M) normals Z, which _spd spends, once S
    is built; _spd's real Y and complex S once the solve has returned; C and
    the piece zc that stages C's normals once this thread has read them.
    With numpy's copy of S in the solve, that is 72 M^2 bytes and one piece
    (check_lab_size)."""
    Z = rng.standard_normal((2, M, M))  # the normals of the first trial's S
    zc, c = np.empty(min(M * M, _PIECE)), np.empty(M * M, dtype=complex)  # a piece, C
    C = c.reshape(M, M)
    spd_work = (np.empty((M, M)), np.empty((M, M), dtype=complex))
    errs = np.empty(n_trials)
    for t in range(n_trials):
        S = pool.submit(_spd, Z, spd_work)  # U + I
        _gaussian_vec(M * M, rng, 1.0, c, zc)  # C
        h = _gaussian_vec(M, rng, 1.0)
        q = abs(float(rng.normal())) + 0.1
        y = pool.submit(np.linalg.solve, S.result(), h)
        if t + 1 < n_trials:
            rng.standard_normal(out=Z)  # S is built, so Z is free
        y = y.result()  # and after the solve, the S workspace
        Chy = y.conj() @ C  # (C^H y)^*, the same norm as C^H y
        yy = np.vdot(y, y).real
        yAy = np.vdot(Chy, Chy).real / M + yy
        gap = q * yAy / (M * abs(1.0 + q * (h.conj() @ y)))
        bound = yAy / yy / M
        if gap > bound * (1 + 1e-10):
            raise FloatingPointError(
                f"rank-1 trace gap {gap} exceeds bound {bound} at M={M}")
        errs[t] = gap
    return errs


def check_free_probability_traces(M_values, rng: np.random.Generator,
                                  n_trials: int = 100) -> ConvergenceRecord:
    """tr(UV)/M factorizes into (tr U/M)(tr V/M) for a Wishart resolvent U and
    an independent diagonal phase matrix V, one oscillator per antenna.

    Only diag(U) is needed; by Woodbury it is 2 - 2 sum_k conj(H) * (S^{-1} H)
    with the K x K matrix S = H H^H + (M/2) I.
    """
    per_size = []
    with workers(2) as pool:
        for M in M_values:
            per_size.append(_trials(pool, _free_probability_gap,
                                    _free_probability_draws(M, rng, n_trials),
                                    np.empty(n_trials)))
    return _record("free_probability_traces", M_values, per_size)


def _free_probability_draws(M, rng, n_trials):
    """Each trial's H and its M oscillator phases, in stream order."""
    K = max(M // 4, 1)
    for _ in range(n_trials):
        H = _gaussian_vec(K * M, rng, 1.0).reshape(K, M)
        yield H, rng.uniform(0.0, 2.0 * np.pi, M)


def _free_probability_gap(H, phases) -> float:
    K, M = H.shape
    S = H @ H.conj().T + 0.5 * M * np.eye(K)
    u = 2.0 - 2.0 * np.sum(H.conj() * np.linalg.solve(S, H), axis=0)
    v = theta_vector(0.0, phases, M)
    return abs(u @ v / M - u.mean() * v.mean())


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
    Returns the median absolute deviation of each identity.  An M_osc
    that does not divide M raises ValueError before any draw.
    """
    if not 1 <= M_osc <= M or M % M_osc:
        raise ValueError(f"M_osc: must divide M with 1 <= M_osc <= M, "
                         f"got M_osc={M_osc}, M={M}")
    with workers(2) as pool:
        devs = _trials(pool, functools.partial(_quadratic_form_devs, q0),
                       _quadratic_form_draws(M, rng, n_trials, M_osc),
                       np.empty((n_trials, 3)))
    return np.median(devs, axis=0)


def _quadratic_form_draws(M, rng, n_trials, M_osc):
    """Each trial's H, x, w and M_osc oscillator phases, in stream order."""
    K = M // 4
    for _ in range(n_trials):
        H = _gaussian_vec(K * M, rng, 1.0).reshape(K, M)
        x = _gaussian_vec(M, rng, 1.0 / M)
        w = _gaussian_vec(M, rng, 1.0 / M)
        yield H, x, w, rng.uniform(0.0, 2.0 * np.pi, M_osc)


def _quadratic_form_devs(q0, H, x, w, phases) -> np.ndarray:
    K, M = H.shape
    alpha = 0.5
    q1 = 1.0 - q0
    q2 = np.sqrt(q0 * q1)
    n = theta_vector(0.0, phases, M)
    lam, W = np.linalg.eigh(H @ H.conj().T / M)
    t1 = ((M - K) / alpha + np.sum(1.0 / (lam + alpha))) / M
    t2 = ((M - K) / (2.0 * alpha ** 2)
          + np.sum(1.0 / ((lam + alpha) * (lam + 2.0 * alpha)))) / M
    trn = n.mean()
    # the update is v v^H with v = sqrt(q0) x + sqrt(q1) w, as q2^2 = q0 q1,
    # so V N^H x is one Sherman-Morrison step from A^{-1}
    v = np.sqrt(q0) * x + np.sqrt(q1) * w
    nhx = np.conj(n) * x
    Ai_nhx, Ai_v = _wishart_resolvent(lam, W, H, alpha, np.stack([nhx, v], 1)).T
    VNhx = Ai_nhx - Ai_v * (v.conj() @ Ai_nhx) / (1.0 + v.conj() @ Ai_v)
    # U is Hermitian: z^H U V N^H x = (U z)^H V N^H x
    forms = _wishart_resolvent(lam, W, H, 2.0 * alpha,
                               np.stack([nhx, x, w], 1)).conj().T @ VNhx
    targets = np.array([t2 - q0 * t1 * t2 * abs(trn) ** 2 / (1.0 + t1),
                        t2 * (1.0 + q1 * t1) / (1.0 + t1) * np.conj(trn),
                        (-q2 * t1 * t2) / (1.0 + t1) * np.conj(trn)])
    return np.abs(forms - targets)


def convergence_to_csv(records: list[ConvergenceRecord]) -> str:
    """Serialize convergence records as CSV text for plotting."""
    lines = ["name,M,median_error,slope"]
    for rec in records:
        for M, err in zip(rec.M_values, rec.errors):
            lines.append(f"{rec.name},{M},{err!r},{rec.slope!r}")
    return "\n".join(lines) + "\n"
