import collections
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from scipy.linalg import blas, lapack

import pnmimo

# Every run replays the same examples and keeps no example database, so the
# property tests are reproducible; each test keeps its own max_examples.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def fresh_env() -> dict:
    """Environment for a fresh interpreter that imports the pnmimo under test."""
    src = str(Path(pnmimo.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def pool_on_two_cores(monkeypatch, chunk: int, K: int, M: int) -> None:
    """Pooled chunks of `chunk` realizations at K x M (linksim.CHUNK_BUDGET
    // (K M)) on a process with 2 cores, so that a run of two or more such
    chunks at a parallelism above 1 runs on two worker threads."""
    from pnmimo import linksim
    monkeypatch.setattr(linksim, "CHUNK_BUDGET", chunk * K * M)
    monkeypatch.setattr(linksim, "_cores", lambda: 2)


def chunks_per_thread(monkeypatch) -> collections.Counter:
    """The Monte-Carlo kernel's chunks per thread ident, counted through a
    wrapped linksim.precoders (one call per chunk) until the test ends.  The
    first two worker threads to run a chunk wait for each other there, so a
    pool cannot run two short ranges one after the other on one thread."""
    from pnmimo import linksim
    chunks, real = collections.Counter(), linksim.precoders
    meet, met = threading.Barrier(2, timeout=10), set()

    def counted(*args):
        me = threading.get_ident()
        chunks[me] += 1
        if me != threading.main_thread().ident and me not in met and len(met) < 2:
            met.add(me)
            meet.wait()
        return real(*args)

    monkeypatch.setattr(linksim, "precoders", counted)
    return chunks


def two_worker_threads(threads) -> bool:
    """threads (idents, or chunks counted per ident) are two worker threads,
    neither of them the main thread."""
    return len(threads) == 2 and threading.main_thread().ident not in threads


@pytest.fixture
def two_blas_threads(monkeypatch):
    """A machine that reports 2 cores, with numpy's OpenBLAS at 2 threads
    until the test ends, so that two concurrent BLAS callers get one thread
    each.  Yields the thread-count getter; skips where there is no OpenBLAS."""
    blas = pnmimo.config._openblas()
    if blas is None:
        pytest.skip("numpy links no OpenBLAS")
    get, put = blas
    before = get()
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    put(2)
    yield get
    put(before)


def sinr_mf_finite_k(config) -> float:
    """MF effective SINR with the observed UE's own power left out of the
    interference sum, which removes the limit form's O(1/K) bias at small K:
    M*q_eff*p_k / (sum_{k1 != k} p_k1 + sigma_w^2 * sum p)."""
    p_k, psum = config.p_k, config.p_sum
    den = (psum - p_k) + config.sigma_w2 * psum
    return config.M * config.q_eff * p_k / den


def empirical_resolvent_trace(M: int, K: int, alpha: float, rng: np.random.Generator,
                              power: int = 1) -> float:
    """(1/M) tr((H^H H / M + alpha I)^-power) for one K x M channel draw H.

    H^H H / M has M - K zero eigenvalues and the K eigenvalues lam of the
    Gram H H^H / M.  For power 1, sum 1/(lam + alpha) = ||U^-1||_F^2 with
    U^H U = H H^H / M + alpha I, from scipy's zherk, zpotrf and ztrtri; for
    power 2 the sum comes from eigvalsh.
    """
    H = np.sqrt(0.5 / M) * (rng.standard_normal((K, M))
                            + 1j * rng.standard_normal((K, M)))
    if power == 2:
        lam = np.linalg.eigvalsh(H @ H.conj().T)
        return float(((M - K) / alpha ** 2 + np.sum(1.0 / (lam + alpha) ** 2)) / M)
    # H.T is Fortran-ordered, so herk reads it without a copy; trans=2 forms
    # conj(H H^H), whose inverse has the same trace
    G = blas.zherk(1.0, H.T, trans=2)  # upper triangle
    G.flat[::K + 1] += alpha
    U, info = lapack.zpotrf(G, overwrite_a=1)
    assert info == 0, info
    U_inv, info = lapack.ztrtri(U, overwrite_c=1)
    assert info == 0, info
    u = U_inv.ravel(order="K")  # Fortran-ordered: a view, not a copy
    return float(((M - K) / alpha + np.vdot(u, u).real) / M)


# The library's draw rules, written out one realization at a time: the
# Monte-Carlo kernel (linksim._simulate_block) must consume each stream in
# this order and produce these values.

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


def _wiener_endpoints(n: int, tau: int, sigma2: float, rng: np.random.Generator):
    """Phases at 0 and tau for n independent Wiener processes."""
    phi0 = rng.uniform(0.0, 2.0 * np.pi, size=n)
    # A single Gaussian of variance tau*sigma2 is distributionally identical
    # to the sum of tau i.i.d. steps.
    phit = phi0 + rng.normal(0.0, np.sqrt(tau * sigma2), size=n)
    return np.vstack([phi0, phit])


def simulate_wiener(M_osc: int, K: int, sigma2_bs: float, sigma2_ue: float,
                    tau: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw one joint realization of BS-oscillator and UE phase processes.

    Each process starts uniform on [0, 2*pi) and advances by a zero-mean
    Gaussian increment of variance tau*sigma2 between symbols 0 and tau.
    The M_osc BS oscillators are drawn first, then the K UEs.  Returns
    (bs_phases, ue_phases), a (2, M_osc) and a (2, K) array whose rows are
    symbol 0 and symbol tau.
    """
    bs = _wiener_endpoints(M_osc, tau, sigma2_bs, rng)
    ue = _wiener_endpoints(K, tau, sigma2_ue, rng)
    return bs, ue
