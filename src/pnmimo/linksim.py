"""Monte-Carlo effective-SINR estimation of the downlink.

One realization draws a channel H, a joint phase trajectory and the
estimation noise W_e.  From them come the estimate
H_hat = sqrt(q0) Theta(0) H + sqrt(1-q0) W_e and the observed UE k's
channel row h_k^T Theta_k(tau) at data time.  One `precoding.precoders`
call gives every requested precoder (a kind and, for RZF, a regularizer
alpha) as G = H_hat^H C, so the row is projected onto H_hat^H once and each
C turns it into the scalar coefficients the UE sees on its own symbol
(c_sig) and on every interferer's symbol (c_int).  Averaging |c_sig|^2 and
||c_int||^2 over realizations yields the empirical effective SINR.  The
averages do not depend on the receiver noise level, so one draw set serves
every precoder, alpha and SNR point of a scenario.  The scenario is
validated once, by SystemConfig; the stages below it take plain arrays and
floats.

Realizations run in small chunks (see CHUNK_ELEMENTS).  Each realization of
a chunk draws from its own stream straight into the chunk's buffers, in this
order: 2KM standard normals for H (real parts, then imaginary parts); M_osc
uniforms on [0, 1) and M_osc standard normals for the BS oscillators; K of
each for the UEs; 2KM standard normals for W_e.  The scaling runs once per
chunk: a start phase is 2 pi times its uniform, the phase at tau adds
sqrt(tau sigma2) times its normal (one Gaussian of variance tau sigma2
stands for the tau Wiener steps), and H and W_e are sqrt(1/2) times their
normals.  Everything after the draws (the phase rotations, the estimate,
the data-time row, the Gram decomposition and every precoder) runs once on
the chunk's stacked arrays.  A draw ZF rejects is a NaN slice of the ZF
coefficients, which turns that realization's ZF powers into NaN.

Realization `i` always uses the RNG stream of
np.random.default_rng((master_seed, i)), and results are assembled by index,
so output is bit-identical for any chunk size, parallelism degree, execution
order or set of precoders built on the draw.  A block hashes all of its
(master_seed, i) entropies in one pass of array arithmetic (_seed_words),
which equals np.random.SeedSequence((master_seed, i)).generate_state(4,
np.uint64) word for word, and each realization's PCG64 seeds itself from
its row of that hash: the same generator default_rng builds.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import dataclass

import numpy as np

from .channel import synthesize_estimate
from .config import ConfigError, SystemConfig
from .phase_noise import theta_vector
from .precoding import precoders

__all__ = ["PowerEstimate", "empirical_powers", "check_buffer", "check_draw_size",
           "MAX_REJECTION_RATE"]

# A ZF run aborts (FloatingPointError, so the CLI exits 3) if more than this
# fraction of draws fails the condition cap.
MAX_REJECTION_RATE = 1e-3

# A chunk stacks max(1, CHUNK_ELEMENTS // (K*M)) realizations, so each K x M
# stack stays near 64 KiB: 8 realizations at M=50, K=10, one at M=200, K=40.
# Larger chunks save little more interpreter time and raise peak memory.
CHUNK_ELEMENTS = 4096

# The constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx)
# with its pool of 4 words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


@dataclass(eq=False)
class PowerEstimate:
    """Noise-independent Monte-Carlo averages of signal and interference power.

    The SINR is a ratio of mean powers, E|c_sig|^2 / (E||c_int||^2 +
    sigma_w2), so the signal power the UE cannot use coherently stays in the
    numerator.  At q0 = 0 the estimate is independent of the data-time row
    and, with equal powers, every precoder tends to the incoherent floor
    p_k / (sum_{j != k} p_j + sigma_w2 sum_j p_j), where the closed form,
    which keeps only the coherent term, reads 0.
    """

    mean_sig_power: float
    mean_int_power: float
    n_realizations: int
    n_rejected: int
    cov: np.ndarray  # 2 x 2 sample covariance of the kept (signal, interference) powers

    def sinr_at(self, sigma_w2: float) -> float:
        return self.mean_sig_power / (self.mean_int_power + sigma_w2)

    def std_error_at(self, sigma_w2: float) -> float:
        """Delta-method standard error of the SINR ratio estimator."""
        den = self.mean_int_power + sigma_w2
        grad = np.array([1.0 / den, -self.mean_sig_power / den ** 2])
        var = float(grad @ self.cov @ grad) / self.n_realizations
        return float(np.sqrt(max(var, 0.0)))


@functools.cache
def _memory_limit() -> int:
    """The machine's physical memory in bytes where the OS reports it, and
    never more than numpy can index (sys.maxsize, the largest np.intp).
    Read once per process."""
    limit = sys.maxsize
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return limit
    return min(limit, pages * size) if pages > 0 and size > 0 else limit


def check_buffer(name: str, value, nbytes: int) -> None:
    """Raise ConfigError naming the field `name` when a buffer of nbytes
    cannot be allocated: more than physical memory or numpy's index range."""
    limit = _memory_limit()
    if nbytes > limit:
        raise ConfigError(f"{name}: the draw buffers need {nbytes} bytes, more "
                          f"than the {limit} bytes available, got {name} = {value}")


def _chunk(K: int, M: int) -> int:
    return max(1, CHUNK_ELEMENTS // (K * M))


def check_draw_size(config: SystemConfig, n_variants: int) -> None:
    """Raise ConfigError when an empirical_powers call over n_variants
    (kind, alpha) pairs would hold more than fits in memory at once.

    Each worker (the parent on the serial path) holds one chunk: its draws,
    their complex working copies, and the K x K Gram factors and every
    pair's coefficient matrices.  Each realization holds its seed words and
    the seed hash's working arrays, one pair's reduction to a PowerEstimate,
    and 16 B in every pair's two power arrays, counted twice on the pool
    path (the workers' pieces and the joined arrays).  The byte counts bound
    tracemalloc's peak of a serial run (tests/test_linksim.py).  The error
    names M when the chunks are the larger part, else n_realizations.
    """
    K, M, n = config.K, config.M, config.n_realizations
    workers = _pool_size(config)
    # a chunk of b realizations: (2, 2, b K, M) float64 draws, six complex
    # (b K, M) working copies, 3 complex b (K, K) arrays per pair and 4 more
    chunks = max(workers, 1) * 16 * _chunk(K, M) * K * (8 * M + (3 * n_variants + 4) * K)
    # 32 B of seed words, the hash's entropy (4 B per 32-bit word of the
    # master seed, two for the index) and its other arrays (128 B), then
    # 48 B of one pair's reduction
    per_realization = (4 * len(_uint32_words(config.master_seed)) + 216
                       + 16 * n_variants * (2 if workers else 1))
    name, value = ("M", M) if chunks >= n * per_realization else ("n_realizations", n)
    check_buffer(name, value, chunks + n * per_realization)


def _uint32_words(x: int) -> list[int]:
    """x as SeedSequence reads an integer: little-endian 32-bit words, [0] for 0."""
    words = []
    while x:
        words.append(x & _MASK32)
        x >>= 32
    return words or [0]


def _hash_steps(init: int, mult: int, n: int) -> np.ndarray:
    """The first n + 1 values of a SeedSequence hash constant, as a column."""
    steps = [init]
    for _ in range(n):
        steps.append(steps[-1] * mult & _MASK32)
    return np.array(steps, dtype=np.uint32)[:, None]


def _hashmix(v: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of v against each consecutive pair of steps:
    XOR with the constant, step it, multiply by the stepped one, xorshift."""
    v = (v ^ steps[:-1]) * steps[1:]
    return v ^ v >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ r >> 16


def _seed_words(master_seed: int, start: int, stop: int) -> np.ndarray:
    """(stop - start, 4) uint64 array whose row j equals
    np.random.SeedSequence((master_seed, start + j)).generate_state(4, np.uint64).

    The entropy of (master_seed, i) is the 32-bit words of master_seed, then
    those of i.  The hash constants step the same way for every i with as
    many words, so indices below and from 2^32 (one and two words) each take
    one pass of uint32 array arithmetic, whatever their count.  Scalars would
    warn on the intended uint32 overflow; arrays wrap silently.
    """
    out = np.empty((stop - start, 4), dtype=np.uint64)
    head = _uint32_words(master_seed)
    for lo, hi in ((start, min(stop, 2 ** 32)), (max(start, 2 ** 32), stop)):
        if lo >= hi:
            continue
        i = np.arange(lo, hi, dtype=np.uint64)
        tail = [i] if hi <= 2 ** 32 else [i, i >> np.uint64(32)]
        entropy = np.empty((len(head) + len(tail), hi - lo), dtype=np.uint32)
        entropy[:len(head)] = np.array(head, dtype=np.uint32)[:, None]
        entropy[len(head):] = tail  # the uint32 cast keeps each low word
        n_extra = max(len(entropy) - 4, 0)
        steps = _hash_steps(_INIT_A, _MULT_A, 4 + 12 + 4 * n_extra)
        pool = np.zeros((4, hi - lo), dtype=np.uint32)
        pool[:len(entropy)] = entropy[:4]
        pool = _hashmix(pool, steps[:5])
        s = 4
        for src in range(4):
            dst = [d for d in range(4) if d != src]
            pool[dst] = _mix(pool[dst], _hashmix(pool[src], steps[s:s + 4]))
            s += 3
        for word in entropy[4:]:
            pool = _mix(pool, _hashmix(word, steps[s:s + 5]))
            s += 4
        state = _hashmix(np.tile(pool, (2, 1)), _hash_steps(_INIT_B, _MULT_B, 8))
        out[lo - start:hi - start] = (np.ascontiguousarray(state.T, dtype="<u4")
                                      .view("<u8"))
    return out


@functools.cache
def _seed_words_type() -> type:
    """The seed PCG64 takes from one realization's row of _seed_words.  Built
    on first use, so that importing pnmimo does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def _simulate_block(config: SystemConfig, variants, start: int, stop: int):
    """Per-variant, per-realization powers for indices [start, stop).

    Returns two (len(variants), stop - start) arrays; NaN marks a draw that
    the variant's precoder rejected.
    """
    M, K, k, M_osc = config.M, config.K, config.ue_index, config.M_osc
    chunk = _chunk(K, M)
    words = _seed_words(config.master_seed, start, stop)
    SeedWords = _seed_words_type()
    step_bs = np.sqrt(config.tau * config.sigma2_bs)  # std dev of the drift over tau
    step_ue = np.sqrt(config.tau * config.sigma2_ue)
    sig = np.empty((len(variants), stop - start))
    intf = np.empty_like(sig)
    for lo in range(start, stop, chunk):
        b = min(chunk, stop - lo)
        # z[0] is H and z[1] W_e as (real, imaginary) normals; bs/ue row 0
        # is the phase at symbol 0, row 1 at symbol tau
        z = np.empty((2, b, 2, K, M))
        bs, ue = np.empty((2, b, M_osc)), np.empty((2, b, K))
        for j in range(b):
            rng = np.random.Generator(np.random.PCG64(SeedWords(words[lo - start + j])))
            rng.standard_normal(out=z[0, j])
            rng.random(out=bs[0, j])
            rng.standard_normal(out=bs[1, j])
            rng.random(out=ue[0, j])
            rng.standard_normal(out=ue[1, j])
            rng.standard_normal(out=z[1, j])
        for phases, step in ((bs, step_bs), (ue, step_ue)):
            phases[0] *= 2.0 * np.pi
            phases[1] *= step
            phases[1] += phases[0]
        z *= np.sqrt(0.5)
        HW = np.empty((2, b, K, M), dtype=complex)
        HW.real, HW.imag = z[:, :, 0], z[:, :, 1]
        H, W_e = HW
        H_hat = synthesize_estimate(H, theta_vector(ue[0], bs[0][:, None], M),
                                    config.q0, W_e)
        # the observed UE's channel row, rotated by its data-time phases, seen
        # through H_hat^H: row @ G = row_hat @ C for every precoder G = H_hat^H C
        row = H[:, k] * theta_vector(ue[1, :, k], bs[1], M)
        row_hat = row[:, None] @ H_hat.conj().swapaxes(-1, -2)
        C = np.stack(precoders(H_hat, config.powers, variants))
        p = np.abs(row_hat @ C)[..., 0, :] ** 2
        cols = slice(lo - start, lo - start + b)
        sig[:, cols] = p[..., k]
        intf[:, cols] = p.sum(axis=-1) - p[..., k]
    return sig, intf


def _estimate(sig: np.ndarray, intf: np.ndarray) -> PowerEstimate:
    n = sig.size
    rejected = int(np.isnan(sig).sum())
    if rejected > MAX_REJECTION_RATE * n:
        raise FloatingPointError(
            f"{rejected}/{n} realizations rejected (cap {MAX_REJECTION_RATE:.1%})")
    keep = ~np.isnan(sig)
    sig, intf = sig[keep], intf[keep]
    return PowerEstimate(mean_sig_power=float(sig.mean()),
                         mean_int_power=float(intf.mean()),
                         n_realizations=int(sig.size),
                         n_rejected=rejected, cov=np.cov(sig, intf))


def _pool_size(config: SystemConfig) -> int:
    """Worker processes an empirical_powers call starts: 0 runs it serially."""
    p = config.parallelism
    return min(p, os.cpu_count() or 1) if p > 1 and config.n_realizations >= 4 * p else 0


def _powers(config: SystemConfig, variants: list) -> tuple[np.ndarray, np.ndarray]:
    """Signal and interference powers of every (kind, alpha) pair, as two
    (len(variants), n_realizations) arrays with NaN where the pair's
    precoder rejected the draw: one block, or one block per index range on
    the process pool, joined in index order.

    A worker that dies (the OOM killer's usual work) breaks the pool; that
    is raised as a MemoryError, which the CLI reports as a run that does not
    fit in memory.
    """
    n, workers = config.n_realizations, _pool_size(config)
    if not workers:
        return _simulate_block(config, variants, 0, n)
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor  # pool path only
    bounds = np.linspace(0, n, config.parallelism + 1, dtype=int)
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_simulate_block, config, variants, int(a), int(b))
                       for a, b in zip(bounds[:-1], bounds[1:])]
            pieces = [f.result() for f in futures]
    except BrokenExecutor:
        raise MemoryError("a worker process died, most likely for lack of memory") from None
    return tuple(np.concatenate(arrays, axis=1) for arrays in zip(*pieces))


def empirical_powers(config: SystemConfig, variants) -> list[PowerEstimate]:
    """Monte-Carlo power averages of every (kind, alpha) pair on one draw set.

    Realization i is drawn once and every pair's precoder is built from it;
    alpha is None for ZF and MF.  Returns one PowerEstimate per pair, in
    order; it keeps the means, counts and covariance the table reads, not
    the per-realization powers.  The averages do not depend on the receiver
    noise level, so one call serves every SNR point of the scenario.  Draws
    a pair's precoder rejects are dropped for that pair only, and the
    rejection cap applies per pair.
    """
    sig, intf = _powers(config, list(variants))
    return [_estimate(s, q) for s, q in zip(sig, intf)]
