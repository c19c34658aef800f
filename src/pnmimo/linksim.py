"""Monte-Carlo effective-SINR estimation of the downlink.

One realization draws a channel H, a joint phase trajectory and the
estimation noise W_e.  From them come the estimate
H_hat = sqrt(q0) Theta(0) H + sqrt(1-q0) W_e and the observed UE k's
channel row h_k^T Theta_k(tau) at data time.  Every requested precoder (a
kind and, for RZF, a regularizer alpha) is G = H_hat^H C, so the row is
projected onto H_hat^H once, as row_hat, and one `precoding.precoders` call
reads every C through it: row_hat C holds the scalar coefficients the UE
sees on its own symbol (c_sig) and on every interferer's symbol (c_int),
and no K x K coefficient matrix is formed.  Averaging |c_sig|^2 and
||c_int||^2 over realizations yields the empirical effective SINR.  The
averages do not depend on the receiver noise level, so one draw set serves
every precoder, alpha and SNR point of a scenario.  Draw sets whose
scenarios share master_seed, K, M and n_realizations (channel_key) share
their channel draws too: one kernel pass runs them as one channel set.  The
scenario is validated once, by SystemConfig; the stages below it take plain
arrays and floats.

Realizations run in chunks of a few, sized so that each chunk amortizes its
fixed interpreter cost within a cache-sized budget (see CHUNK_ELEMENTS).
Each realization of a chunk draws from its own stream straight into the
chunk's buffers, in this order: 2KM standard normals for H (real parts, then
imaginary parts); M_osc uniforms on [0, 1) and M_osc standard normals for the
BS oscillators; K of each for the UEs; 2KM standard normals for W_e.  H
comes first whatever the scenario's phase noise, so a channel set draws and
fills it once per chunk.  With more than one draw set, each generator's
state is saved after H and restored before every further set draws its
phases and W_e, so every set reads the stream that it would alone.  The
scaling runs once per chunk and set: a start phase is 2 pi times its
uniform, the phase at tau adds sqrt(tau sigma2) times its normal (one
Gaussian of variance tau sigma2 stands for the tau Wiener steps), and H and
W_e are sqrt(1/2) times their normals.  Everything after the draws (the
phase rotations, the estimate, the data-time row, the Gram decomposition and
every precoder) runs once per set on the chunk's stacked arrays.  A draw ZF
rejects is a NaN slice of the ZF coefficients, which turns that
realization's ZF powers into NaN.

Realization `i` always uses the RNG stream of
np.random.default_rng((master_seed, i)), and results are assembled by index,
so output is bit-identical for any chunk size, parallelism degree, execution
order, set of precoders built on the draw, or channel set the draw runs in.
A block hashes the (master_seed, i) entropies of SEED_BLOCK realizations
(rounded up to whole chunks) in one pass of array arithmetic (_seed_words),
which equals np.random.SeedSequence((master_seed, i)).generate_state(4,
np.uint64) word for word, and each realization's PCG64 seeds itself from
its row of that hash: the same generator default_rng builds.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .channel import synthesize_estimate
from .config import SystemConfig, blas_threads, check_buffer, numpy_random, workers
from .phase_noise import theta_vector
from .precoding import precoders

__all__ = ["PowerEstimate", "empirical_powers", "check_draw_size", "channel_key",
           "MAX_REJECTION_RATE"]

# A ZF run aborts (FloatingPointError, so the CLI exits 3) if more than this
# fraction of draws fails the condition cap.
MAX_REJECTION_RATE = 1e-3

# A chunk stacks CHUNK_ELEMENTS // (K*M) realizations, but never fewer than
# min(CHUNK_MIN, CHUNK_BUDGET // (K*M)), nor fewer than one.  Each chunk pays
# a fixed cost of some 80-100 numpy calls (about 150 us on a 2-core x86
# machine), so a mid-size shape needs several realizations to amortize it,
# while its K x M stacks stay within a cache-sized budget of elements: 8
# realizations at M=50, K=10 and at M=100, K=20, 7 at M=150, K=30, 4 at
# M=200, K=40, and one from K*M = 32768 up.  Larger chunks save no more time
# and raise peak memory.  On worker threads a chunk stacks
# max(1, CHUNK_BUDGET // (K*M)) (_plan): 65 at M=50, K=10 and 4 at
# M=200, K=40.  A thread holds the interpreter lock for each chunk's fixed
# cost, so at 8 realizations per chunk two threads mostly wait on each
# other; larger chunks leave more of the time in numpy calls that release it.
CHUNK_ELEMENTS = 4096
CHUNK_MIN = 8
CHUNK_BUDGET = 32768

# Worker threads run only where two of them measured faster than the serial
# kernel on a 2-core x86 machine: from K*M = POOL_MIN_ELEMENTS up (at
# K*M <= 144 two threads took 2-37% longer, from 160 up they tied or won),
# and with at least POOL_MIN_CHUNKS pooled chunks per thread (at one chunk
# each, fig2-fig4 at 100 realizations ran slower and held each thread's
# whole chunk on top of the serial run's memory; BENCH_row_precoders.json).
POOL_MIN_ELEMENTS = 160
POOL_MIN_CHUNKS = 2

# A block hashes the seed words of at least SEED_BLOCK realizations at a
# time (a whole number of chunks), so the hash's working arrays stay the
# same size whatever the realization count; the presets' 2000 realizations
# take one pass.
SEED_BLOCK = 2048

# Bytes counted for one realization's generator state, saved after its H
# where a channel set holds more than one draw set (tracemalloc reads about
# 510 B)
STATE_BYTES = 1024

# channel_key(config): the fields that realization i's channel H depends
# on; draw sets with equal keys share their channel draws
channel_key = attrgetter("master_seed", "K", "M", "n_realizations")

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


def _chunk(K: int, M: int) -> int:
    return max(CHUNK_ELEMENTS // (K * M), min(CHUNK_MIN, CHUNK_BUDGET // (K * M)), 1)


def _seed_block(chunk: int) -> int:
    return chunk * -(-SEED_BLOCK // chunk)


def check_draw_size(config: SystemConfig, variants, more=()) -> None:
    """Raise ConfigError when empirical_powers(config, variants, more) would
    hold more than fits in memory at once; variants and more's are counted
    by their pair counts.

    Each of _plan's threads (the caller on the serial path) holds one chunk
    of _plan's size and one seed block's words with the seed hash's working
    arrays.  A chunk holds the channel set's H and, with more than one draw
    set, every realization's saved generator state; then one draw set at a
    time holds its working arrays (its draws, their complex copies, the
    Gram's K x K factors, and every pair's rows seen through them).  Each
    realization holds one pair's reduction to a PowerEstimate and 16 B in
    every pair's two power arrays, for every draw set, which the worker
    threads fill in place.  The byte counts bound tracemalloc's peak of a
    serial and of a pooled run (tests/test_linksim.py).  The error names M
    when the chunks are the larger part, else n_realizations.
    """
    K, M, n = config.K, config.M, config.n_realizations
    threads, chunk = _plan(config)
    pairs = [len(variants), *(len(v) for _, v in more)]
    # a chunk of b realizations: H's (2, b K, M) float64 draws and complex
    # copy; per draw set, W_e's draws and complex copy, five complex
    # (b K, M) arrays (the phase rotation, three terms of the estimate and
    # the estimate), two complex (b, M) data-time phase rows, 4 complex
    # b (K, K) arrays (the Gram, U, U^H P^1/2 and a temporary) and, per
    # pair, 6 complex b K rows (its filter and its temporaries, L C, the
    # stacked copy and the powers); per realization of a seed block, 32 B
    # of seed words, the hash's entropy (4 B per 32-bit word of the master
    # seed, two for the index) and its other arrays (128 B)
    chunks = max(threads, 1) * (
        16 * chunk * (K * (9 * M + 4 * K + 6 * max(pairs)) + 2 * M)
        + (chunk * STATE_BYTES if len(pairs) > 1 else 0)
        + min(n, _seed_block(chunk)) * (4 * len(_uint32_words(config.master_seed)) + 168))
    # 48 B of one pair's reduction
    per_realization = 48 + 16 * sum(pairs)
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
    on first use, so that importing pnmimo does not load numpy.random
    (config.numpy_random)."""

    class SeedWords(numpy_random().bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def _gaussians(z: np.ndarray) -> np.ndarray:
    """sqrt(1/2) (z[..., 0, :, :] + j z[..., 1, :, :]): unit-variance
    complex Gaussians from (real, imaginary) standard normals, scaled in
    place."""
    z *= np.sqrt(0.5)
    c = np.empty(z.shape[:-3] + z.shape[-2:], dtype=complex)
    c.real, c.imag = z[..., 0, :, :], z[..., 1, :, :]
    return c


def _set_powers(config: SystemConfig, variants, rngs: list, H: np.ndarray) -> np.ndarray:
    """|row_hat C|^2 of one draw set on a chunk: a (len(variants), b, K)
    array from the chunk's channels H, (b, K, M), and its generators, each
    positioned just after its H, which draw the set's phases and W_e."""
    b, K, M = H.shape
    # bs/ue row 0 is the phase at symbol 0, row 1 at symbol tau; w is W_e
    # as (real, imaginary) normals
    bs, ue = np.empty((2, b, config.M_osc)), np.empty((2, b, K))
    w = np.empty((b, 2, K, M))
    for j, rng in enumerate(rngs):
        rng.random(out=bs[0, j])
        rng.standard_normal(out=bs[1, j])
        rng.random(out=ue[0, j])
        rng.standard_normal(out=ue[1, j])
        rng.standard_normal(out=w[j])
    for phases, sigma2 in ((bs, config.sigma2_bs), (ue, config.sigma2_ue)):
        phases[0] *= 2.0 * np.pi
        phases[1] *= np.sqrt(config.tau * sigma2)  # std dev of the drift over tau
        phases[1] += phases[0]
    W_e = _gaussians(w)
    del w
    H_hat = synthesize_estimate(H, theta_vector(ue[0], bs[0][:, None], M), config.q0, W_e)
    # the observed UE's channel row, rotated by its data-time phases, seen
    # through H_hat^H: row @ G = row_hat @ C for every precoder G = H_hat^H C
    k = config.ue_index
    row = H[:, k] * theta_vector(ue[1, :, k], bs[1], M)
    row_hat = row[:, None] @ H_hat.conj().swapaxes(-1, -2)
    seen = np.stack(precoders(H_hat, config.powers, variants, row_hat))
    return np.abs(seen)[..., 0, :] ** 2


def _simulate_block(sets: list, start: int, stop: int, chunk: int, out: np.ndarray,
                    halt: threading.Event) -> None:
    """Per-pair, per-realization powers of a channel set for indices
    [start, stop), in chunks of `chunk` realizations, written into out, a
    (2, n_pairs, stop - start) array of signal, then interference powers,
    whose pairs are each draw set's in order; NaN marks a draw that the
    pair's precoder rejected.  sets is the channel set: (config, variants)
    draw sets whose scenarios share channel_key.  Returns early, before its
    next chunk, once halt is set.
    """
    config = sets[0][0]
    M, K = config.M, config.K
    block = _seed_block(chunk)
    SeedWords = _seed_words_type()
    sig, intf = out
    for lo in range(start, stop, chunk):
        if halt.is_set():
            return
        if (lo - start) % block == 0:  # the next seed block's words
            first = lo
            words = _seed_words(config.master_seed, lo, min(stop, lo + block))
        b = min(chunk, stop - lo)
        rngs = [np.random.Generator(np.random.PCG64(SeedWords(w)))
                for w in words[lo - first:lo - first + b]]
        z = np.empty((b, 2, K, M))  # H as (real, imaginary) normals
        for rng, z_j in zip(rngs, z):
            rng.standard_normal(out=z_j)
        saved = [rng.bit_generator.state for rng in rngs] if len(sets) > 1 else ()
        H = _gaussians(z)
        del z
        cols, v = slice(lo - start, lo - start + b), 0
        for s, (cfg, variants) in enumerate(sets):
            if s:  # back to just after H
                for rng, state in zip(rngs, saved):
                    rng.bit_generator.state = state
            p = _set_powers(cfg, variants, rngs, H)
            pairs, k = slice(v, v + len(variants)), cfg.ue_index
            sig[pairs, cols] = p[..., k]
            intf[pairs, cols] = p.sum(axis=-1) - p[..., k]
            v += len(variants)


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


def _cores() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one
    (a container's cpuset), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _plan(config: SystemConfig) -> tuple[int, int]:
    """(threads, chunk) of an empirical_powers call: at most
    config.parallelism worker threads, never more than the process's cores,
    each with at least POOL_MIN_CHUNKS pooled chunks of
    max(1, CHUNK_BUDGET // (K*M)) realizations.  Fewer than two threads, or
    K*M below POOL_MIN_ELEMENTS, is (0, _chunk's serial rule): the caller
    runs the kernel itself."""
    K, M = config.K, config.M
    chunk = max(1, CHUNK_BUDGET // (K * M))
    threads = min(config.parallelism, _cores(),
                  -(-config.n_realizations // chunk) // POOL_MIN_CHUNKS)
    if threads > 1 and K * M >= POOL_MIN_ELEMENTS:
        return threads, chunk
    return 0, _chunk(K, M)


def _powers(config: SystemConfig, variants, more=()) -> np.ndarray:
    """Signal and interference powers of every (kind, alpha) pair of the
    channel set (config, variants) + more, as one (2, n_pairs,
    n_realizations) array with NaN where the pair's precoder rejected the
    draw; the pairs are variants', then each of more's in order.  Serially
    it is one block.  On the pool it is one index range of whole chunks per
    thread (the last may end short), each a block that a worker thread
    writes into its own columns.  The first failure in a thread, or a
    KeyboardInterrupt in the caller, sets the halt flag: every thread stops
    before its next chunk, and the error is raised once all of them are
    joined.

    The kernel runs at one BLAS thread on both paths (config.blas_threads,
    config.workers), so its bits depend neither on the parallelism nor on
    the core count; its chunks are small by design, so BLAS threads inside
    it mostly burn CPU.
    """
    sets = [(config, list(variants)), *((c, list(v)) for c, v in more)]
    if any(channel_key(c) != channel_key(config) for c, _ in more):
        raise ValueError("a channel set's scenarios must share master_seed, K, M "
                         "and n_realizations")
    n, (threads, chunk) = config.n_realizations, _plan(config)
    powers = np.empty((2, sum(len(v) for _, v in sets), n))
    halt = threading.Event()
    if not threads:
        with blas_threads(1):
            _simulate_block(sets, 0, n, chunk, powers, halt)
        return powers
    from concurrent.futures import FIRST_EXCEPTION, wait
    n_chunks = -(-n // chunk)
    bounds = [min(n, chunk * (n_chunks * i // threads)) for i in range(threads + 1)]
    with workers(threads) as pool:
        try:
            futures = [pool.submit(_simulate_block, sets, a, b, chunk, powers[..., a:b], halt)
                       for a, b in zip(bounds[:-1], bounds[1:])]
            for future in wait(futures, return_when=FIRST_EXCEPTION).done:
                future.result()
        finally:
            halt.set()
    return powers


def empirical_powers(config: SystemConfig, variants, more=()) -> list[PowerEstimate]:
    """Monte-Carlo power averages of every (kind, alpha) pair of one
    channel set: the draw set (config, variants), then the (config,
    variants) draw sets of more, whose scenarios share config's channel_key.

    Realization i is drawn once, its channel H for the whole channel set
    and its phases and W_e per draw set, and every pair's precoder is built
    from its set's draw; alpha is None for ZF and MF.  Returns one
    PowerEstimate per pair, in order: variants', then each of more's.  It
    keeps the means, counts and covariance the table reads, not the
    per-realization powers.  The averages do not depend on the receiver
    noise level, so one call serves every SNR point of the scenarios.
    Draws a pair's precoder rejects are dropped for that pair only, and the
    rejection cap applies per pair.  Every pair's powers are the bits of a
    call on its draw set alone.
    """
    sig, intf = _powers(config, variants, more)
    return [_estimate(s, q) for s, q in zip(sig, intf)]
