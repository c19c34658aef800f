import concurrent.futures.thread
import os
import threading
import time
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from pnmimo.channel import synthesize_estimate
from pnmimo import config, linksim, sweep
from pnmimo.config import SystemConfig
from pnmimo.linksim import empirical_powers
from pnmimo.phase_noise import theta_vector
from pnmimo.precoding import precoders

from conftest import (chunks_per_thread, draw_channel, pool_on_two_cores, simulate_wiener,
                      sinr_mf_finite_k, two_worker_threads)


def _draw(M, K, M_osc, q0, sigma2_bs, sigma2_ue, tau, rng):
    """Channel, (BS, UE) phases and estimate, drawn from rng in the library's order."""
    H = draw_channel(M, K, rng)
    phases = simulate_wiener(M_osc, K, sigma2_bs, sigma2_ue, tau, rng)
    bs, ue = phases
    H_hat = synthesize_estimate(H, theta_vector(ue[0], bs[0], M), q0,
                                draw_channel(M, K, rng))
    return H, phases, H_hat


def _blas_threads_block(threads, parties=1):
    """A _simulate_block stand-in whose powers are the BLAS thread count that
    the thread running it sees.  It adds that thread to the set threads and
    waits until `parties` stand-ins run at once, so that a pool cannot run
    two ranges on one thread."""
    meet = threading.Barrier(parties, timeout=10)

    def block(sets, start, stop, chunk, out, halt):
        threads.add(threading.get_ident())
        meet.wait()
        out[...] = config._openblas()[0]()
    return block


def _scene(M=32, K=8, q0=0.9, sigma2=0.05, tau=5, seed=0):
    rng = np.random.default_rng(seed)
    return (rng, *_draw(M, K, M // 4, q0, sigma2, sigma2, tau, rng))


def precoder(H_hat, powers, kind, alpha=None):
    """The library's precoder G = H_hat^H C."""
    C, = precoders(H_hat, powers, [(kind, alpha)], np.eye(len(H_hat)))
    return H_hat.conj().T @ C


def zeta(H, G, phases, ue):
    """Coefficients that UE `ue`'s received sample puts on every UE's symbol."""
    bs, ue_phases = phases
    return (H[ue] * theta_vector(ue_phases[1, ue], bs[1], H.shape[1])) @ G


def sinr(z, ue, noise_var):
    return abs(z[ue]) ** 2 / (np.sum(np.abs(np.delete(z, ue)) ** 2) + noise_var)


def transmit(G, symbols, H, phases, noise):
    """Received samples y_k = h_k^T Theta_k(tau) G s + w_k of every UE, with
    the full diagonal phase matrix Theta_k(tau)."""
    K, M = H.shape
    bs, ue = phases
    y = np.empty(K, dtype=complex)
    for k in range(K):
        theta = np.diag(theta_vector(ue[1, k], bs[1], M))
        y[k] = H[k] @ theta @ G @ symbols + noise[k]
    return y


class TestDecompose:
    def test_zf_perfect_csi_no_phase_noise_nulls_interference(self):
        rng, H, phases, H_hat = _scene(q0=1.0, sigma2=0.0)
        G = precoder(H_hat, np.full(8, 1 / 8), "zf")
        z = zeta(H, G, phases, 0)
        assert np.sum(np.abs(z[1:]) ** 2) <= 1e-18

    def test_single_ue_empty_interference(self):
        cfg = SystemConfig(M=32, K=1, M_osc=8, snr_db=None, sigma_w2_value=0.25,
                           n_realizations=20)
        est, = empirical_powers(cfg, [("zf", None)])
        _, (int_powers,) = linksim._powers(cfg, [("zf", None)])
        assert np.all(int_powers == 0.0)
        assert est.sinr_at(0.25) == pytest.approx(est.mean_sig_power / 0.25)

    def test_consistent_with_transmit_symbols(self):
        # Redraw realizations from their own streams in the library's order
        # (channel, phases, estimate).  Received samples for unit symbol
        # vectors give every coefficient the observed UE sees; their powers
        # must be the ones the Monte-Carlo estimator recorded.
        cfg = SystemConfig(M=32, K=8, M_osc=4, snr_db=10.0, ue_index=2,
                           n_realizations=6)
        k, no_noise = cfg.ue_index, np.zeros(cfg.K, complex)
        for kind, alpha in (("rzf", 0.1), ("zf", None), ("mf", None)):
            est, = empirical_powers(cfg, [(kind, alpha)])
            assert est.n_rejected == 0
            (sig_powers,), (int_powers,) = linksim._powers(cfg, [(kind, alpha)])
            for i in (0, 3, 5):
                rng = np.random.default_rng((cfg.master_seed, i))
                H, phases, H_hat = _draw(cfg.M, cfg.K, cfg.M_osc, cfg.q0, cfg.sigma2_bs,
                                        cfg.sigma2_ue, cfg.tau, rng)
                G = precoder(H_hat, cfg.powers, kind, alpha)
                z = np.array([transmit(G, e, H, phases, no_noise)[k]
                              for e in np.eye(cfg.K)])
                assert np.allclose(z, zeta(H, G, phases, k),
                                   rtol=0.0, atol=1e-12)
                p = np.abs(z) ** 2
                assert p[k] == pytest.approx(sig_powers[i], rel=1e-12)
                assert np.sum(np.delete(p, k)) == pytest.approx(int_powers[i],
                                                                rel=1e-12)

    def test_received_power_budget(self):
        rng, H, phases, H_hat = _scene(seed=1)
        G = precoder(H_hat, np.full(8, 1 / 8), "zf")
        z = zeta(H, G, phases, 0)
        n = 200_000
        s = (rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))) / np.sqrt(2)
        w = np.sqrt(0.05 / 2) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        y = s @ z + w
        budget = np.sum(np.abs(z) ** 2) + 0.05
        assert np.mean(np.abs(y) ** 2) == pytest.approx(budget, rel=0.01)

    def test_zero_noise_zero_pn_zf_exact_symbol(self):
        rng, H, phases, H_hat = _scene(q0=1.0, sigma2=0.0, seed=2)
        p = np.full(8, 1 / 8)
        G = precoder(H_hat, p, "zf")
        s = np.ones(8, dtype=complex)
        y = transmit(G, s, H, phases, np.zeros(8, complex))
        xi = 1 / np.linalg.norm(H_hat.conj().T @ np.linalg.solve(
            H_hat @ H_hat.conj().T, np.diag(np.sqrt(p))))
        expected = xi * np.sqrt(p)
        # received symbol is xi*sqrt(p_k)*s_k up to the UE's common phase
        assert np.allclose(np.abs(y), expected, atol=1e-10)


class TestEmpiricalSinr:
    def test_noise_dominated_limit(self):
        cfg = SystemConfig(M=16, K=4, M_osc=4, snr_db=None, sigma_w2_value=1e6,
                           n_realizations=50)
        est, = empirical_powers(cfg, [("mf", None)])
        assert est.sinr_at(cfg.sigma_w2) == pytest.approx(est.mean_sig_power / 1e6,
                                                          rel=1e-3)

    def test_mf_matches_closed_form_large_M(self):
        cfg = SystemConfig(M=200, K=40, M_osc=1, q0=0.9, snr_db=None,
                           sigma_w2_value=0.1, n_realizations=2000)
        est = empirical_powers(cfg, [("mf", None)])[0].sinr_at(cfg.sigma_w2)
        # the limit form beta*q0/(1+sigma_w2) carries an O(1/K) bias; the
        # finite-K exclusion form tracks the simulation much tighter
        assert est == pytest.approx(200 * 0.9 / 40 / 1.1, rel=0.05)
        assert est == pytest.approx(sinr_mf_finite_k(cfg), rel=0.02)

    def test_zf_matches_closed_form(self):
        cfg = SystemConfig(M=50, K=10, M_osc=1, q0=0.9, snr_db=None,
                           sigma_w2_value=0.1, n_realizations=2000)
        est = empirical_powers(cfg, [("zf", None)])[0].sinr_at(cfg.sigma_w2)
        assert est == pytest.approx(0.09 / (0.0225 * 0.1 + 0.1 / 40), rel=0.05)

    def test_deterministic_given_seed(self):
        cfg = SystemConfig(M=16, K=4, M_osc=2, snr_db=10.0, n_realizations=40)
        a, = empirical_powers(cfg, [("rzf", 0.1)])
        b, = empirical_powers(cfg, [("rzf", 0.1)])
        assert a.sinr_at(cfg.sigma_w2) == b.sinr_at(cfg.sigma_w2)
        assert a.std_error_at(cfg.sigma_w2) == b.std_error_at(cfg.sigma_w2)

    @pytest.mark.parametrize("chunk", [1, 3, 50])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_chunk_size_does_not_change_bits(self, monkeypatch, chunk, workers):
        # `chunk` realizations share one stacked pass, serially (_chunk) and
        # on two worker threads (CHUNK_BUDGET // (K M)); 3 does not divide
        # n, 50 is the whole block, which one thread runs
        cfg = SystemConfig(M=16, K=4, M_osc=2, snr_db=10.0, n_realizations=50,
                           parallelism=workers)
        variants = [("rzf", 0.1), ("zf", None), ("mf", None)]
        ref = linksim._powers(replace(cfg, parallelism=1), variants)
        monkeypatch.setattr(linksim, "_chunk", lambda K, M: chunk)
        pool_on_two_cores(monkeypatch, chunk, cfg.K, cfg.M)
        chunks = chunks_per_thread(monkeypatch)
        for powers, r in zip(linksim._powers(cfg, variants), ref):
            assert np.array_equal(powers, r)
        assert sum(chunks.values()) == -(-50 // chunk)
        assert two_worker_threads(chunks) if workers > 1 and chunk < 50 else len(chunks) == 1

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_mid_size_chunks_do_not_change_bits(self, monkeypatch, chunk):
        # at M=100, K=20 the rule stacks 8 realizations, which does not divide
        # n; one and three per chunk give the same bits
        cfg = SystemConfig(M=100, K=20, M_osc=5, snr_db=10.0, n_realizations=19)
        assert linksim._chunk(cfg.K, cfg.M) == 8
        variants = [("rzf", cfg.rzf_alpha), ("zf", None), ("mf", None)]
        ref = linksim._powers(cfg, variants)
        monkeypatch.setattr(linksim, "_chunk", lambda K, M: chunk)
        for powers, r in zip(linksim._powers(cfg, variants), ref):
            assert np.array_equal(powers, r)

    # M=50, K=10 (the fig2-fig4 presets) stacks 32; mid-size shapes stack
    # enough realizations to amortize a chunk's fixed cost; from K*M = 32768
    # each realization is its own chunk
    @pytest.mark.parametrize("M, K, chunk", [(4, 2, 2048), (50, 10, 32), (64, 16, 16),
                                             (100, 20, 8), (150, 30, 7), (200, 40, 4),
                                             (300, 60, 1), (256, 128, 1), (1000, 200, 1)])
    def test_chunk_rule(self, M, K, chunk):
        assert linksim._chunk(K, M) == chunk

    # the benchmarked runs keep their plans on 2 cores: fig2-fig4 at 100
    # realizations serially, also at parallelism 2 (one pooled chunk of 65
    # per thread), and the generated M=200, K=40 sweep (500 realizations) on
    # two threads with chunks of 4
    @pytest.mark.parametrize("M, K, M_osc, n, parallelism, plan", [
        pytest.param(50, 10, 5, 100, 1, (0, 32), id="mc_verify"),
        pytest.param(50, 10, 5, 100, 2, (0, 32), id="mc_verify-parallelism-2"),
        pytest.param(200, 40, 5, 500, 2, (2, 4), id="mc_large"),
        pytest.param(50, 10, 5, 260, 2, (2, 65), id="two-chunks-per-thread"),
        pytest.param(36, 4, 2, 4000, 2, (0, 113), id="K*M-144"),
        pytest.param(40, 4, 2, 4000, 2, (2, 204), id="K*M-160")])
    def test_plan(self, monkeypatch, M, K, M_osc, n, parallelism, plan):
        monkeypatch.setattr(linksim, "_cores", lambda: 2)
        cfg = SystemConfig(M=M, K=K, M_osc=M_osc, n_realizations=n,
                           parallelism=parallelism)
        assert linksim._plan(cfg) == plan

    # 2 cores: an affinity mask of two CPUs on a 64-core host, or 2 CPUs where
    # the OS has no affinity mask; None: no mask and an unknown count
    @pytest.mark.parametrize("affinity, cpu_count, cores", [
        pytest.param({0, 1}, 64, 2, id="2"),
        pytest.param(None, 2, 2, id="2-without-affinity"),
        pytest.param(None, None, 1, id="None")])
    def test_pool_size_clamped_to_cores(self, monkeypatch, affinity, cpu_count, cores):
        # 16 or 100000 workers start at most as many threads as the CPUs the
        # process may run on, and submit one index range per thread; one
        # core runs serially.  The bits are the serial run's
        cfg = SystemConfig(M=16, K=4, M_osc=2, snr_db=10.0, n_realizations=64)
        monkeypatch.setattr(linksim, "CHUNK_BUDGET", 8 * cfg.K * cfg.M)  # 8 chunks
        monkeypatch.setattr(linksim, "POOL_MIN_ELEMENTS", 0)  # K*M = 64
        pools, ranges = [], []

        class InlinePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args, **kwargs):
                ranges.append(args[1:3])
                future = Future()
                future.set_result(fn(*args, **kwargs))
                return future

        # config.workers imports the thread pool from its module on use
        monkeypatch.setattr(concurrent.futures.thread, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(linksim.os, "cpu_count", lambda: cpu_count)
        if affinity is None:
            monkeypatch.delattr(linksim.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(linksim.os, "sched_getaffinity", lambda pid: affinity,
                                raising=False)
        ref_sig, ref_int = linksim._powers(cfg, [("rzf", 0.1)])
        threads = cores if cores > 1 else 0
        for parallelism in (16, 100000):
            pools.clear()
            ranges.clear()
            sig, intf = linksim._powers(replace(cfg, parallelism=parallelism), [("rzf", 0.1)])
            assert pools == ([threads] if threads else [])
            assert len(ranges) == threads
            assert not ranges or (ranges[0][0] == 0 and ranges[-1][1] == 64)
            assert np.array_equal(sig, ref_sig)
            assert np.array_equal(intf, ref_int)

    def test_pool_workers_take_their_blas_share(self, monkeypatch, two_blas_threads):
        # two worker threads on 2 cores run BLAS at one thread; the caller's
        # count is back at 2 afterwards
        threads = set()
        monkeypatch.setattr(linksim, "_simulate_block", _blas_threads_block(threads, 2))
        pool_on_two_cores(monkeypatch, 8, 4, 16)  # 64 realizations: 8 chunks
        cfg = SystemConfig(M=16, K=4, M_osc=2, snr_db=10.0, n_realizations=64,
                           parallelism=2)
        sig, intf = linksim._powers(cfg, [("mf", None)])
        assert sig.shape == (1, 64) and np.all(sig == 1.0) and np.all(intf == 1.0)
        assert two_worker_threads(threads)
        assert two_blas_threads() == 2

    def test_serial_kernel_runs_at_one_blas_thread(self, monkeypatch, two_blas_threads):
        monkeypatch.setattr(linksim, "_simulate_block", _blas_threads_block(set()))
        cfg = SystemConfig(M=16, K=4, M_osc=2, snr_db=10.0, n_realizations=64)
        sig, intf = linksim._powers(cfg, [("mf", None)])
        assert np.all(sig == 1.0) and np.all(intf == 1.0)
        assert two_blas_threads() == 2

    def test_worker_threads_make_no_blas_set_call(self, monkeypatch, two_blas_threads):
        # the caller caps BLAS at one thread around the pool, and the count
        # is the process's; a set call would make OpenBLAS re-create its
        # threads
        get, put = config._openblas()
        calls, callers = [], []

        def counted_put(threads):
            calls.append((os.getpid(), threads))
            callers.append(threading.get_ident())
            put(threads)

        threads, meet = set(), threading.Barrier(2, timeout=10)

        def set_calls_block(sets, start, stop, chunk, out, halt):
            # its powers: the set calls made by the thread that runs it, once
            # both ranges run
            threads.add(threading.get_ident())
            meet.wait()
            out[...] = callers.count(threading.get_ident())

        monkeypatch.setattr(config, "_openblas", lambda: (get, counted_put))
        monkeypatch.setattr(linksim, "_simulate_block", set_calls_block)
        pool_on_two_cores(monkeypatch, 8, 4, 16)  # 64 realizations: 8 chunks
        cfg = SystemConfig(M=16, K=4, M_osc=2, snr_db=10.0, n_realizations=64,
                           parallelism=2)
        sig, intf = linksim._powers(cfg, [("mf", None)])
        assert sig.shape == (1, 64) and np.all(sig == 0.0) and np.all(intf == 0.0)
        assert two_worker_threads(threads)
        assert calls == [(os.getpid(), 1), (os.getpid(), 2)]  # pin, restore

    def test_parallel_matches_serial(self, monkeypatch):
        cfg = SystemConfig(M=16, K=4, M_osc=2, snr_db=10.0, n_realizations=64)
        serial = linksim._powers(cfg, [("mf", None)])
        pool_on_two_cores(monkeypatch, 8, 4, 16)  # 64 realizations: 8 chunks
        chunks = chunks_per_thread(monkeypatch)
        parallel = linksim._powers(replace(cfg, parallelism=4), [("mf", None)])
        assert two_worker_threads(chunks)
        assert np.array_equal(serial[0], parallel[0])
        assert np.array_equal(serial[1], parallel[1])

    def test_first_failure_stops_the_other_thread(self, monkeypatch):
        # range 0 fails at its first chunk; range 1 (32 chunks of 2 ms or
        # more) stops before its next chunk, range 0's error is raised, and
        # the worker threads are joined
        cfg = SystemConfig(M=16, K=4, M_osc=2, snr_db=10.0, n_realizations=64,
                           parallelism=2)
        pool_on_two_cores(monkeypatch, 1, cfg.K, cfg.M)
        in_range, block = threading.local(), linksim._simulate_block

        def recorded(sets, start, *rest):
            in_range.start = start
            block(sets, start, *rest)

        real, range_1_chunks = linksim.precoders, []

        def fail_in_range_0(H_hat, powers, variants, left):
            if in_range.start == 0:
                raise FloatingPointError("range 0")
            range_1_chunks.append(1)
            time.sleep(0.002)
            return real(H_hat, powers, variants, left)

        monkeypatch.setattr(linksim, "_simulate_block", recorded)
        monkeypatch.setattr(linksim, "precoders", fail_in_range_0)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="range 0"):
            linksim._powers(cfg, [("mf", None)])
        assert len(range_1_chunks) < 32
        assert threading.active_count() == threads

    def test_agreement_improves_with_M(self):
        # single-seed gaps are dominated by MC noise, so compare RMS relative
        # gaps across independent master seeds at fixed realization count
        from pnmimo.analytics import sinr_zf
        rms = []
        for M, K in ((50, 10), (200, 40)):
            gaps = []
            for seed in range(5):
                cfg = SystemConfig(M=M, K=K, M_osc=1, q0=0.9, snr_db=None,
                                   sigma_w2_value=0.1, n_realizations=800,
                                   master_seed=seed)
                est = empirical_powers(cfg, [("zf", None)])[0].sinr_at(cfg.sigma_w2)
                predicted = sinr_zf(cfg)
                gaps.append((est - predicted) / predicted)
            rms.append(float(np.sqrt(np.mean(np.square(gaps)))))
        assert rms[1] <= rms[0]

    def test_monotone_in_oscillator_count(self):
        sinrs = []
        for m_osc in (1, 2, 5, 10, 25, 50):
            cfg = SystemConfig(M=50, K=10, M_osc=m_osc, snr_db=10.0,
                               n_realizations=600)
            est, = empirical_powers(cfg, [("zf", None)])
            sinrs.append((est.sinr_at(cfg.sigma_w2), est.std_error_at(cfg.sigma_w2)))
        for (a, se_a), (b, se_b) in zip(sinrs, sinrs[1:]):
            assert b <= a + 2 * (se_a + se_b)

    def test_mf_interference_insensitive_to_oscillator_count(self):
        ests, cfgs = [], []
        for m_osc in (1, 5, 50):
            cfg = SystemConfig(M=50, K=10, M_osc=m_osc, snr_db=10.0,
                               n_realizations=600)
            ests += empirical_powers(cfg, [("mf", None)])
            cfgs.append(cfg)
        ref = ests[0]
        _, (ref_int_powers,) = linksim._powers(cfgs[0], [("mf", None)])
        for other in ests[1:]:
            se = ref_int_powers.std(ddof=1) / np.sqrt(ref.n_realizations)
            assert abs(other.mean_int_power - ref.mean_int_power) < 2 * 2 * se

    @pytest.mark.parametrize("M, K", [(20, 4), (80, 16)])
    def test_zero_quality_incoherent_floor(self, M, K):
        # At q0 = 0 the estimate is independent of the data-time row, so the
        # ratio of mean powers tends to the incoherent floor
        # p_k / (sum_{j != k} p_j + sigma_w2 * sum p) for every precoder,
        # while the closed form keeps only the coherent term and reads 0.
        cfg = SystemConfig(M=M, K=K, q0=0.0, alpha=0.1,
                           n_realizations=2000)
        p, s2 = cfg.powers, cfg.sigma_w2
        floor = p[0] / (np.sum(p) - p[0] + s2 * np.sum(p))
        for est in empirical_powers(cfg, [("rzf", 0.1), ("zf", None), ("mf", None)]):
            assert abs(est.sinr_at(s2) - floor) <= 4 * est.std_error_at(s2)

    def test_invariant_under_common_phase_shift(self):
        # adding one constant to every oscillator and UE phase at both symbol
        # times multiplies zeta entries by unit-modulus factors only
        rng, H, phases, H_hat = _scene(seed=3)
        G = precoder(H_hat, np.full(8, 1 / 8), "zf")
        s0 = sinr(zeta(H, G, phases, 0), 0, 0.1)
        bs, ue = phases
        s1 = sinr(zeta(H, G, (bs + 0.7, ue), 0), 0, 0.1)
        assert s1 == pytest.approx(s0, rel=1e-12)


class TestChunkDraws:
    """The chunk kernel's draws and precoders, read through the observed row,
    equal a per-realization replay."""

    VARIANTS = [("rzf", 0.05), ("zf", None), ("rzf", 0.3), ("mf", None), ("rzf", 2.0)]

    @pytest.mark.parametrize("chunk", [1, 3, 10])
    @pytest.mark.parametrize("sigma_deg", [0.0, 6.0])
    @pytest.mark.parametrize("m_osc", [2, 20])
    def test_matches_per_realization_replay(self, monkeypatch, m_osc, sigma_deg, chunk):
        # chunk 3 does not divide n, 10 is the whole block
        cfg = SystemConfig(M=20, K=4, M_osc=m_osc, sigma_deg_bs=sigma_deg,
                           sigma_deg_ue=sigma_deg, snr_db=10.0, ue_index=1,
                           n_realizations=10)
        monkeypatch.setattr(linksim, "_chunk", lambda K, M: chunk)
        # a second scenario of the same channel set: its last pairs replay as
        # its own draw set
        other = replace(cfg, M_osc=5, q0=0.6, ue_index=3)
        pairs = [(c, variant) for c in (cfg, other) for variant in self.VARIANTS]
        # the default seed is one 32-bit word; 2^70 is three, so the seed hash
        # takes its entropy-longer-than-the-pool branch
        for seed in (cfg.master_seed, 2 ** 70):
            sig, intf = linksim._powers(replace(cfg, master_seed=seed), self.VARIANTS,
                                        [(replace(other, master_seed=seed), self.VARIANTS)])
            assert sig.shape == (len(pairs), cfg.n_realizations)
            for i in range(cfg.n_realizations):
                replays = []  # (H_hat, row_hat) of cfg, then of other
                for c in (cfg, other):
                    rng = np.random.default_rng((seed, i))
                    M, k = c.M, c.ue_index
                    H, (bs, ue), H_hat = _draw(M, c.K, c.M_osc, c.q0, c.sigma2_bs,
                                               c.sigma2_ue, c.tau, rng)
                    replays.append(
                        (H_hat, (H[k] * theta_vector(ue[1, k], bs[1], M)) @ H_hat.conj().T))
                for j, ((c, variant), sig_powers, int_powers) in enumerate(
                        zip(pairs, sig, intf)):
                    H_hat, row_hat = replays[j // len(self.VARIANTS)]
                    seen, = precoders(H_hat, c.powers, [variant], row_hat)
                    p = np.abs(seen[0]) ** 2
                    assert sig_powers[i] == p[c.ue_index]
                    assert int_powers[i] == p.sum() - p[c.ue_index]


class TestGaussians:
    @pytest.mark.parametrize("shape", [(1, 2, 1, 1), (3, 2, 4, 7), (2, 2, 10, 50)])
    def test_scaled_into_out_equals_scale_then_copy(self, shape):
        # scaling each part straight into its view of the complex output
        # gives the bits of scaling the normals in place and copying them
        z = np.random.default_rng(len(shape) + shape[0]).standard_normal(shape)
        scaled = z.copy()
        scaled *= np.sqrt(0.5)
        want = np.empty(shape[:1] + shape[2:], dtype=complex)
        want.real, want.imag = scaled[:, 0], scaled[:, 1]
        out = np.full_like(want, np.nan)
        before = z.copy()
        assert linksim._gaussians(z, out) is out
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(z, before)


class TestSeedWords:
    """The block hash equals numpy's SeedSequence hash of (master_seed, i)."""

    # 2^32 has a short id: cut at 100 characters, its decimal id in the 2^40
    # range is the same string as 2^32 - 1's
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, pytest.param(2 ** 32, id="2^32"),
                                      2 ** 63 + 5, 2 ** 64 + 3, 3 ** 50, 7 ** 90,
                                      2 ** 200 + 12345])
    @pytest.mark.parametrize("start, stop", [(0, 40), (2 ** 32 - 6, 2 ** 32 + 5),
                                             (2 ** 32, 2 ** 32 + 3),
                                             (2 ** 40 + 9, 2 ** 40 + 10)])
    def test_matches_seed_sequence(self, seed, start, stop):
        # index words change from one to two at 2^32: the ranges below,
        # across and above it; nothing of the block's size is allocated
        words = linksim._seed_words(seed, start, stop)
        expected = [np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)
                    for i in range(start, stop)]
        assert words.dtype == np.uint64
        assert np.array_equal(words, expected)

    @pytest.mark.parametrize("start, stop", [(5, 45), (2 ** 32 - 21, 2 ** 32 + 19)])
    def test_kernel_hashes_seed_blocks(self, monkeypatch, start, stop):
        # 4-realization chunks and a seed block of 16: the kernel hashes
        # [start, start + 16), [start + 16, start + 32), ..., across 2^32 in
        # the second case, and every generator still seeds from
        # SeedSequence's words, with the powers of a one-block pass
        cfg = SystemConfig(M=64, K=16, M_osc=2, snr_db=10.0, master_seed=2 ** 32 + 7)
        monkeypatch.setattr(linksim, "_chunk", lambda K, M: 4)
        variants = [("rzf", cfg.rzf_alpha), ("mf", None)]

        def block():
            out = np.empty((2, len(variants), stop - start))
            linksim._simulate_block([(cfg, variants)], start, stop, linksim._plan(cfg)[1],
                                    out, threading.Event())
            return out

        one_pass = block()
        SeedWords, seen = linksim._seed_words_type(), []

        class Recorded(SeedWords):
            def __init__(self, words):
                seen.append(words.copy())
                super().__init__(words)

        monkeypatch.setattr(linksim, "_seed_words_type", lambda: Recorded)
        monkeypatch.setattr(linksim, "SEED_BLOCK", 16)
        blocks = []
        hash_block = linksim._seed_words
        monkeypatch.setattr(linksim, "_seed_words", lambda seed, lo, hi: (
            blocks.append((lo, hi)) or hash_block(seed, lo, hi)))
        blocked = block()
        assert blocks == [(lo, min(stop, lo + 16)) for lo in range(start, stop, 16)]
        assert np.array_equal(seen, [
            np.random.SeedSequence((cfg.master_seed, i)).generate_state(4, np.uint64)
            for i in range(start, stop)])
        assert all(np.array_equal(a, b) for a, b in zip(one_pass, blocked))


def _sysconf(values):
    def fake(name):
        if name not in values:
            raise ValueError(f"unrecognized configuration name {name!r}")
        return values[name]
    return fake


class TestMemoryLimit:
    def test_physical_memory_within_numpy_index_range(self):
        assert 0 < config._memory_limit() <= np.iinfo(np.intp).max

    def test_read_once_per_process(self, monkeypatch):
        limit = config._memory_limit()
        monkeypatch.setattr(config.os, "sysconf", _sysconf({}))
        assert config._memory_limit() == limit

    def test_reported_memory(self, monkeypatch):
        monkeypatch.setattr(config.os, "sysconf",
                            _sysconf({"SC_PHYS_PAGES": 1024, "SC_PAGE_SIZE": 4096}))
        assert config._memory_limit.__wrapped__() == 4 << 20

    @pytest.mark.parametrize("sysconf", [
        pytest.param({"SC_PHYS_PAGES": -1, "SC_PAGE_SIZE": 4096}, id="unknown-pages"),
        pytest.param({}, id="no-such-name")])
    def test_unreported_memory_falls_back_to_index_range(self, monkeypatch, sysconf):
        monkeypatch.setattr(config.os, "sysconf", _sysconf(sysconf))
        assert config._memory_limit.__wrapped__() == np.iinfo(np.intp).max


class TestDrawSizeGate:
    """check_draw_size counts no less than a serial or pooled run holds at once."""

    SNRS = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)

    # one RZF pair at one SNR; the draw set of a 9-point snr sweep over all
    # three precoders (nine optimal RZF alphas, ZF, MF); a one-realization
    # chunk that dominates the count; the same sweep at a mid-size shape,
    # whose 8-realization chunks dominate it; that sweep at the fig2 shape on
    # two worker threads, each with its own 65-realization chunk, which
    # tracemalloc traces as it does the caller's; fig2's channel set (four
    # oscillator counts, nine RZF alphas each), serially at 32 realizations
    # per chunk and on two threads; the mc_large benchmark's shape (two SNR
    # points over all three precoders) run serially, 4 realizations per chunk
    @pytest.mark.parametrize("M, K, n, precoders, snrs, m_oscs, n_variants, parallelism", [
        pytest.param(20, 4, 20_000, ("rzf",), (10.0,), (2,), 1, 1, id="one-pair"),
        pytest.param(20, 4, 20_000, ("rzf", "zf", "mf"), SNRS, (2,), 11, 1, id="snr-sweep"),
        pytest.param(2000, 40, 4, ("rzf",), (10.0,), (2,), 1, 1, id="M-2000"),
        pytest.param(100, 20, 40, ("rzf", "zf", "mf"), SNRS, (2,), 11, 1, id="M-100-chunk-8"),
        pytest.param(50, 10, 400, ("rzf", "zf", "mf"), SNRS, (2,), 11, 2, id="M-50-pooled"),
        pytest.param(50, 10, 400, ("rzf",), SNRS, (1, 2, 5, 50), 9, 1,
                     id="fig2-channel-set"),
        pytest.param(50, 10, 400, ("rzf",), SNRS, (1, 2, 5, 50), 9, 2,
                     id="fig2-channel-set-pooled"),
        pytest.param(200, 40, 40, ("rzf", "zf", "mf"), (0.0, 20.0), (5,), 4, 1,
                     id="mc_large-serial")])
    def test_count_bounds_traced_peak(self, monkeypatch, M, K, n, precoders, snrs, m_oscs,
                                      n_variants, parallelism):
        monkeypatch.setattr(linksim, "_cores", lambda: 2)
        scenarios = [SystemConfig(M=M, K=K, M_osc=m, snr_db=10.0, n_realizations=n,
                                  parallelism=parallelism) for m in m_oscs]
        assert linksim._plan(scenarios[0])[0] == (parallelism if parallelism > 1 else 0)
        counted = []
        monkeypatch.setattr(linksim, "check_buffer",
                            lambda name, value, nbytes: counted.append(nbytes))
        _, channel_sets = sweep._plan(scenarios, "snr", snrs, precoders, True, "")
        ((point, variants), *more), = channel_sets
        variants, more = list(variants), [(p, list(v)) for p, v in more]
        assert len(counted) == 1 and len(more) == len(m_oscs) - 1
        assert {len(v) for v in [variants, *(v for _, v in more)]} == {n_variants}
        # first use loads numpy.random and builds the seed type: not the run's
        empirical_powers(replace(point, n_realizations=2), variants,
                         [(replace(p, n_realizations=2), v) for p, v in more])
        tracemalloc.start()
        try:
            empirical_powers(point, variants, more)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counted[0]

    def test_seed_hash_peak_is_constant_in_n(self):
        # beyond the kernel's own output (16 B per realization for one pair),
        # its traced peak does not grow with n: the seed hash holds one
        # block's words and working arrays at a time, never n realizations'
        cfg = SystemConfig(M=20, K=4, M_osc=2, snr_db=10.0)
        variants = [("rzf", cfg.rzf_alpha)]
        chunk = linksim._plan(cfg)[1]
        block = linksim._seed_block(chunk)

        def run(n):
            linksim._simulate_block([(cfg, variants)], 0, n, chunk, np.empty((2, 1, n)),
                                    threading.Event())

        run(2)  # first use loads numpy.random
        excess = []
        for n in (2 * block, 5 * block):
            tracemalloc.start()
            try:
                run(n)
                excess.append(tracemalloc.get_traced_memory()[1] - 16 * n)
            finally:
                tracemalloc.stop()
        assert excess[1] <= excess[0] + 8192


class TestSharedDraws:
    """One call builds every (kind, alpha) pair on the same realizations."""

    VARIANTS = [("rzf", 0.05), ("rzf", 0.3), ("zf", None), ("mf", None)]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_matches_one_pair_calls(self, monkeypatch, workers):
        cfg = SystemConfig(M=16, K=4, M_osc=2, snr_db=10.0, n_realizations=64,
                           parallelism=workers)
        pool_on_two_cores(monkeypatch, 8, 4, 16)  # 64 realizations: 8 chunks
        chunks = chunks_per_thread(monkeypatch)
        joint = empirical_powers(cfg, self.VARIANTS)
        assert two_worker_threads(chunks) if workers > 1 else len(chunks) == 1
        assert len(joint) == len(self.VARIANTS)
        sig, intf = linksim._powers(cfg, self.VARIANTS)
        for variant, est, sig_powers, int_powers in zip(self.VARIANTS, joint, sig, intf):
            single, = empirical_powers(cfg, [variant])
            (single_sig,), (single_int,) = linksim._powers(cfg, [variant])
            assert np.array_equal(sig_powers, single_sig)
            assert np.array_equal(int_powers, single_int)
            assert est.n_rejected == single.n_rejected == 0

    def test_zf_rejection_drops_the_draw_for_zf_only(self, monkeypatch):
        cfg = SystemConfig(M=16, K=4, M_osc=2, snr_db=10.0, n_realizations=1000)
        chosen = 7
        rng = np.random.default_rng((cfg.master_seed, chosen))
        target = _draw(cfg.M, cfg.K, cfg.M_osc, cfg.q0, cfg.sigma2_bs,
                       cfg.sigma2_ue, cfg.tau, rng)[2]
        clean = zip(*linksim._powers(cfg, self.VARIANTS))
        real = linksim.precoders

        def reject_chosen(H_hat, powers, variants, left):
            outs = real(H_hat, powers, variants, left)
            for j, slice_ in enumerate(H_hat):
                if np.array_equal(slice_, target):
                    for (kind, _), LC in zip(variants, outs):
                        if kind == "zf":
                            LC[j] = np.nan
            return outs

        monkeypatch.setattr(linksim, "precoders", reject_chosen)
        ests = empirical_powers(cfg, self.VARIANTS)
        powers = zip(*linksim._powers(cfg, self.VARIANTS))
        for (kind, _), est, (sig, intf), ref in zip(self.VARIANTS, ests, powers, clean):
            # the pair's kept draws, as its PowerEstimate averages them
            kept = ~np.isnan(sig)
            if kind == "zf":
                assert (est.n_rejected, est.n_realizations) == (1, 999)
                assert not kept[chosen]
                expected = [np.delete(p, chosen) for p in ref]
            else:
                assert (est.n_rejected, est.n_realizations) == (0, 1000)
                expected = list(ref)
            assert np.array_equal(sig[kept], expected[0])
            assert np.array_equal(intf[kept], expected[1])
        # one rejection in 64 draws is over the 1e-3 cap for the ZF pair
        with pytest.raises(FloatingPointError, match="rejected"):
            empirical_powers(replace(cfg, n_realizations=64), self.VARIANTS)


class TestChannelSets:
    """One call over draw sets that share their channel draws equals one call
    per draw set."""

    VARIANTS = [("rzf", 0.05), ("zf", None), ("mf", None)]
    BASE = dict(M=50, K=10, snr_db=10.0)

    def _sets(self, **fields):
        return [(SystemConfig(M_osc=m, **self.BASE, **fields), self.VARIANTS)
                for m in (1, 2, 5, 50)]

    @pytest.mark.parametrize("chunk", [1, 3, 20])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_one_call_per_set(self, monkeypatch, chunk, workers):
        # chunk 3 does not divide n, 20 is the whole block (one thread); ZF
        # rejects one draw of the M_osc = 5 set, which is NaN for that pair
        # and set only
        sets = self._sets(n_realizations=20, parallelism=workers)
        chosen, (cfg, _) = 7, sets[2]
        target = _draw(cfg.M, cfg.K, cfg.M_osc, cfg.q0, cfg.sigma2_bs, cfg.sigma2_ue,
                       cfg.tau, np.random.default_rng((cfg.master_seed, chosen)))[2]
        real = linksim.precoders

        def reject_chosen(H_hat, powers, variants, left):
            outs = real(H_hat, powers, variants, left)
            for j, slice_ in enumerate(H_hat):
                if np.array_equal(slice_, target):
                    outs[1][j] = np.nan  # ZF, the second pair
            return outs

        monkeypatch.setattr(linksim, "precoders", reject_chosen)
        alone = np.concatenate([linksim._powers(replace(c, parallelism=1), v)
                                for c, v in sets], axis=1)
        assert np.isnan(alone[:, 3 * 2 + 1, chosen]).all()
        assert np.isnan(alone).sum() == 2
        monkeypatch.setattr(linksim, "_chunk", lambda K, M: chunk)
        pool_on_two_cores(monkeypatch, chunk, cfg.K, cfg.M)
        chunks = chunks_per_thread(monkeypatch)
        (config_, variants), *more = sets
        joint = linksim._powers(config_, variants, more)
        assert np.array_equal(joint, alone, equal_nan=True)
        # one precoders call per draw set and chunk
        assert sum(chunks.values()) == len(sets) * -(-20 // chunk)
        assert two_worker_threads(chunks) if workers > 1 and chunk < 20 else len(chunks) == 1

    def test_estimates_match_one_call_per_set(self):
        sets = self._sets(n_realizations=40)
        (config_, variants), *more = sets
        joint = empirical_powers(config_, variants, more)
        alone = [est for c, v in sets for est in empirical_powers(c, v)]
        assert len(joint) == len(alone) == 4 * len(self.VARIANTS)
        for a, b in zip(joint, alone):
            assert (a.mean_sig_power, a.mean_int_power, a.n_realizations, a.n_rejected) == (
                b.mean_sig_power, b.mean_int_power, b.n_realizations, b.n_rejected)
            assert np.array_equal(a.cov, b.cov)

    def test_one_set_saves_no_state(self, monkeypatch):
        # a single draw set reads its stream straight through: no generator
        # state is saved or restored
        reads = []
        real = np.random.PCG64

        class Watched(real):
            @property
            def state(self):
                reads.append(1)
                return real.state.__get__(self)

            @state.setter
            def state(self, value):
                reads.append(2)
                real.state.__set__(self, value)

        monkeypatch.setattr(linksim.np.random, "PCG64", Watched)
        cfg, variants = self._sets(n_realizations=10)[0]
        empirical_powers(cfg, variants)
        assert reads == []
        (config_, variants), *more = self._sets(n_realizations=10)
        empirical_powers(config_, variants, more)
        # one save and three restores per realization
        assert sorted(reads) == [1] * 10 + [2] * 30

    @pytest.mark.parametrize("change", [dict(master_seed=1), dict(n_realizations=30),
                                        dict(M=40), dict(K=5)])
    def test_sets_must_share_the_channel_key(self, change):
        base = dict(M=20, K=4, M_osc=2, snr_db=10.0, n_realizations=20)
        cfg, other = SystemConfig(**base), SystemConfig(**{**base, **change})
        with pytest.raises(ValueError, match="channel set"):
            empirical_powers(cfg, self.VARIANTS, [(other, self.VARIANTS)])
