import threading
import time

import numpy as np
import pytest

from pnmimo import lemmas
from pnmimo.config import blas_threads
from pnmimo.lemmas import (ConvergenceRecord, _gaussian_vec, _spd,
                           _wishart_resolvent, check_free_probability_traces,
                           check_matrix_inversion_identity,
                           check_quadratic_form_identities,
                           check_rank1_perturbation, check_resolvent_identity,
                           check_trace_lemma, convergence_to_csv)
from pnmimo.phase_noise import theta_vector


# Oracles: the dense M x M formulas of the four checks that the library
# evaluates on the K x K, factor and matrix-vector route.  Each consumes the
# same draws in the same order as its check and returns the per-size (or
# per-identity) medians.

def _random_spd(M, rng):
    """B B^H / M + I as the library draws and builds it: _spd of one
    (2, M, M) standard normal draw."""
    return _spd(rng.standard_normal((2, M, M)))


def complex_gram_spd(M, rng):
    """B B^H / M + I from the complex factor B, which _spd builds from B's
    real and imaginary parts."""
    B = _gaussian_vec(M * M, rng, 1.0).reshape(M, M)
    S = B @ B.conj().T
    S /= M
    S.flat[::M + 1] += 1.0
    return S


def block_phases(M, M_osc, rng):
    """A unitary diagonal with M_osc blocks of equal phase, uniform on [0, 2 pi)."""
    return np.exp(1j * np.repeat(rng.uniform(0.0, 2.0 * np.pi, M_osc), M // M_osc))


def trace_lemma_oracle(M_values, rng, n_trials):
    medians = []
    for M in M_values:
        A = complex_gram_spd(M, rng)
        tr = np.trace(A).real / M
        errs = []
        for _ in range(n_trials):
            x = _gaussian_vec(M, rng, 1.0 / M)
            w = _gaussian_vec(M, rng, 1.0 / M)
            errs.append(max(abs(np.real(x.conj() @ A @ x) - tr),
                            abs(x.conj() @ A @ w)))
        medians.append(np.median(errs))
    return np.array(medians)


def rank1_oracle(M_values, rng, n_trials, zeta=1.0):
    medians = []
    for M in M_values:
        errs = []
        for _ in range(n_trials):
            U = complex_gram_spd(M, rng) - np.eye(M)
            A = complex_gram_spd(M, rng)
            h = _gaussian_vec(M, rng, 1.0)
            q = abs(float(rng.normal())) + 0.1
            base = U + zeta * np.eye(M)
            gap = abs(np.trace(A @ (np.linalg.inv(base + q * np.outer(h, h.conj()))
                                    - np.linalg.inv(base)))) / M
            # the lemma's bound ||A||_2 / M, A Hermitian
            assert gap <= np.linalg.eigvalsh(A)[-1] / M * (1 + 1e-10)
            errs.append(gap)
        medians.append(np.median(errs))
    return np.array(medians)


def rank1_serial(M_values, rng, n_trials):
    """check_rank1_perturbation's medians from a serial loop on one thread:
    each trial draws S's normals, C, h and q, then builds S and solves."""
    medians = []
    for M in M_values:
        errs = []
        for _ in range(n_trials):
            S = _random_spd(M, rng)
            C = _gaussian_vec(M * M, rng, 1.0).reshape(M, M)
            h = _gaussian_vec(M, rng, 1.0)
            q = abs(float(rng.normal())) + 0.1
            y = np.linalg.solve(S, h)
            Chy = y.conj() @ C
            yy = np.vdot(y, y).real
            yAy = np.vdot(Chy, Chy).real / M + yy
            errs.append(q * yAy / (M * abs(1.0 + q * (h.conj() @ y))))
        medians.append(float(np.median(errs)))
    return medians


# Serial references: the checks that run their trials on worker threads,
# as one loop on one thread that draws and computes each trial in turn.

def free_probability_serial(M_values, rng, n_trials):
    medians = []
    for M in M_values:
        K = max(M // 4, 1)
        errs = []
        for _ in range(n_trials):
            H = _gaussian_vec(K * M, rng, 1.0).reshape(K, M)
            S = H @ H.conj().T + 0.5 * M * np.eye(K)
            u = 2.0 - 2.0 * np.sum(H.conj() * np.linalg.solve(S, H), axis=0)
            v = theta_vector(0.0, rng.uniform(0.0, 2.0 * np.pi, M), M)
            errs.append(abs(u @ v / M - u.mean() * v.mean()))
        medians.append(float(np.median(errs)))
    return medians


def quadratic_form_serial(M, q0, rng, n_trials, M_osc):
    K = M // 4
    alpha = 0.5
    q1 = 1.0 - q0
    q2 = np.sqrt(q0 * q1)
    devs = []
    for _ in range(n_trials):
        H = _gaussian_vec(K * M, rng, 1.0).reshape(K, M)
        x = _gaussian_vec(M, rng, 1.0 / M)
        w = _gaussian_vec(M, rng, 1.0 / M)
        n = theta_vector(0.0, rng.uniform(0.0, 2.0 * np.pi, M_osc), M)
        lam, W = np.linalg.eigh(H @ H.conj().T / M)
        t1 = ((M - K) / alpha + np.sum(1.0 / (lam + alpha))) / M
        t2 = ((M - K) / (2.0 * alpha ** 2)
              + np.sum(1.0 / ((lam + alpha) * (lam + 2.0 * alpha)))) / M
        trn = n.mean()
        v = np.sqrt(q0) * x + np.sqrt(q1) * w
        nhx = np.conj(n) * x
        Ai_nhx, Ai_v = _wishart_resolvent(lam, W, H, alpha, np.stack([nhx, v], 1)).T
        VNhx = Ai_nhx - Ai_v * (v.conj() @ Ai_nhx) / (1.0 + v.conj() @ Ai_v)
        forms = _wishart_resolvent(lam, W, H, 2.0 * alpha,
                                   np.stack([nhx, x, w], 1)).conj().T @ VNhx
        targets = np.array([t2 - q0 * t1 * t2 * abs(trn) ** 2 / (1.0 + t1),
                            t2 * (1.0 + q1 * t1) / (1.0 + t1) * np.conj(trn),
                            (-q2 * t1 * t2) / (1.0 + t1) * np.conj(trn)])
        devs.append(np.abs(forms - targets))
    return np.median(devs, axis=0)


def resolvent_serial(M, rng, n_trials):
    worst = 0.0
    for _ in range(n_trials):
        U = _random_spd(M, rng)
        V = _random_spd(M, rng)
        Ui, Vi = np.linalg.inv(U), np.linalg.inv(V)
        worst = max(worst, float(np.max(np.abs((Ui - Vi) + Ui @ (U - V) @ Vi))))
    return worst


def free_probability_oracle(M_values, rng, n_trials):
    medians = []
    for M in M_values:
        K = max(M // 4, 1)
        errs = []
        for _ in range(n_trials):
            H = _gaussian_vec(K * M, rng, 1.0).reshape(K, M)
            U = np.linalg.inv(H.conj().T @ H / M + 0.5 * np.eye(M))
            v = block_phases(M, M, rng)
            tr_uv = np.trace(U * v[None, :]).item() / M  # U @ diag(v) trace
            errs.append(abs(tr_uv - (np.trace(U) / M) * v.mean()))
        medians.append(np.median(errs))
    return np.array(medians)


def quadratic_form_oracle(M, q0, rng, n_trials, M_osc, alpha=0.5):
    K = M // 4
    q1 = 1.0 - q0
    q2 = np.sqrt(q0 * q1)
    devs = []
    for _ in range(n_trials):
        H = _gaussian_vec(K * M, rng, 1.0).reshape(K, M)
        A = H.conj().T @ H / M + alpha * np.eye(M)
        Ainv = np.linalg.inv(A)
        U = np.linalg.inv(H.conj().T @ H / M + 2.0 * alpha * np.eye(M))
        x = _gaussian_vec(M, rng, 1.0 / M)
        w = _gaussian_vec(M, rng, 1.0 / M)
        n = block_phases(M, M_osc, rng)
        t1 = (np.trace(Ainv) / M).real
        t2 = (np.trace(U @ Ainv) / M).real
        trn = n.mean()
        V = np.linalg.inv(A + q0 * np.outer(x, x.conj()) + q1 * np.outer(w, w.conj())
                          + q2 * np.outer(x, w.conj()) + q2 * np.outer(w, x.conj()))
        UV = U @ V
        nhx = np.conj(n) * x
        devs.append([abs(nhx.conj() @ UV @ nhx
                         - (t2 - q0 * t1 * t2 * abs(trn) ** 2 / (1.0 + t1))),
                     abs(x.conj() @ UV @ nhx
                         - t2 * (1.0 + q1 * t1) / (1.0 + t1) * np.conj(trn)),
                     abs(w.conj() @ UV @ nhx
                         - (-q2 * t1 * t2) / (1.0 + t1) * np.conj(trn))])
    return np.median(devs, axis=0)


def _same_draws_same_medians(check, oracle, seed):
    """check(rng) and oracle(rng) on two generators with the same seed: equal
    medians within 1e-10 relative, and the same generator state afterwards."""
    rng_lib, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got, ref = np.asarray(check(rng_lib)), oracle(rng_ref)
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0.0)
    assert rng_lib.bit_generator.state == rng_ref.bit_generator.state


def _same_bits_as_serial(check, serial, seed):
    """check(rng) equals serial(rng), run at one BLAS thread, bit for bit,
    and leaves its generator in the same state."""
    rng_lib, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = check(rng_lib)
    with blas_threads():
        ref = serial(rng_ref)
    assert np.array_equal(got, ref)
    assert rng_lib.bit_generator.state == rng_ref.bit_generator.state


class TestOracles:
    def test_trace_lemma_matches_dense_quadratic_forms(self):
        _same_draws_same_medians(
            lambda rng: check_trace_lemma([8, 32, 64], rng, n_trials=5).errors,
            lambda rng: trace_lemma_oracle([8, 32, 64], rng, n_trials=5), seed=19)

    def test_spd_from_real_parts_matches_complex_gram(self):
        rng_parts, rng_ref = np.random.default_rng(23), np.random.default_rng(23)
        for M in (1, 7, 64):
            S = _random_spd(M, rng_parts)
            assert np.array_equal(S, S.conj().T)
            np.testing.assert_allclose(S, complex_gram_spd(M, rng_ref), rtol=0.0, atol=1e-13)
        assert rng_parts.bit_generator.state == rng_ref.bit_generator.state

    def test_rank1_matches_dense_trace_gap(self):
        _same_draws_same_medians(
            lambda rng: check_rank1_perturbation([8, 32, 64], rng, n_trials=5).errors,
            lambda rng: rank1_oracle([8, 32, 64], rng, n_trials=5), seed=20)

    @pytest.mark.parametrize("seed", [20, 21])
    def test_rank1_overlap_keeps_the_serial_stream(self, seed):
        # the worker changes when the products run, not the draws: the same
        # bits and the same generator state as the serial loop
        _same_bits_as_serial(
            lambda rng: check_rank1_perturbation([8, 32, 64], rng, n_trials=5).errors,
            lambda rng: rank1_serial([8, 32, 64], rng, n_trials=5), seed)

    @pytest.mark.parametrize("seed", [20, 21])
    def test_rank1_workspaces_outlast_slow_workers(self, seed, monkeypatch):
        # each S build and solve on a worker sleeps before it reads its
        # inputs, so every overlap with this thread's draws runs at its
        # longest, and the solve longer than a build: a workspace refilled
        # before its last reader returned would change the bits
        def slow(compute, seconds):
            def on_worker(*args):
                if threading.current_thread() is not threading.main_thread():
                    time.sleep(seconds)
                return compute(*args)
            return on_worker

        monkeypatch.setattr(np.linalg, "solve", slow(np.linalg.solve, 0.01))
        monkeypatch.setattr(lemmas, "_spd", slow(lemmas._spd, 0.002))
        _same_bits_as_serial(
            lambda rng: check_rank1_perturbation([8, 32, 64], rng, n_trials=5).errors,
            lambda rng: rank1_serial([8, 32, 64], rng, n_trials=5), seed)

    # more trials than lemmas._IN_FLIGHT, so that trials are collected while
    # later ones are drawn
    @pytest.mark.parametrize("seed", [20, 21])
    def test_free_probability_workers_keep_the_serial_stream(self, seed):
        _same_bits_as_serial(
            lambda rng: check_free_probability_traces([8, 32, 64], rng, n_trials=9).errors,
            lambda rng: free_probability_serial([8, 32, 64], rng, n_trials=9), seed)

    @pytest.mark.parametrize("seed", [20, 21])
    @pytest.mark.parametrize("q0", [0.9, 1.0])
    def test_quadratic_form_workers_keep_the_serial_stream(self, seed, q0):
        _same_bits_as_serial(
            lambda rng: check_quadratic_form_identities(64, q0, rng, n_trials=9, M_osc=8),
            lambda rng: quadratic_form_serial(64, q0, rng, n_trials=9, M_osc=8), seed)

    @pytest.mark.parametrize("seed", [20, 21])
    def test_resolvent_workers_keep_the_serial_stream(self, seed):
        _same_bits_as_serial(lambda rng: check_resolvent_identity(32, rng, n_trials=9),
                             lambda rng: resolvent_serial(32, rng, n_trials=9), seed)

    def test_rank1_needs_no_eigendecomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the rank-1 check decomposes no matrix")

        for name in ("eigvalsh", "eigh", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        rec = check_rank1_perturbation([8, 32, 64], np.random.default_rng(20),
                                       n_trials=5)
        assert len(rec.errors) == 3

    def test_free_probability_matches_dense_inverse(self):
        _same_draws_same_medians(
            lambda rng: check_free_probability_traces([8, 32, 64], rng, n_trials=5).errors,
            lambda rng: free_probability_oracle([8, 32, 64], rng, n_trials=5), seed=21)

    @pytest.mark.parametrize("M", [8, 32, 64])
    @pytest.mark.parametrize("q0", [0.9, 1.0])
    def test_quadratic_forms_match_dense_inverses(self, M, q0):
        _same_draws_same_medians(
            lambda rng: check_quadratic_form_identities(M, q0, rng, n_trials=5,
                                                        M_osc=4),
            lambda rng: quadratic_form_oracle(M, q0, rng, n_trials=5, M_osc=4),
            seed=22)


class TestExactIdentities:
    def test_matrix_inversion(self):
        assert check_matrix_inversion_identity(64, np.random.default_rng(0)) <= 1e-10

    def test_matrix_inversion_q_zero(self):
        # degenerate to a plain inverse comparison
        rng = np.random.default_rng(1)
        assert check_matrix_inversion_identity(16, rng) <= 1e-10

    def test_resolvent(self):
        assert check_resolvent_identity(64, np.random.default_rng(2)) <= 1e-10

    def test_resolvent_equal_matrices(self):
        rng = np.random.default_rng(3)
        U = _random_spd(32, rng)
        Ui = np.linalg.inv(U)
        assert np.max(np.abs((Ui - Ui) + Ui @ (U - U) @ Ui)) == 0.0


class TestConvergenceRecord:
    def test_validates_positive_errors(self):
        with pytest.raises(ValueError):
            ConvergenceRecord("x", [32, 64], [0.1, 0.0], -0.5)

    def test_csv_round_trip_floats(self):
        rec = ConvergenceRecord("x", [32, 64], [0.125, 0.0625], -1.0)
        text = convergence_to_csv([rec])
        lines = text.strip().splitlines()
        assert lines[0] == "name,M,median_error,slope"
        assert lines[1].split(",")[2] == repr(0.125)


class TestBlockPhase:
    def test_unit_modulus_and_block_structure(self):
        # the checks' phase diagonal: theta_vector at zero UE phase gives the
        # block_phases oracle's bits from the same draws
        v = theta_vector(0.0, np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, 3), 12)
        assert np.array_equal(v, block_phases(12, 3, np.random.default_rng(4)))
        assert np.allclose(np.abs(v), 1.0)
        assert np.allclose(v[:4], v[0])
        assert np.allclose(v[4:8], v[4])


class TestAsymptoticDecay:
    def test_trace_lemma_decays(self):
        rec = check_trace_lemma([64, 128, 256, 512], np.random.default_rng(5),
                                n_trials=120)
        assert all(a > b for a, b in zip(rec.errors, rec.errors[1:]))
        assert rec.slope < -0.3

    def test_rank1_bound_and_decay(self):
        rec = check_rank1_perturbation([64, 128, 256], np.random.default_rng(6),
                                       n_trials=60)
        assert all(a > b for a, b in zip(rec.errors, rec.errors[1:]))
        assert -1.35 <= rec.slope <= -0.65

    def test_free_probability_decay(self):
        rec = check_free_probability_traces([64, 128, 256], np.random.default_rng(7),
                                            n_trials=60)
        assert all(a > b for a, b in zip(rec.errors, rec.errors[1:]))
        # the partial-trace fluctuations decay at least as fast as 1/sqrt(M)
        assert rec.slope <= -0.35

    def test_free_probability_identity_matrix_exact(self):
        # a scalar multiple of the identity factorizes exactly
        rng = np.random.default_rng(8)
        M, K = 64, 16
        H = _gaussian_vec(K * M, rng, 1.0).reshape(K, M)
        U = np.linalg.inv(H.conj().T @ H / M + 0.5 * np.eye(M))
        for V in (np.eye(M), 3.7 * np.eye(M)):
            lhs = np.trace(U @ V) / M
            rhs = (np.trace(U) / M) * (np.trace(V) / M)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestQuadraticForms:
    def test_deviations_shrink_with_size(self):
        rng = np.random.default_rng(9)
        small = check_quadratic_form_identities(128, 0.9, rng, n_trials=30, M_osc=16)
        large = check_quadratic_form_identities(512, 0.9, rng, n_trials=30, M_osc=64)
        assert np.all(large < small)

    def test_identity_phase_recovers_unrotated_forms(self):
        # with all block phases equal to 1 the three targets collapse to the
        # classic mixed quadratic-form limits; deviation stays moderate
        rng = np.random.default_rng(10)
        devs = check_quadratic_form_identities(256, 0.9, rng, n_trials=20, M_osc=1)
        assert np.all(devs < 0.2)

    def test_perfect_quality_collapses_cross_terms(self):
        # q0 = 1 makes the cross coefficient q2 vanish; the third identity's
        # target then scales by q2 = 0
        rng = np.random.default_rng(11)
        devs = check_quadratic_form_identities(256, 1.0, rng, n_trials=20, M_osc=32)
        assert np.all(devs < 0.2)
