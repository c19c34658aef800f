import numpy as np
import pytest

from pnmimo.channel import EstimateQuality, draw_channel, synthesize_estimate
from pnmimo.phase_noise import (OscillatorTopology, PhaseNoiseParams,
                                simulate_wiener, theta_vector)


class TestQuality:
    def test_complement_and_cross_term(self):
        q = EstimateQuality(0.9)
        assert q.q1 == pytest.approx(0.1)
        assert q.q2 == pytest.approx(np.sqrt(0.09))

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            EstimateQuality(1.2)


class TestDrawChannel:
    def test_unit_variance(self):
        H = draw_channel(1000, 1000, np.random.default_rng(0))
        assert np.mean(np.abs(H) ** 2) == pytest.approx(1.0, rel=0.005)

    def test_circular_symmetry(self):
        H = draw_channel(1000, 1000, np.random.default_rng(1))
        assert abs(np.mean(H ** 2)) <= 0.005

    def test_rows_uncorrelated(self):
        M = 4096
        rng = np.random.default_rng(2)
        hits = 0
        trials = 20
        for _ in range(trials):
            H = draw_channel(M, 8, rng)
            gram = H @ H.conj().T / M
            off = np.abs(gram[~np.eye(8, dtype=bool)])
            if off.max() <= 4 / np.sqrt(M):
                hits += 1
        assert hits / trials >= 0.95

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            draw_channel(0, 4, np.random.default_rng(3))


def _make_pair(q0, M=64, K=8, seed=0, sigma2=0.05, tau=5):
    rng = np.random.default_rng(seed)
    topo = OscillatorTopology(M, M // 4)
    H = draw_channel(M, K, rng)
    trace = simulate_wiener(topo, K, PhaseNoiseParams(sigma2, sigma2, tau), rng)
    pair = synthesize_estimate(H, trace, EstimateQuality(q0), topo, tau, rng)
    return pair, trace, topo, tau


class TestSynthesizeEstimate:
    def test_perfect_estimate_is_rotated_channel(self):
        pair, trace, topo, tau = _make_pair(1.0)
        for k in range(pair.H.shape[0]):
            expected = theta_vector(trace, k, 0, tau, topo) * pair.H[k]
            assert np.allclose(pair.H_hat[k], expected)

    def test_zero_quality_ignores_channel(self):
        pair, _, _, _ = _make_pair(0.0)
        assert np.allclose(pair.H_hat, pair.estimation_noise)

    def test_unit_entry_variance(self):
        pair, _, _, _ = _make_pair(0.9, M=1024, K=1024, seed=4)
        assert np.mean(np.abs(pair.H_hat) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_correlation_with_rotated_channel_is_sqrt_q0(self):
        pair, trace, topo, tau = _make_pair(0.9, M=1024, K=1024, seed=5)
        K = pair.H.shape[0]
        rot = np.empty_like(pair.H)
        for k in range(K):
            rot[k] = theta_vector(trace, k, 0, tau, topo) * pair.H[k]
        corr = np.mean(pair.H_hat * rot.conj())
        assert corr.real == pytest.approx(np.sqrt(0.9), rel=0.01)
        assert abs(corr.imag) < 0.01

    def test_estimation_noise_independent_of_channel(self):
        pair, _, _, _ = _make_pair(0.5, M=1024, K=1024, seed=6)
        n = pair.H.size
        cross = np.mean(pair.estimation_noise * pair.H.conj())
        # each product has unit variance, so the mean's std error is 1/sqrt(n)
        assert abs(cross) <= 3 / np.sqrt(n)
