import numpy as np
import pytest

from pnmimo.channel import draw_channel, synthesize_estimate
from pnmimo.phase_noise import simulate_wiener, theta_vector


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
    """(H, H_hat, rotated channel Theta(0) H, estimation noise W_e).

    W_e is recovered by replaying the generator: the estimate draws it from
    the same stream right after the channel and the phase trace.
    """
    rng = np.random.default_rng(seed)
    H = draw_channel(M, K, rng)
    bs, ue = simulate_wiener(M // 4, K, sigma2, sigma2, tau, rng)
    theta0 = theta_vector(ue[0], bs[0], M)
    replay = np.random.default_rng(seed)
    H_hat = synthesize_estimate(H, theta0, q0, draw_channel(M, K, rng))
    draw_channel(M, K, replay)
    simulate_wiener(M // 4, K, sigma2, sigma2, tau, replay)
    W_e = draw_channel(M, K, replay)
    return H, H_hat, theta0 * H, W_e


class TestSynthesizeEstimate:
    def test_perfect_estimate_is_rotated_channel(self):
        H, H_hat, rot, _ = _make_pair(1.0)
        assert np.allclose(H_hat, rot)

    def test_zero_quality_ignores_channel(self):
        _, H_hat, _, W_e = _make_pair(0.0)
        assert np.allclose(H_hat, W_e)

    def test_unit_entry_variance(self):
        _, H_hat, _, _ = _make_pair(0.9, M=1024, K=1024, seed=4)
        assert np.mean(np.abs(H_hat) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_correlation_with_rotated_channel_is_sqrt_q0(self):
        _, H_hat, rot, _ = _make_pair(0.9, M=1024, K=1024, seed=5)
        corr = np.mean(H_hat * rot.conj())
        assert corr.real == pytest.approx(np.sqrt(0.9), rel=0.01)
        assert abs(corr.imag) < 0.01

    def test_estimation_noise_independent_of_channel(self):
        H, H_hat, rot, W_e = _make_pair(0.5, M=1024, K=1024, seed=6)
        # the replayed noise is the one in the estimate
        assert np.allclose(H_hat, np.sqrt(0.5) * rot + np.sqrt(0.5) * W_e,
                           rtol=0, atol=1e-12)
        n = H.size
        cross = np.mean(W_e * H.conj())
        # each product has unit variance, so the mean's std error is 1/sqrt(n)
        assert abs(cross) <= 3 / np.sqrt(n)
