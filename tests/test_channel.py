import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnmimo.channel import synthesize_estimate
from pnmimo.phase_noise import theta_vector

from conftest import draw_channel, simulate_wiener


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


class TestSynthesizeEstimateInPlace:
    """synthesize_estimate writes the bits of the Gauss-Markov formula, into
    out or into a new array."""

    # out is theta0 itself (the kernel's use), a separate array or None; the
    # product keeps its operand order, theta0 times H, because under FMA
    # H times theta0 rounds differently in the last bit
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.37, 1.0]),
           st.sampled_from([1, 3, 12]), st.integers(1, 3),
           st.sampled_from(["theta0", "separate", None]))
    @settings(max_examples=60, deadline=None)
    def test_out_matches_the_formula(self, seed, q0, M_osc, b, into):
        rng = np.random.default_rng(seed)
        K, M = 4, 12
        H, W_e = (draw_channel(M, b * K, rng).reshape(b, K, M) for _ in range(2))
        bs, ue = rng.uniform(-7.0, 7.0, (b, 1, M_osc)), rng.uniform(-7.0, 7.0, (b, K))
        theta0 = theta_vector(ue, bs, M)
        want = np.sqrt(q0) * (theta0 * H) + np.sqrt(1.0 - q0) * W_e
        W_work, theta_work = W_e.copy(), theta0.copy()
        out = {"theta0": theta_work, "separate": np.empty_like(H), None: None}[into]
        got = synthesize_estimate(H, theta_work, q0, W_work, out=out)
        assert out is None or got is out
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # W_e is the workspace of its scaled copy
        scaled = np.sqrt(1.0 - q0) * W_e
        assert np.array_equal(W_work.view(np.uint64), scaled.view(np.uint64))
