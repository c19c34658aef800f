import numpy as np
import pytest

from pnmimo.channel import draw_channel
from pnmimo.precoding import (SingularChannelError, build_mf, build_rzf, build_zf)
from pnmimo.rmt import stieltjes_mp, stieltjes_mp_derivative


def _hhat(M, K, seed):
    return draw_channel(M, K, np.random.default_rng(seed))


def _equal(K):
    return np.full(K, 1.0 / K)


class TestPowerConstraint:
    @pytest.mark.parametrize("seed", range(10))
    def test_all_builders_unit_trace(self, seed):
        H = _hhat(64, 16, seed)
        p = _equal(16)
        for pm in (build_rzf(H, 0.1, p), build_zf(H, p), build_mf(H, p)):
            assert np.trace(pm.G.conj().T @ pm.G).real == pytest.approx(1.0, rel=1e-10)


class TestRzf:
    def test_dual_form_matches_direct_inverse(self):
        M, K, alpha = 48, 12, 0.3
        H = _hhat(M, K, 0)
        p = _equal(K)
        pm = build_rzf(H, alpha, p)
        direct = np.linalg.solve(H.conj().T @ H + M * alpha * np.eye(M),
                                 H.conj().T @ np.diag(np.sqrt(p)))
        direct /= np.linalg.norm(direct)
        assert np.allclose(pm.G, direct, atol=1e-12)

    def test_xi_matches_asymptotic_normalization(self):
        M, K, alpha = 256, 64, 0.5
        p = _equal(K)
        xis = [build_rzf(_hhat(M, K, s), alpha, p).xi_empirical for s in range(200)]
        m = stieltjes_mp(alpha, M / K)
        mp = stieltjes_mp_derivative(alpha, M / K)
        predicted = np.sqrt(M * (1 + m) ** 2 / (mp * p.sum()))
        assert np.mean(xis) == pytest.approx(predicted, rel=0.03)

    def test_large_alpha_approaches_matched_filter(self):
        H = _hhat(32, 1, 1)
        p = _equal(1)
        g_rzf = build_rzf(H, 1e6, p).G[:, 0]
        g_mf = build_mf(H, p).G[:, 0]
        cos = abs(g_rzf.conj() @ g_mf) / (np.linalg.norm(g_rzf) * np.linalg.norm(g_mf))
        assert cos >= 1 - 1e-6

    def test_small_alpha_approaches_zf(self):
        H = _hhat(64, 16, 2)
        p = _equal(16)
        G_rzf = build_rzf(H, 1e-8, p).G
        G_zf = build_zf(H, p).G
        for k in range(16):
            dev = np.linalg.norm(G_rzf[:, k] - G_zf[:, k]) / np.linalg.norm(G_zf[:, k])
            assert dev <= 1e-4

    def test_per_column_cosine_to_mf_at_large_alpha(self):
        H = _hhat(64, 16, 3)
        p = _equal(16)
        G_rzf = build_rzf(H, 1e6, p).G
        G_mf = build_mf(H, p).G
        for k in range(16):
            a, b = G_rzf[:, k], G_mf[:, k]
            cos = abs(a.conj() @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
            assert cos >= 1 - 1e-6

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            build_rzf(_hhat(8, 2, 4), 0.0, _equal(2))


class TestZf:
    def test_exact_nulling(self):
        H = _hhat(64, 16, 5)
        pm = build_zf(H, _equal(16))
        prod = H @ pm.G
        diag = np.abs(np.diag(prod))
        off = np.abs(prod - np.diag(np.diag(prod)))
        assert off.max() <= 1e-9 * diag.min()

    def test_requires_wide_channel(self):
        with pytest.raises(ValueError):
            build_zf(_hhat(8, 16, 6), _equal(16))

    def test_condition_cap_flags_square_degenerate_channel(self):
        H = _hhat(16, 16, 7)
        # force near-singularity by duplicating a row
        H[1] = H[0] * (1 + 1e-14)
        with pytest.raises(SingularChannelError):
            build_zf(H, _equal(16))

    def test_empirical_xi2_matches_closed_form_limit(self):
        M, K = 50, 10
        p = _equal(K)
        xi2 = [build_zf(_hhat(M, K, s), p).xi_empirical ** 2 for s in range(500)]
        assert np.mean(xi2) == pytest.approx(M * (M / K - 1) / (M / K), rel=0.05)


class TestMf:
    def test_columns_parallel_to_estimate(self):
        H = _hhat(32, 8, 8)
        pm = build_mf(H, _equal(8))
        for k in range(8):
            a, b = pm.G[:, k], H[k].conj()
            cos = abs(a.conj() @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
            assert cos >= 1 - 1e-12

    def test_normalization_identity(self):
        H = _hhat(32, 8, 9)
        p = _equal(8)
        pm = build_mf(H, p)
        total = pm.xi_empirical ** 2 * sum(
            p[k] * np.linalg.norm(H[k]) ** 2 for k in range(8))
        assert total == pytest.approx(1.0, rel=1e-12)
