import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve

from pnmimo.channel import draw_channel
from pnmimo.precoding import precoders
from pnmimo.rmt import stieltjes_mp, stieltjes_mp_derivative


def _hhat(M, K, seed):
    return draw_channel(M, K, np.random.default_rng(seed))


def _equal(K):
    return np.full(K, 1.0 / K)


def _G(H, powers, kind, alpha=None):
    """The library's precoder G = H^H C, or None where it rejects the draw."""
    C, = precoders(H, powers, [(kind, alpha)])
    return None if np.isnan(C).any() else H.conj().T @ C


def _xi(H, powers, kind, alpha=None):
    """The applied scale xi, recovered from the library's C: C = xi F P^1/2
    with F the inverse of the regularized Gram (RZF), of the Gram (ZF), or
    the identity (MF)."""
    K, M = H.shape
    C, = precoders(H, powers, [(kind, alpha)])
    if kind != "mf":
        C = (H @ H.conj().T + (M * alpha if kind == "rzf" else 0.0) * np.eye(K)) @ C
    return float(np.mean(np.diag(C).real / np.sqrt(powers)))


# Oracles: the builders' Cholesky, solve and conjugate formulas, normalized
# to unit Frobenius norm.

def _unit(raw):
    return raw / np.linalg.norm(raw)


def rzf_oracle(H, alpha, powers):
    K, M = H.shape
    gram = H @ H.conj().T + (M * alpha) * np.eye(K)
    return _unit(H.conj().T @ cho_solve(cho_factor(gram), np.diag(np.sqrt(powers))))


def zf_oracle(H, powers):
    return _unit(H.conj().T @ np.linalg.solve(H @ H.conj().T, np.diag(np.sqrt(powers))))


def mf_oracle(H, powers):
    return _unit(H.conj().T * np.sqrt(powers))


class TestStacked:
    @given(st.integers(1, 10).flatmap(
               lambda K: st.tuples(st.just(K), st.integers(K, 40))),
           st.integers(1, 5), st.integers(0, 2 ** 32 - 1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_stack_matches_per_slice_calls(self, shape, b, seed, data):
        K, M = shape
        rng = np.random.default_rng(seed)
        H = np.stack([draw_channel(M, K, rng) for _ in range(b)])
        degenerate = data.draw(st.integers(0, b - 1))
        if K > 1:
            H[degenerate, 1] = H[degenerate, 0]  # a singular Gram ZF rejects
        powers = rng.uniform(0.1, 1.0, K)
        variants = [("rzf", 0.2), ("zf", None), ("mf", None), ("rzf", 3.0)]
        stacked = precoders(H, powers, variants)
        for j in range(b):
            for (kind, _), C, C_j in zip(variants, stacked,
                                         precoders(H[j], powers, variants)):
                assert np.array_equal(C[j], C_j, equal_nan=True)
                rejected = kind == "zf" and K > 1 and j == degenerate
                assert np.isnan(C_j).all() if rejected else np.isfinite(C_j).all()


class TestPowerConstraint:
    @pytest.mark.parametrize("seed", range(10))
    def test_all_builders_unit_trace(self, seed):
        H = _hhat(64, 16, seed)
        p = _equal(16)
        for C in precoders(H, p, [("rzf", 0.1), ("zf", None), ("mf", None)]):
            G = H.conj().T @ C
            assert np.trace(G.conj().T @ G).real == pytest.approx(1.0, rel=1e-10)


class TestOracles:
    @given(st.integers(1, 12).flatmap(
               lambda K: st.tuples(st.just(K), st.integers(K + 1, 64))),
           st.floats(-3.0, 3.0),
           st.lists(st.floats(0.01, 1.0), min_size=12, max_size=12),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_matches_builder_formulas(self, shape, log_alpha, raw_powers, seed):
        K, M = shape
        alpha = 10.0 ** log_alpha
        powers = np.array(raw_powers[:K])
        H = _hhat(M, K, seed)
        variants = [("rzf", alpha), ("zf", None), ("mf", None)]
        oracles = [rzf_oracle(H, alpha, powers), zf_oracle(H, powers),
                   mf_oracle(H, powers)]
        for (kind, _), C, ref in zip(variants, precoders(H, powers, variants), oracles):
            G = H.conj().T @ C
            assert np.linalg.norm(G - ref) <= 1e-10 * np.linalg.norm(ref), kind
            assert np.linalg.norm(G) == pytest.approx(1.0, rel=1e-12)
            if kind == "zf":
                eff = H @ G
                off = np.abs(eff - np.diag(np.diag(eff)))
                assert off.max() <= 1e-9 * np.abs(np.diag(eff)).min()


class TestRzf:
    def test_dual_form_matches_direct_inverse(self):
        M, K, alpha = 48, 12, 0.3
        H = _hhat(M, K, 0)
        p = _equal(K)
        G = _G(H, p, "rzf", alpha)
        direct = np.linalg.solve(H.conj().T @ H + M * alpha * np.eye(M),
                                 H.conj().T @ np.diag(np.sqrt(p)))
        direct /= np.linalg.norm(direct)
        assert np.allclose(G, direct, atol=1e-12)

    def test_xi_matches_asymptotic_normalization(self):
        M, K, alpha = 256, 64, 0.5
        p = _equal(K)
        xis = [_xi(_hhat(M, K, s), p, "rzf", alpha) for s in range(200)]
        m = stieltjes_mp(alpha, M / K)
        mp = stieltjes_mp_derivative(alpha, M / K)
        predicted = np.sqrt(M * (1 + m) ** 2 / (mp * p.sum()))
        assert np.mean(xis) == pytest.approx(predicted, rel=0.03)

    def test_large_alpha_approaches_matched_filter(self):
        H = _hhat(32, 1, 1)
        p = _equal(1)
        g_rzf = _G(H, p, "rzf", 1e6)[:, 0]
        g_mf = _G(H, p, "mf")[:, 0]
        cos = abs(g_rzf.conj() @ g_mf) / (np.linalg.norm(g_rzf) * np.linalg.norm(g_mf))
        assert cos >= 1 - 1e-6

    def test_small_alpha_approaches_zf(self):
        H = _hhat(64, 16, 2)
        p = _equal(16)
        G_rzf = _G(H, p, "rzf", 1e-8)
        G_zf = _G(H, p, "zf")
        for k in range(16):
            dev = np.linalg.norm(G_rzf[:, k] - G_zf[:, k]) / np.linalg.norm(G_zf[:, k])
            assert dev <= 1e-4

    def test_per_column_cosine_to_mf_at_large_alpha(self):
        H = _hhat(64, 16, 3)
        p = _equal(16)
        G_rzf = _G(H, p, "rzf", 1e6)
        G_mf = _G(H, p, "mf")
        for k in range(16):
            a, b = G_rzf[:, k], G_mf[:, k]
            cos = abs(a.conj() @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
            assert cos >= 1 - 1e-6

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            precoders(_hhat(8, 2, 4), _equal(2), [("rzf", 0.0)])


class TestZf:
    def test_exact_nulling(self):
        H = _hhat(64, 16, 5)
        prod = H @ _G(H, _equal(16), "zf")
        diag = np.abs(np.diag(prod))
        off = np.abs(prod - np.diag(np.diag(prod)))
        assert off.max() <= 1e-9 * diag.min()

    def test_requires_wide_channel(self):
        with pytest.raises(ValueError):
            precoders(_hhat(8, 16, 6), _equal(16), [("zf", None)])

    def test_condition_cap_flags_square_degenerate_channel(self):
        H = _hhat(16, 16, 7)
        # force near-singularity by duplicating a row
        H[1] = H[0] * (1 + 1e-14)
        C, = precoders(H, _equal(16), [("zf", None)])
        assert np.isnan(C).all()

    def test_empirical_xi2_matches_closed_form_limit(self):
        M, K = 50, 10
        p = _equal(K)
        xi2 = [_xi(_hhat(M, K, s), p, "zf") ** 2 for s in range(500)]
        assert np.mean(xi2) == pytest.approx(M * (M / K - 1) / (M / K), rel=0.05)


class TestMf:
    def test_columns_parallel_to_estimate(self):
        H = _hhat(32, 8, 8)
        G = _G(H, _equal(8), "mf")
        for k in range(8):
            a, b = G[:, k], H[k].conj()
            cos = abs(a.conj() @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
            assert cos >= 1 - 1e-12

    def test_normalization_identity(self):
        H = _hhat(32, 8, 9)
        p = _equal(8)
        total = _xi(H, p, "mf") ** 2 * sum(
            p[k] * np.linalg.norm(H[k]) ** 2 for k in range(8))
        assert total == pytest.approx(1.0, rel=1e-12)
