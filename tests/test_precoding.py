import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve

from pnmimo.precoding import precoders
from pnmimo.rmt import stieltjes_mp

from conftest import draw_channel


def _hhat(M, K, seed):
    return draw_channel(M, K, np.random.default_rng(seed))


def _equal(K):
    return np.full(K, 1.0 / K)


def _G(H, powers, kind, alpha=None):
    """The library's precoder G = H^H C, or None where it rejects the draw."""
    C, = precoders(H, powers, [(kind, alpha)], np.eye(len(H)))
    return None if np.isnan(C).any() else H.conj().T @ C


def _xi(H, powers, kind, alpha=None):
    """The applied scale xi, recovered from the library's C: C = xi F P^1/2
    with F the inverse of the regularized Gram (RZF), of the Gram (ZF), or
    the identity (MF)."""
    K, M = H.shape
    C, = precoders(H, powers, [(kind, alpha)], np.eye(K))
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
        stacked = precoders(H, powers, variants, np.eye(K))
        for j in range(b):
            for (kind, _), C, C_j in zip(variants, stacked,
                                         precoders(H[j], powers, variants, np.eye(K))):
                assert np.array_equal(C[j], C_j, equal_nan=True)
                rejected = kind == "zf" and K > 1 and j == degenerate
                assert np.isnan(C_j).all() if rejected else np.isfinite(C_j).all()


    @given(st.integers(1, 8).flatmap(
               lambda K: st.tuples(st.just(K), st.integers(K, 30))),
           st.integers(1, 4), st.integers(0, 2 ** 32 - 1),
           st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=6),
           st.lists(st.sampled_from([("zf", None), ("mf", None)]), max_size=3),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_rzf_alphas_match_one_call_per_variant(self, shape, b, seed, alphas,
                                                   others, data):
        # every RZF alpha rides one array axis; mixed in any order with ZF
        # and MF, each variant keeps the bits of a call on it alone
        K, M = shape
        rng = np.random.default_rng(seed)
        H = np.stack([draw_channel(M, K, rng) for _ in range(b)])
        powers = rng.uniform(0.1, 1.0, K)
        variants = data.draw(st.permutations([("rzf", a) for a in alphas] + others))
        for variant, C in zip(variants, precoders(H, powers, variants, np.eye(K))):
            C_alone, = precoders(H, powers, [variant], np.eye(K))
            assert np.array_equal(C, C_alone, equal_nan=True)


class TestPowerConstraint:
    @pytest.mark.parametrize("seed", range(10))
    def test_all_builders_unit_trace(self, seed):
        H = _hhat(64, 16, seed)
        p = _equal(16)
        for C in precoders(H, p, [("rzf", 0.1), ("zf", None), ("mf", None)], np.eye(16)):
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
        for (kind, _), C, ref in zip(variants, precoders(H, powers, variants, np.eye(K)),
                                     oracles):
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
        m, mp = stieltjes_mp(alpha, M / K)
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


class TestZf:
    def test_exact_nulling(self):
        H = _hhat(64, 16, 5)
        prod = H @ _G(H, _equal(16), "zf")
        diag = np.abs(np.diag(prod))
        off = np.abs(prod - np.diag(np.diag(prod)))
        assert off.max() <= 1e-9 * diag.min()

    def test_condition_cap_flags_square_degenerate_channel(self):
        H = _hhat(16, 16, 7)
        # force near-singularity by duplicating a row
        H[1] = H[0] * (1 + 1e-14)
        C, = precoders(H, _equal(16), [("zf", None)], np.eye(16))
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


class TestLeftRows:
    """precoders(..., left) is left @ C without forming C."""

    VARIANTS = [("rzf", a) for a in np.geomspace(1e-3, 1e2, 9)] + [("zf", None),
                                                                   ("mf", None)]

    @pytest.mark.parametrize("b", [None, 3])
    def test_identity_left_gives_the_coefficient_matrices(self, b):
        # an identity, also broadcast over a stack, gives C bit for bit (its
        # products add exact zeros): RZF's and ZF's normalized spectral
        # filters U diag(d) U^H P^1/2, and MF's scaled identity, scale_k on
        # the diagonal
        rng = np.random.default_rng(11)
        K, M = 6, 20
        H = draw_channel(M, K, rng) if b is None else np.stack(
            [draw_channel(M, K, rng) for _ in range(b)])
        p = rng.uniform(0.1, 1.0, K)
        eye = np.eye(K) if b is None else np.broadcast_to(np.eye(K), (b, K, K))
        lam, U = np.linalg.eigh(H @ H.conj().swapaxes(-1, -2))
        UhP = U.conj().swapaxes(-1, -2) * np.sqrt(p)
        energy = np.sum(np.abs(UhP) ** 2, axis=-1)

        def spectral(d):
            d = d / np.sqrt(np.sum(lam * d ** 2 * energy, axis=-1, keepdims=True))
            return (U * d[..., None, :]) @ UhP

        gram_diag = np.sum(np.abs(H) ** 2, axis=-1)
        scale = np.sqrt(p) / np.sqrt(np.sum(p * gram_diag, axis=-1, keepdims=True))
        for C, (kind, alpha) in zip(precoders(H, p, self.VARIANTS, eye), self.VARIANTS):
            ref = (scale[..., None] * np.eye(K) if kind == "mf"
                   else spectral(1.0 / (M * alpha + lam) if kind == "rzf" else 1.0 / lam))
            assert C.shape == H.shape[:-1] + (K,)
            assert np.array_equal(C, ref), kind

    @pytest.mark.parametrize("b, rows", [(None, 1), (None, 3), (4, 1), (4, 2)])
    def test_matches_left_times_coefficients(self, b, rows):
        rng = np.random.default_rng(12)
        K, M = 8, 30
        H = draw_channel(M, K, rng) if b is None else np.stack(
            [draw_channel(M, K, rng) for _ in range(b)])
        p = rng.uniform(0.1, 1.0, K)
        L = (rng.standard_normal(H.shape[:-2] + (rows, K))
             + 1j * rng.standard_normal(H.shape[:-2] + (rows, K)))
        for C, LC, (kind, _) in zip(precoders(H, p, self.VARIANTS, np.eye(K)),
                                    precoders(H, p, self.VARIANTS, L), self.VARIANTS):
            ref = L @ C
            assert LC.shape == ref.shape
            assert np.linalg.norm(LC - ref) <= 1e-13 * np.linalg.norm(ref), kind

    def test_stack_slices_keep_their_bits_and_zf_rejects_one(self):
        # each slice of a stacked call with rows equals a call on that slice
        # alone; a singular slice is NaN in the ZF output only
        rng = np.random.default_rng(13)
        K, M, b = 5, 12, 4
        H = np.stack([draw_channel(M, K, rng) for _ in range(b)])
        H[2, 1] = H[2, 0]
        p = rng.uniform(0.1, 1.0, K)
        L = rng.standard_normal((b, 1, K)) + 1j * rng.standard_normal((b, 1, K))
        stacked = precoders(H, p, self.VARIANTS, L)
        for j in range(b):
            for (kind, _), LC, LC_j in zip(self.VARIANTS, stacked,
                                           precoders(H[j], p, self.VARIANTS, L[j])):
                assert np.array_equal(LC[j], LC_j, equal_nan=True)
                rejected = kind == "zf" and j == 2
                assert np.isnan(LC_j).all() if rejected else np.isfinite(LC_j).all()
