import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pnmimo.analytics import sinr_rzf, sinr_zf
from pnmimo.config import (ConfigError, SystemConfig, deg_to_var, optimal_alpha,
                           t_pn_second_moment)
from pnmimo.rmt import stieltjes_mp
from pnmimo.sweep import PRESETS, _cell

from conftest import empirical_resolvent_trace


def rzf_equivalents(alpha, beta, M, powers, k):
    """Hardening t, interference t2 of UE k, and normalization xi^2 of the RZF
    large-system SINR, each from its defining expression in m and m'."""
    m, mp = stieltjes_mp(alpha, beta)
    powers = np.asarray(powers, dtype=float)
    t = m / (m + 1.0)
    t2 = (powers.sum() - powers[k]) * mp / (1.0 + m) ** 2
    xi2 = M * (1.0 + m) ** 2 / (mp * powers.sum())
    return t, t2, xi2


def zf_limits(beta, M, powers, k):
    """Closed-form alpha -> 0 limits of t2 and xi^2, defined for beta > 1."""
    powers = np.asarray(powers, dtype=float)
    return ((powers.sum() - powers[k]) * beta / (beta - 1.0),
            M * (beta - 1.0) / (beta * powers.sum()))


def zf_configurations():
    """Every ZF scenario the presets and the test suite evaluate.

    The ZF presets sweep snr, sigma_phi or m_osc, none of which changes the
    (M, K, powers, ue_index) that t2 and xi^2 depend on.
    """
    cfgs = [SystemConfig(**{**p.config, **v}) for p in PRESETS.values()
            if "zf" in p.precoders for v in (p.variants or ({},))]
    cfgs += [SystemConfig(M=M, K=K, M_osc=1) for M, K in
             ((50, 10), (200, 40), (20, 4), (16, 4), (64, 16), (100, 25),
              (32, 8), (8, 1))]
    cfgs.append(SystemConfig(M=6, K=3, M_osc=1, powers=np.array([0.5, 0.3, 0.2]),
                             ue_index=2))
    return cfgs


class TestStieltjes:
    def test_beta1_alpha1_golden_ratio(self):
        assert stieltjes_mp(1.0, 1.0)[0] == pytest.approx((np.sqrt(5) - 1) / 2, abs=1e-12)

    def test_alpha10_beta2(self):
        assert stieltjes_mp(10.0, 2.0)[0] == pytest.approx((1 - 20 + np.sqrt(521)) / 40, abs=1e-12)

    def test_large_alpha_limit(self):
        for beta in (1.0, 2.0, 5.0):
            assert 1e8 * stieltjes_mp(1e8, beta)[0] == pytest.approx(1.0, rel=1e-6)

    def test_matches_empirical_trace(self):
        rng = np.random.default_rng(0)
        vals = [empirical_resolvent_trace(1024, 1024, 1.0, rng) for _ in range(3)]
        assert np.mean(vals) == pytest.approx(stieltjes_mp(1.0, 1.0)[0], rel=0.02)

    def test_quadratic_fixed_point(self):
        # alpha*beta*m^2 + (1 + alpha*beta - beta)*m - beta = 0
        for alpha, beta in [(0.3, 1.5), (2.0, 4.0), (0.01, 10.0)]:
            m, _ = stieltjes_mp(alpha, beta)
            assert alpha * beta * m * m + (1 + alpha * beta - beta) * m - beta == \
                pytest.approx(0.0, abs=1e-10)

    @given(st.floats(0.01, 100), st.floats(1.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_positive(self, alpha, beta):
        assert stieltjes_mp(alpha, beta)[0] > 0

    @given(st.floats(0.01, 50), st.floats(1.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_decreasing_in_alpha(self, alpha, beta):
        assert stieltjes_mp(alpha, beta)[0] > stieltjes_mp(alpha * 1.01, beta)[0]

    def test_trace_error_halves_as_M_doubles(self):
        rng = np.random.default_rng(3)
        errs = []
        for M in (512, 1024, 2048):
            devs = [abs(empirical_resolvent_trace(M, M // 2, 0.5, rng)
                        - stieltjes_mp(0.5, 2.0)[0]) for _ in range(32)]
            errs.append(np.median(devs))
        for a, b in zip(errs, errs[1:]):
            assert 1.5 <= a / b <= 3.0  # roughly halves per doubling, within MC noise
        assert errs[0] / errs[-1] > 2.0


class TestDerivative:
    @pytest.mark.parametrize("alpha,beta", [(0.1, 1.0), (1.0, 1.0), (0.5, 2.0),
                                            (3.0, 5.0), (10.0, 2.0)])
    def test_matches_finite_difference(self, alpha, beta):
        h = 1e-6 * alpha
        fd = (stieltjes_mp(alpha - h, beta)[0] - stieltjes_mp(alpha + h, beta)[0]) / (2 * h)
        assert stieltjes_mp(alpha, beta)[1] == pytest.approx(fd, rel=1e-6)

    def test_large_alpha_expansion(self):
        for alpha in (1e3, 1e4):
            for beta in (1.0, 3.0):
                m, mp = stieltjes_mp(alpha, beta)
                approx = 2 * m / alpha - 1 / alpha ** 2
                assert mp == pytest.approx(approx, rel=1e-3)

    def test_matches_empirical_squared_trace(self):
        rng = np.random.default_rng(1)
        vals = [empirical_resolvent_trace(1024, 1024, 1.0, rng, power=2) for _ in range(3)]
        assert np.mean(vals) == pytest.approx(stieltjes_mp(1.0, 1.0)[1], rel=0.03)

    @given(st.floats(0.01, 100), st.floats(1.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_positive(self, alpha, beta):
        assert stieltjes_mp(alpha, beta)[1] > 0


class TestHardening:
    def test_half(self):
        # m(-0.5) = 1 at beta = 1
        assert rzf_equivalents(0.5, 1.0, 8, [1.0], 0)[0] == pytest.approx(0.5)

    def test_zf_limit(self):
        assert rzf_equivalents(1e-12, 2.0, 8, [1.0], 0)[0] == pytest.approx(1.0, abs=1e-11)

    def test_beta1_alpha1_value(self):
        assert rzf_equivalents(1.0, 1.0, 8, [1.0], 0)[0] == pytest.approx(0.381966, abs=1e-5)


class TestNormalizationAndInterference:
    def test_equal_power_xi(self):
        m, mp = stieltjes_mp(0.5, 4.0)
        xi2 = rzf_equivalents(0.5, 4.0, 128, np.full(32, 1 / 32), 0)[2]
        assert xi2 == pytest.approx(128 * (1 + m) ** 2 / mp)

    def test_zf_limit_xi2(self):
        p = np.full(64, 1 / 64)
        assert zf_limits(4.0, 256, p, 0)[1] == pytest.approx(256 * 3 / 4)
        assert rzf_equivalents(1e-8, 4.0, 256, p, 0)[2] == pytest.approx(256 * 3 / 4,
                                                                         rel=1e-6)

    def test_zf_limit_t2(self):
        K = 10
        p = np.full(K, 1 / K)
        assert zf_limits(5.0, 50, p, 0)[0] == pytest.approx((K - 1) / K * 5.0 / 4.0)
        assert rzf_equivalents(1e-8, 5.0, 50, p, 0)[1] == pytest.approx(
            (K - 1) / K * 5.0 / 4.0, rel=1e-6)

    def test_equal_power_t2(self):
        K = 16
        m, mp = stieltjes_mp(1.0, 2.0)
        assert rzf_equivalents(1.0, 2.0, 32, np.full(K, 1 / K), 3)[1] == pytest.approx(
            (K - 1) / K * mp / (1 + m) ** 2)

    def test_single_ue_no_interference(self):
        # with one UE only the noise term is left in either denominator
        cfg = SystemConfig(M=8, K=1, M_osc=2, snr_db=None, sigma_w2_value=0.1)
        q = cfg.q_eff
        t, t2, xi2 = rzf_equivalents(1.0, 8.0, 8, [1.0], 0)
        assert t2 == 0.0
        assert sinr_rzf(cfg, 1.0) == pytest.approx(t ** 2 * q * xi2 / 0.1, rel=1e-12)
        assert sinr_zf(cfg) == pytest.approx(q * 8 * 7 / 8 / 0.1, rel=1e-12)

    def test_zf_limit_requires_beta_above_one(self):
        # at beta = 1 the small-alpha RZF quantities have no finite limit:
        # t2 grows like alpha^(-1/2) and xi^2 vanishes like alpha^(1/2)
        p = np.full(64, 1 / 64)
        _, t2_a, xi2_a = rzf_equivalents(1e-6, 1.0, 64, p, 0)
        _, t2_b, xi2_b = rzf_equivalents(1e-8, 1.0, 64, p, 0)
        assert t2_b / t2_a == pytest.approx(10.0, rel=0.01)
        assert xi2_b / xi2_a == pytest.approx(0.1, rel=0.01)


class TestZfLimit:
    def test_closed_form_matches_small_alpha_rzf(self):
        for cfg in zf_configurations():
            _, t2, xi2 = rzf_equivalents(1e-8, cfg.beta, cfg.M, cfg.powers, cfg.ue_index)
            zf_t2, zf_xi2 = zf_limits(cfg.beta, cfg.M, cfg.powers, cfg.ue_index)
            assert zf_t2 == pytest.approx(t2, rel=1e-6, abs=0.0)
            assert zf_xi2 == pytest.approx(xi2, rel=1e-6, abs=0.0)

    def test_sinr_closed_forms_assemble_the_equivalents(self):
        for cfg in zf_configurations():
            for snr in (-10.0, 10.0, 30.0):
                point = replace(cfg, snr_db=snr, sigma_w2_value=None)
                q, s2, M = point.q_eff, point.sigma_w2, point.M
                p_k = point.powers[point.ue_index]
                zf_t2, zf_xi2 = zf_limits(point.beta, M, point.powers, point.ue_index)
                assert sinr_zf(point) == pytest.approx(
                    p_k * q / (zf_t2 / M * (1 - q) + s2 / zf_xi2), rel=1e-12)
                for alpha in (1e-3, 0.1, 10.0):
                    m, _ = stieltjes_mp(alpha, point.beta)
                    t, t2, xi2 = rzf_equivalents(alpha, point.beta, M, point.powers,
                                                 point.ue_index)
                    den = t2 / M * (1 - t * q - t * q / (1 + m)) + s2 / xi2
                    assert sinr_rzf(point, alpha) == pytest.approx(
                        p_k * t ** 2 * q / den, rel=1e-12)


class TestOptimalAlpha:
    def test_perfect_csi_example(self):
        assert optimal_alpha(1.0, 1.0, 0.1, 5.0) == pytest.approx(0.02)

    def test_vanishes_with_noise(self):
        assert optimal_alpha(1.0, 1.0, 0.0, 5.0) == 0.0

    @pytest.mark.xfail(strict=True, reason="the closed-form regularization is a "
                       "near-optimal approximation, not the exact argmax of the "
                       "RZF SINR expression; grid search finds a better alpha "
                       "by more than the stated tolerance")
    def test_is_argmax_on_grid(self):
        rng = np.random.default_rng(42)
        grid = np.logspace(-4, 2, 1000)
        for _ in range(200):
            q0 = rng.uniform(0.5, 1.0)
            sigma_deg = rng.uniform(1.0, 10.0)
            tau = int(rng.integers(1, 30))
            M_osc = int(rng.choice([1, 2, 5, 10, 50]))
            snr_db = rng.uniform(-10, 30)
            cfg = SystemConfig(M=50, K=10, M_osc=M_osc, q0=q0,
                               sigma_deg_bs=sigma_deg, sigma_deg_ue=sigma_deg,
                               tau=tau, snr_db=snr_db)
            e = t_pn_second_moment(M_osc, tau, deg_to_var(sigma_deg))
            a_star = optimal_alpha(q0, e, cfg.sigma_w2, cfg.beta)
            best = sinr_rzf(cfg, a_star)
            for a in grid:
                assert best >= sinr_rzf(cfg, float(a)) * (1 - 1e-9)


def stieltjes_mp_numpy(alpha, beta):
    """stieltjes_mp with its square root on a numpy scalar, so that (m, m')
    and all arithmetic after it run on numpy scalars: the oracle of the
    Python-float bits and failures."""
    s = np.sqrt(beta * beta * alpha * alpha + 2 * (beta + 1) * alpha * beta + (1 - beta) ** 2)
    f = beta - 1 - alpha * beta + s
    m = f / (2 * alpha * beta)
    ds = beta * (beta * alpha + beta + 1) / s
    return m, -((-beta + ds) * alpha - f) / (2 * alpha * alpha * beta)


def sinr_rzf_numpy(config, alpha):
    """sinr_rzf on the numpy-scalar (m, m'), where numpy's raise mode
    turned an overflow into an error."""
    q, p_k, psum = config.q_eff, config.p_k, config.p_sum
    m, mp = stieltjes_mp_numpy(alpha, config.beta)
    t = m / (m + 1.0)
    t2 = (psum - p_k) * mp / (1.0 + m) ** 2
    xi2 = config.M * (1.0 + m) ** 2 / (mp * psum)
    den = (t2 / config.M) * (1.0 - t * q - t * q / (1.0 + m)) + config.sigma_w2 / xi2
    return float(p_k * t ** 2 * q / den)


def _pair_outcome(alpha, beta, stieltjes):
    """(m, m') as hex, or "fails" where either is not finite or the
    evaluation raises an ArithmeticError, under a sweep plan's raise mode."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            pair = stieltjes(alpha, beta)
        except ArithmeticError:
            return "fails"
    return (tuple(float(v).hex() for v in pair) if all(map(math.isfinite, pair))
            else "fails")


# alpha and beta from the subnormal floor to the largest float
_ALPHAS = st.one_of(st.floats(5e-324, 1.7e308), st.sampled_from(
    [5e-324, 1e-320, 1e-310, 1e-160, 1e-155, 1.0, 1e154, 1e160, 1e300, 1.7e308]))
_BETAS = st.one_of(st.floats(1.0, 1.7e308), st.sampled_from(
    [1.0, 1.0000000000000002, 2.0, 1e10, 1e154, 1.3e154, 1e155, 1e300]))


class TestPythonFloats:
    """stieltjes_mp and sinr_rzf run on Python floats with the bits and the
    failures of their numpy-scalar evaluation."""

    def test_pair_is_python_floats(self):
        assert {type(v) for v in stieltjes_mp(0.5, 2.0)} == {float}

    @given(_ALPHAS, _BETAS)
    @example(1e-160, 7.943636790085676e17)
    @example(2.691140997223353e205, 1.0)
    @settings(max_examples=1000, deadline=None)
    def test_pair_matches_numpy_scalars(self, alpha, beta):
        assert (_pair_outcome(alpha, beta, stieltjes_mp)
                == _pair_outcome(alpha, beta, stieltjes_mp_numpy))

    # the scenarios where an intermediate overflows to inf, which numpy's
    # raise mode failed and 1/inf would hide, give the same nan cell
    @given(st.integers(1, 50), st.one_of(st.integers(1, 10), st.integers(1, 10 ** 300)),
           _ALPHAS, st.floats(-3100.0, 3100.0), st.floats(0.0, 1.0),
           st.sampled_from([0.0, 6.0, 100.0]),
           st.one_of(st.just("equal"), st.lists(
               st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e300]), min_size=3, max_size=3)))
    @example(2, 1, 1e-160, -3080.0, 0.9, 6.0, "equal")
    @example(1, 1, 1e-155, -3000.0, 0.9, 6.0, "equal")
    @example(10, 5, 1.0, 20.0, 0.9, 6.0, [1e300, 1e300, 0.0])
    @example(183541, 1, 1e-155, 0.0, 1e-48, 6.0, "equal")
    @settings(max_examples=1500, deadline=None)
    def test_rzf_cell_matches_numpy_scalars(self, K, ratio, alpha, snr_db, q0, deg, powers):
        if not isinstance(powers, str):
            K = len(powers)
        try:
            cfg = SystemConfig(M=K * ratio, K=K, q0=q0, sigma_deg_bs=deg, snr_db=snr_db,
                               alpha=alpha, powers=powers if isinstance(powers, str)
                               else tuple(powers), n_realizations=2)
        except ConfigError:
            return
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = _cell(sinr_rzf, cfg, alpha)
            want = _cell(sinr_rzf_numpy, cfg, alpha)
        assert got.hex() == want.hex()  # nan and inf cells compare as text
