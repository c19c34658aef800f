import numpy as np
import pytest

from pnmimo.analytics import (effective_quality, resolve_alpha, sinr_mf,
                              sinr_rzf, sinr_zf)
from pnmimo.config import SystemConfig
from pnmimo.phase_noise import t_pn_second_moment

from conftest import sinr_mf_finite_k


def _cfg(**kw):
    base = dict(M=50, K=10, M_osc=1, q0=0.9, sigma_deg_bs=6.0, sigma_deg_ue=6.0,
                tau=10, snr_db=10.0)
    base.update(kw)
    return SystemConfig(**base)


def _e_tpn2(cfg):
    return t_pn_second_moment(cfg.M_osc, cfg.tau, cfg.sigma2_bs)


class TestEffectiveQuality:
    def test_no_phase_noise_keeps_q0(self):
        assert effective_quality(_cfg(sigma_deg_bs=0.0)) == pytest.approx(0.9)

    def test_degrades_with_oscillator_count(self):
        vals = [effective_quality(_cfg(M_osc=m)) for m in (1, 2, 5, 10, 25, 50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestResolveAlpha:
    def test_optimal_mode(self):
        cfg = _cfg(q0=1.0, sigma_deg_bs=0.0, snr_db=None, sigma_w2_value=0.1)
        assert resolve_alpha(cfg) == pytest.approx(0.1 / 5.0)

    def test_fixed_mode(self):
        cfg = _cfg(alpha=0.25)
        assert resolve_alpha(cfg) == 0.25


class TestRzf:
    def test_no_phase_noise_equals_unit_second_moment(self):
        cfg = _cfg(sigma_deg_bs=0.0)
        a = 0.05
        pred = sinr_rzf(cfg, a)
        assert _e_tpn2(cfg) == 1.0
        # same formula with the phase factor literally 1
        co = _cfg(M_osc=1)  # common oscillator also has unit second moment
        assert sinr_rzf(co, a) == pytest.approx(pred, rel=1e-12)

    def test_common_dominates_distributed(self):
        for snr in (-10.0, 0.0, 10.0, 20.0, 30.0):
            a = 0.05
            co = sinr_rzf(_cfg(M_osc=1, snr_db=snr), a)
            do = sinr_rzf(_cfg(M_osc=50, snr_db=snr), a)
            assert co >= do

    def test_small_alpha_matches_zf(self):
        cfg = _cfg(M_osc=5)
        r = sinr_rzf(cfg, 1e-8)
        z = sinr_zf(cfg)
        assert r == pytest.approx(z, rel=1e-4)

    def test_large_alpha_matches_mf_in_the_joint_limit(self):
        # the MF closed form takes one extra K->infty step, so the 1e-3
        # agreement is asserted where both formulas describe the same limit;
        # at small K the honest gap is O(1/K)
        cfg = SystemConfig(M=10_000, K=2_000, M_osc=1, q0=0.9, snr_db=10.0)
        assert sinr_rzf(cfg, 1e6) == pytest.approx(sinr_mf(cfg), rel=1e-3)

    def test_tuned_regularization_near_dominates_both_limits(self):
        # the closed-form regularization is a near-optimal approximation, so
        # domination of the ZF limit holds to within a small slack rather
        # than exactly (see the strict variant below)
        for m_osc in (1, 5, 50):
            for snr in (-10.0, 0.0, 10.0, 20.0, 30.0):
                cfg = _cfg(M_osc=m_osc, snr_db=snr)
                a = resolve_alpha(cfg)
                r = sinr_rzf(cfg, a)
                assert r >= sinr_zf(cfg) * (1 - 1e-3)
                assert r >= sinr_mf(cfg)

    @pytest.mark.xfail(strict=True, reason="the closed-form regularization is "
                       "not the exact SINR argmax; at high SNR with a common "
                       "oscillator it lands slightly below the ZF limit")
    def test_tuned_regularization_dominates_exactly(self):
        for m_osc in (1, 5, 50):
            for snr in (-10.0, 0.0, 10.0, 20.0, 30.0):
                cfg = _cfg(M_osc=m_osc, snr_db=snr)
                r = sinr_rzf(cfg, resolve_alpha(cfg))
                assert r >= sinr_zf(cfg) * (1 - 1e-12)
                assert r >= sinr_mf(cfg) * (1 - 1e-12)

    def test_monotone_grid(self):
        snrs = np.linspace(-10, 30, 5)
        q0s = np.linspace(0.5, 1.0, 5)
        moscs = (1, 2, 5, 10, 50)
        for snr in snrs:
            for q0 in q0s:
                vals_mosc = [sinr_rzf(_cfg(M_osc=m, q0=q0, snr_db=snr), 0.05)
                             for m in moscs]
                assert all(a >= b for a, b in zip(vals_mosc, vals_mosc[1:]))
            for m in moscs:
                vals_q0 = [sinr_rzf(_cfg(M_osc=m, q0=q, snr_db=snr), 0.05)
                           for q in q0s]
                assert all(a <= b for a, b in zip(vals_q0, vals_q0[1:]))


class TestZf:
    def test_perfect_effective_csi_noise_limited(self):
        cfg = _cfg(q0=1.0, sigma_deg_bs=0.0, snr_db=None, sigma_w2_value=0.1)
        xi2 = 50 * 4 / 5  # equal power: M(beta-1)/beta
        assert sinr_zf(cfg) == pytest.approx(cfg.powers[0] * xi2 / 0.1, rel=1e-9)

    def test_reference_value(self):
        cfg = _cfg(snr_db=None, sigma_w2_value=0.1)
        assert sinr_zf(cfg) == pytest.approx(0.09 / (0.0225 * 0.1 + 0.1 / 40),
                                             rel=1e-9)

    def test_monotone_decreasing_in_oscillator_count(self):
        vals = [sinr_zf(_cfg(M_osc=m)) for m in (1, 2, 5, 10, 25, 50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_square_system(self):
        with pytest.raises(ValueError):
            sinr_zf(_cfg(M=10, K=10, M_osc=1))


class TestMf:
    def test_equal_power_reduction(self):
        cfg = _cfg(snr_db=None, sigma_w2_value=0.1)
        e = _e_tpn2(cfg)
        assert sinr_mf(cfg) == pytest.approx(5 * 0.9 * e / 1.1, rel=1e-12)

    def test_reference_value(self):
        cfg = _cfg(M_osc=1, snr_db=None, sigma_w2_value=0.1)
        assert sinr_mf(cfg) == pytest.approx(4.0909, abs=1e-4)

    def test_denominator_independent_of_oscillator_count(self):
        # the interference+noise denominator is unaffected by BS phase noise:
        # the ratio of predictions across M_osc equals the ratio of phase factors
        a, b = _cfg(M_osc=1), _cfg(M_osc=50)
        assert sinr_mf(b) / sinr_mf(a) == pytest.approx(_e_tpn2(b) / _e_tpn2(a),
                                                        rel=1e-12)

    def test_finite_k_exceeds_limit_form(self):
        cfg = _cfg()
        assert sinr_mf_finite_k(cfg) > sinr_mf(cfg)
