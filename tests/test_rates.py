import math

import pytest
from hypothesis import given, settings, strategies as st

from pnmimo.config import deg_to_var
from pnmimo.rates import rate_awgn_bound, rate_lapidoth, rate_min, rate_report

S2_6DEG = deg_to_var(6.0)


class TestAwgnBound:
    def test_zero(self):
        assert rate_awgn_bound(0.0) == 0.0

    def test_unit(self):
        assert rate_awgn_bound(1.0) == 1.0

    def test_mf_example(self):
        assert rate_awgn_bound(4.0909) == pytest.approx(2.348, abs=1e-3)


class TestLapidothBound:
    def test_doubling_ue_variance_costs_half_bit(self):
        a = rate_lapidoth(100.0, 10, 0.01, 0.01, M_osc=4)
        b = rate_lapidoth(100.0, 10, 0.02, 0.01, M_osc=4)
        assert a - b == pytest.approx(0.5, abs=1e-12)

    def test_common_oscillator_pays_for_bs_drift(self):
        # delta switches on only for a single common oscillator; with equal
        # variances that doubles the entropy argument, costing half a bit
        co = rate_lapidoth(100.0, 10, 0.01, 0.01, M_osc=1)
        do = rate_lapidoth(100.0, 10, 0.01, 0.01, M_osc=2)
        assert do - co == pytest.approx(0.5, abs=1e-12)

    def test_reference_value(self):
        v = 10 * 2 * S2_6DEG
        expected = 0.5 * math.log2(200 * math.pi) - 0.5 * math.log2(2 * math.pi * math.e * v)
        assert rate_lapidoth(100.0, 10, S2_6DEG, S2_6DEG, M_osc=1) == \
            pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(3.695, abs=0.02)

    @pytest.mark.parametrize("sinr, tau, s2_ue, s2_bs", [
        pytest.param(36.0, 10, 1e307, 1e307, id="v-overflows"),
        pytest.param(36.0, 1, 1.7e308, 1.7e308, id="variance-sum-overflows"),
        pytest.param(1e308, 10, 1e-3, 1e-3, id="2-pi-sinr-overflows")])
    def test_finite_where_a_product_overflows(self, sinr, tau, s2_ue, s2_bs):
        # 0.5 log2(sinr / (e v)) from the logs of the factors, as
        # log2(sinr) - log2(e) - log2(tau) - log2(s2_ue + s2_bs) in halves
        expected = 0.5 * (math.log2(sinr) - math.log2(math.e) - math.log2(tau)
                          - math.log2(s2_ue / 2 + s2_bs / 2) - 1.0)
        assert rate_lapidoth(sinr, tau, s2_ue, s2_bs, M_osc=1) == \
            pytest.approx(expected, rel=1e-15)

    @given(st.floats(1e-3, 1e6), st.integers(1, 1000), st.floats(1e-6, 10.0),
           st.floats(1e-6, 10.0), st.integers(1, 4))
    @settings(max_examples=200)
    def test_unchanged_where_every_product_is_finite(self, sinr, tau, s2_ue, s2_bs, m_osc):
        # the bits of the direct form: the split form runs only past overflow
        v = tau * (s2_ue + (s2_bs if m_osc == 1 else 0.0))
        assert rate_lapidoth(sinr, tau, s2_ue, s2_bs, m_osc) == (
            0.5 * math.log2(2.0 * math.pi * sinr)
            - 0.5 * math.log2(2.0 * math.pi * math.e * v))

    def test_undefined_at_zero_variance(self):
        assert rate_lapidoth(10.0, 5, 0.0, 0.1, M_osc=2) is None

    def test_undefined_at_zero_sinr(self):
        assert rate_lapidoth(0.0, 5, 0.1, 0.1, M_osc=2) is None


class TestRateMin:
    def test_low_sinr_awgn_active(self):
        rep = rate_report(0.5, 10, S2_6DEG, S2_6DEG, M_osc=1)
        assert rep["rate_min"] == rep["rate_awgn"]

    def test_high_sinr_entropy_active(self):
        rep = rate_report(1e6, 25, S2_6DEG, S2_6DEG, M_osc=1)
        assert rep["rate_min"] == rep["rate_lapidoth"]
        assert rep["rate_lapidoth"] < rep["rate_awgn"]

    def test_equal_bounds(self):
        assert rate_min(2.0, 2.0) == 2.0

    def test_negative_entropy_bound_degrades_gracefully(self):
        assert rate_min(0.3, -1.0) == 0.3

    def test_undefined_entropy_bound_degrades_gracefully(self):
        assert rate_min(0.3, None) == 0.3

    @given(st.floats(0.0, 1e6), st.floats(-10.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_never_exceeds_either_bound(self, awgn, lap):
        r = rate_min(awgn, lap)
        assert r <= awgn or (lap < 0 and r == max(0.0, awgn))
        if lap >= 0:
            assert r <= lap


def _ergodic(sinr):
    return rate_report(sinr, 10, S2_6DEG, S2_6DEG, M_osc=1)["rate_ergodic"]


class TestErgodic:
    def test_matches_awgn_functional_form(self):
        assert _ergodic(18.95) == pytest.approx(math.log2(19.95))
        assert _ergodic(18.95) == pytest.approx(4.318, abs=1e-3)
        assert _ergodic(18.95) == rate_awgn_bound(18.95)

    def test_zero(self):
        assert _ergodic(0.0) == 0.0


class TestReport:
    def test_min_consistency(self):
        rep = rate_report(25.0, 25, S2_6DEG, S2_6DEG, M_osc=1)
        assert rep["rate_min"] <= rep["rate_awgn"]
        assert rep["rate_min"] <= rep["rate_lapidoth"] or rep["rate_lapidoth"] < 0

    def test_zero_variance_reports_none(self):
        rep = rate_report(10.0, 10, 0.0, 0.0, M_osc=4)
        assert rep["rate_lapidoth"] is None
        assert rep["rate_min"] == rep["rate_awgn"]

    def test_zero_sinr_reports_none(self):
        # at q0 = 0 the SINR is 0: no -inf cell, the AWGN bound (0) is reported
        rep = rate_report(0.0, 10, 0.01, 0.01, M_osc=4)
        assert rep["rate_lapidoth"] is None
        assert rep["rate_min"] == rep["rate_awgn"] == 0.0
