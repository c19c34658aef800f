import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from pnmimo.config import deg_to_var, t_pn_second_moment
from pnmimo.phase_noise import theta_vector

from conftest import simulate_wiener

SIGMA2_6DEG = deg_to_var(6.0)


def mc_t_pn(n_draws, M_osc, tau, sigma2, rng):
    """Vectorized draws of the normalized phase-drift trace."""
    inc = rng.normal(0.0, np.sqrt(tau * sigma2), size=(n_draws, M_osc))
    return np.exp(1j * inc).mean(axis=1)


def drift(phases, M):
    """Per-antenna phase rotation accumulated between symbols 0 and tau, as seen
    through the UE-0 phase matrices; the BS drift alone when UE 0 is still."""
    bs, ue = phases[0], phases[1][:, 0]
    return theta_vector(ue[1], bs[1], M) * np.conj(theta_vector(ue[0], bs[0], M))


def t_pn(phases, M):
    """Normalized trace (1/M) tr(Delta Phi) of the BS drift matrix."""
    bs = phases[0]
    return complex(theta_vector(0.0, bs[1] - bs[0], M).mean())


def antenna_phases(bs_phases, M):
    """The BS phase seen at each antenna, read back through theta_vector."""
    return np.angle(theta_vector(0.0, np.asarray(bs_phases, dtype=float), M))


class TestTopology:
    def test_block_structure(self):
        # three oscillators feed contiguous blocks of four antennas each
        assert np.allclose(antenna_phases([0.1, 0.2, 0.3], 12),
                           np.repeat([0.1, 0.2, 0.3], 4), rtol=0, atol=1e-15)

    def test_common_and_distributed_flags(self):
        # one oscillator feeds every antenna; per-antenna oscillators feed one each
        assert np.allclose(antenna_phases([0.5], 8), np.full(8, 0.5), rtol=0, atol=1e-15)
        per_antenna = 0.1 * np.arange(8)
        assert np.allclose(antenna_phases(per_antenna, 8), per_antenna, rtol=0, atol=1e-15)


class TestSimulateWiener:
    def test_zero_variance_freezes_phase(self):
        bs, ue = simulate_wiener(4, 3, 0.0, 0.0, 10, np.random.default_rng(0))
        assert np.array_equal(bs[0], bs[1])
        assert np.array_equal(ue[0], ue[1])

    def test_increment_variance(self):
        n = 1_000_000
        bs, _ = simulate_wiener(n, 1, SIGMA2_6DEG, 0.0, 10, np.random.default_rng(1))
        inc = bs[1] - bs[0]
        assert inc.var() == pytest.approx(10 * SIGMA2_6DEG, rel=0.01)
        assert 10 * SIGMA2_6DEG == pytest.approx(0.10966, rel=1e-3)

    def test_oscillators_independent(self):
        rng = np.random.default_rng(2)
        incs = np.array([simulate_wiener(2, 1, SIGMA2_6DEG, 0.0, 5, rng)[0][1]
                         - simulate_wiener(2, 1, SIGMA2_6DEG, 0.0, 5, rng)[0][0]
                         for _ in range(100_000)])
        corr = np.corrcoef(incs[:, 0], incs[:, 1])[0, 1]
        assert abs(corr) <= 0.01

    def test_step_mode_matches_endpoints(self):
        # the single endpoint increment has the law of tau explicit Wiener steps
        tau, s2, n = 7, 0.01, 100_000
        rng = np.random.default_rng(3)
        bs, _ = simulate_wiener(n, 1, s2, 0.0, tau, rng)
        endpoint = bs[1] - bs[0]
        stepped = rng.normal(0.0, np.sqrt(s2), size=(tau, n)).sum(axis=0)
        assert stats.ks_2samp(endpoint, stepped).pvalue > 0.01


class TestThetaAndDrift:
    def _phases(self, bs0, bstau, ue0, uetau):
        return (np.array([bs0, bstau], dtype=float),
                np.array([ue0, uetau], dtype=float))

    def test_common_oscillator_entries_identical(self):
        bs, ue = self._phases([0.7], [0.9], [0.1, 0.2], [0.3, 0.4])
        v = theta_vector(ue[0, 1], bs[0], 6)
        assert v.shape == (6,)
        assert np.allclose(v, v[0])

    def test_zero_phases_identity(self):
        bs, ue = self._phases([0, 0], [0, 0], [0], [0])
        assert np.allclose(theta_vector(ue[0, 0], bs[0], 4), np.ones(4))

    def test_unit_modulus(self):
        rng = np.random.default_rng(4)
        bs, ue = simulate_wiener(4, 2, 0.1, 0.1, 3, rng)
        for r in (0, 1):
            assert np.allclose(np.abs(theta_vector(ue[r, 0], bs[r], 8)), 1.0,
                               atol=1e-14)

    def test_vector_of_ue_phases_stacks_rows(self):
        # a length-K vector of UE phases gives the K x M matrix whose row k
        # is the single-UE vector of UE k, entry for entry
        bs, ue = simulate_wiener(4, 3, 0.1, 0.1, 3, np.random.default_rng(12))
        for r in (0, 1):
            full = theta_vector(ue[r], bs[r], 8)
            assert full.shape == (3, 8)
            for k in range(3):
                assert np.array_equal(full[k], theta_vector(ue[r, k], bs[r], 8))

    def test_drift_common_oscillator_scalar(self):
        phases = self._phases([0.2], [1.4], [0.0], [0.0])
        assert np.allclose(drift(phases, 5), np.exp(1.2j))

    def test_drift_zero_variance_identity(self):
        phases = self._phases([1, 2, 3], [1, 2, 3], [0.0], [0.0])
        assert np.allclose(drift(phases, 6), np.ones(6))

    def test_drift_unit_modulus(self):
        phases = self._phases([0.3, 2.5], [1.1, -0.4], [0.0], [0.0])
        d = drift(phases, 8)
        assert np.allclose(np.abs(d), 1.0, atol=1e-14)
        assert np.allclose(d, np.repeat(np.exp(1j * np.array([0.8, -2.9])), 4))


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


class TestThetaInPlace:
    """theta_vector(..., out=) writes the bits of its allocating call."""

    # M_osc is 1, a proper divisor of M, or M; phases cover both signs and
    # signed zeros
    @given(st.data(), st.sampled_from([(12, 1), (12, 2), (12, 3), (12, 6), (12, 12),
                                       (20, 5), (20, 20)]),
           st.integers(1, 3), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_out_matches_allocating_call(self, data, shape, b, K):
        M, M_osc = shape
        phase = st.floats(-100.0, 100.0)
        ue = np.array(data.draw(st.lists(phase, min_size=b * K, max_size=b * K)),
                      dtype=float).reshape(b, K)
        bs = np.array(data.draw(st.lists(phase, min_size=b * M_osc, max_size=b * M_osc)),
                      dtype=float).reshape(b, 1, M_osc)
        want = np.repeat(np.exp(1j * (ue[..., None] + bs)), M // M_osc, axis=-1)
        got = theta_vector(ue, bs, M)
        out = np.full((b, K, M), np.nan, dtype=complex)
        assert theta_vector(ue, bs, M, out=out) is out
        assert np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(_bits(out), _bits(want))

    def test_scalar_ue_phase_row_into_out(self):
        # the kernel's data-time row shape: (b,) UE phases against (b, M_osc)
        bs = np.array([[0.3, -1.2], [2.0, 0.0]])
        out = np.empty((2, 6), dtype=complex)
        theta_vector(np.array([0.5, -0.5]), bs, 6, out=out)
        assert np.array_equal(_bits(out), _bits(theta_vector(np.array([0.5, -0.5]), bs, 6)))


class TestTPn:
    def test_common_oscillator_unit_magnitude(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            phases = simulate_wiener(1, 1, 0.5, 0.0, 10, rng)
            assert abs(t_pn(phases, 8)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_exactly_one(self):
        phases = simulate_wiener(4, 1, 0.0, 0.0, 10, np.random.default_rng(6))
        assert t_pn(phases, 8) == pytest.approx(1.0, abs=1e-14)

    def test_distributed_limit_hardens(self):
        tau, s2 = 10, SIGMA2_6DEG
        vals = mc_t_pn(10_000, 4096, tau, s2, np.random.default_rng(7))
        assert vals.mean() == pytest.approx(np.exp(-tau * s2 / 2), rel=0.01)


class TestSecondMoment:
    def test_common_oscillator_is_one(self):
        assert t_pn_second_moment(1, 10, SIGMA2_6DEG) == 1.0

    def test_two_oscillators_value(self):
        val = t_pn_second_moment(2, 10, SIGMA2_6DEG)
        assert val == pytest.approx((1 - 0.89614) / 2 + 0.89614, abs=1e-5)
        mc = np.abs(mc_t_pn(1_000_000, 2, 10, SIGMA2_6DEG,
                            np.random.default_rng(9))) ** 2
        assert mc.mean() == pytest.approx(val, rel=0.002)

    def test_distributed_limit(self):
        assert t_pn_second_moment(10 ** 9, 10, SIGMA2_6DEG) == pytest.approx(
            np.exp(-10 * SIGMA2_6DEG), rel=1e-6)
        assert np.exp(-10 * SIGMA2_6DEG) == pytest.approx(0.89614, abs=1e-5)

    def test_strictly_decreasing_in_oscillator_count(self):
        vals = [t_pn_second_moment(m, 10, SIGMA2_6DEG) for m in (1, 2, 5, 10, 25, 50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_mean_is_real_exponential(self):
        tau, s2 = 10, SIGMA2_6DEG
        for m_osc in (1, 5, 25):
            vals = mc_t_pn(1_000_000, m_osc, tau, s2, np.random.default_rng(10 + m_osc))
            assert vals.mean().real == pytest.approx(np.exp(-tau * s2 / 2), rel=0.005)
            assert abs(vals.mean().imag) < 0.005

    def test_angle_variance_decreases_with_oscillator_count(self):
        tau, s2 = 10, SIGMA2_6DEG
        rng = np.random.default_rng(11)
        variances = [np.var(np.angle(mc_t_pn(100_000, m, tau, s2, rng)))
                     for m in (1, 2, 5, 10, 25, 50)]
        assert all(a >= b for a, b in zip(variances, variances[1:]))


class TestDegToVar:
    """deg_to_var squares on Python floats; its bits are numpy's."""

    @staticmethod
    def _numpy(deg) -> float:
        with np.errstate(over="ignore"):
            return float(np.deg2rad(deg) ** 2)

    @pytest.mark.parametrize("deg,var", [
        (-0.0, 0.0), (5e-324, 0.0), (-5e-324, 0.0), (1e-320, 0.0),
        (2.2250738585072014e-308, 0.0), (1e-160, 5e-324),
        (1e155, 3.0461741978670856e306), (1.5e156, math.inf), (-1e200, math.inf),
        (1.7976931348623157e308, math.inf), (math.inf, math.inf)])
    def test_edges(self, deg, var):
        got = deg_to_var(deg)
        assert type(got) is float and got.hex() == var.hex() == self._numpy(deg).hex()

    def test_bits_equal_numpy_on_samples(self):
        # numpy's scalar ** 2 calls the C library's pow, as Python's does; x * x
        # rounds differently on about one sample in a thousand
        rng = np.random.default_rng(5)
        samples = np.concatenate([rng.uniform(-360.0, 360.0, 20_000),
                                  np.exp(rng.uniform(-700.0, 360.0, 20_000))]).tolist()
        assert [deg_to_var(d).hex() for d in samples] == [self._numpy(d).hex()
                                                         for d in samples]

    @given(st.floats())
    @settings(max_examples=2000, deadline=None)
    def test_bits_equal_numpy(self, deg):
        got, want = deg_to_var(deg), self._numpy(deg)
        assert type(got) is float
        assert got.hex() == want.hex() or math.isnan(got) and math.isnan(want)
