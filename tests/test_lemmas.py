import numpy as np
import pytest

from pnmimo.lemmas import (ConvergenceRecord, block_phase_diag,
                           check_free_probability_traces,
                           check_matrix_inversion_identity,
                           check_quadratic_form_identities,
                           check_rank1_perturbation, check_resolvent_identity,
                           check_trace_lemma, convergence_to_csv)


class TestExactIdentities:
    def test_matrix_inversion(self):
        assert check_matrix_inversion_identity(64, np.random.default_rng(0)) <= 1e-10

    def test_matrix_inversion_q_zero(self):
        # degenerate to a plain inverse comparison
        rng = np.random.default_rng(1)
        assert check_matrix_inversion_identity(16, rng) <= 1e-10

    def test_resolvent(self):
        assert check_resolvent_identity(64, np.random.default_rng(2)) <= 1e-10

    def test_resolvent_equal_matrices(self):
        rng = np.random.default_rng(3)
        from pnmimo.lemmas import _random_spd
        U = _random_spd(32, rng)
        Ui = np.linalg.inv(U)
        assert np.max(np.abs((Ui - Ui) + Ui @ (U - U) @ Ui)) == 0.0


class TestConvergenceRecord:
    def test_validates_ordering(self):
        with pytest.raises(ValueError):
            ConvergenceRecord("x", [64, 32], [0.1, 0.2], -0.5)

    def test_validates_positive_errors(self):
        with pytest.raises(ValueError):
            ConvergenceRecord("x", [32, 64], [0.1, 0.0], -0.5)

    def test_csv_round_trip_floats(self):
        rec = ConvergenceRecord("x", [32, 64], [0.125, 0.0625], -1.0)
        text = convergence_to_csv([rec])
        lines = text.strip().splitlines()
        assert lines[0] == "name,M,median_error,slope"
        assert lines[1].split(",")[2] == repr(0.125)


class TestBlockPhase:
    def test_unit_modulus_and_block_structure(self):
        v = block_phase_diag(12, 3, np.random.default_rng(4))
        assert np.allclose(np.abs(v), 1.0)
        assert np.allclose(v[:4], v[0])
        assert np.allclose(v[4:8], v[4])


class TestAsymptoticDecay:
    def test_trace_lemma_decays(self):
        rec = check_trace_lemma([64, 128, 256, 512], np.random.default_rng(5),
                                n_trials=120)
        assert all(a > b for a, b in zip(rec.errors, rec.errors[1:]))
        assert rec.slope < -0.3

    def test_rank1_bound_and_decay(self):
        rec = check_rank1_perturbation([64, 128, 256], np.random.default_rng(6),
                                       n_trials=60)
        assert all(a > b for a, b in zip(rec.errors, rec.errors[1:]))
        assert -1.35 <= rec.slope <= -0.65

    def test_free_probability_decay(self):
        rec = check_free_probability_traces([64, 128, 256], np.random.default_rng(7),
                                            n_trials=60)
        assert all(a > b for a, b in zip(rec.errors, rec.errors[1:]))
        # the partial-trace fluctuations decay at least as fast as 1/sqrt(M)
        assert rec.slope <= -0.35

    def test_free_probability_identity_matrix_exact(self):
        # a scalar multiple of the identity factorizes exactly
        rng = np.random.default_rng(8)
        from pnmimo.lemmas import _gaussian_vec
        M, K = 64, 16
        H = _gaussian_vec(K * M, rng, 1.0).reshape(K, M)
        U = np.linalg.inv(H.conj().T @ H / M + 0.5 * np.eye(M))
        for V in (np.eye(M), 3.7 * np.eye(M)):
            lhs = np.trace(U @ V) / M
            rhs = (np.trace(U) / M) * (np.trace(V) / M)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestQuadraticForms:
    def test_deviations_shrink_with_size(self):
        rng = np.random.default_rng(9)
        small = check_quadratic_form_identities(128, 0.9, rng, n_trials=30, M_osc=16)
        large = check_quadratic_form_identities(512, 0.9, rng, n_trials=30, M_osc=64)
        assert np.all(large < small)

    def test_identity_phase_recovers_unrotated_forms(self):
        # with all block phases equal to 1 the three targets collapse to the
        # classic mixed quadratic-form limits; deviation stays moderate
        rng = np.random.default_rng(10)
        devs = check_quadratic_form_identities(256, 0.9, rng, n_trials=20, M_osc=1)
        assert np.all(devs < 0.2)

    def test_perfect_quality_collapses_cross_terms(self):
        # q0 = 1 makes the cross coefficient q2 vanish; the third identity's
        # target then scales by q2 = 0
        rng = np.random.default_rng(11)
        devs = check_quadratic_form_identities(256, 1.0, rng, n_trials=20, M_osc=32)
        assert np.all(devs < 0.2)

    def test_rejects_bad_quality(self):
        with pytest.raises(ValueError):
            check_quadratic_form_identities(64, 1.5, np.random.default_rng(12))

    def test_rejects_sizes_without_a_user(self):
        with pytest.raises(ValueError, match="M must be >= 4"):
            check_quadratic_form_identities(3, 0.9, np.random.default_rng(12),
                                            M_osc=1)
