"""Closed-form asymptotics against independent quadrature/finite-difference oracles."""

import numpy as np
import pytest
from scipy import integrate

from lqw import (
    DomainError,
    GeneralInit,
    QuadratureError,
    StandardInit,
    UnsupportedInitialStateError,
    WalkParams,
    eigen_system,
    f3_matrix,
    limit_moment,
    limiting_origin_state,
    localization_probability_origin,
    loop_sector_projector,
    peak_velocities,
    phase_derivative,
    spread_coefficient,
    theta_constants,
    total_localization,
    weak_limit_density,
)

from conftest import random_standard

TAUS = [1, 2, 5, 10, 20]


def true_n3(tau, k):
    """Normalization of [kappa_1, kappa_2, 1, ..., 1]: (1+cos k)/(tau+4+tau cos k)."""
    return (1 + np.cos(k)) / (tau + 4 + tau * np.cos(k))


def kappa1(k):
    return 2 / (1 + np.exp(-1j * k))


def kappa2(k):
    return 2 / (1 + np.exp(1j * k))


class TestThetaConstants:
    def test_tau1_theta2(self):
        assert theta_constants(1).theta2 == pytest.approx(np.sqrt(6) / 6, abs=1e-15)

    def test_tau2_theta1(self):
        assert theta_constants(2).theta1 == pytest.approx(0.5 - np.sqrt(8) / 8, abs=1e-15)

    @pytest.mark.parametrize("tau", TAUS)
    def test_defining_integrals(self, tau):
        # independent oracle: adaptive quadrature of the projector integrands
        th = theta_constants(tau)
        t1, _ = integrate.quad(lambda k: true_n3(tau, k) / (2 * np.pi), -np.pi, np.pi)
        t1b, _ = integrate.quad(
            lambda k: (true_n3(tau, k) * kappa1(k)).real / (2 * np.pi), -np.pi, np.pi
        )
        t2, _ = integrate.quad(
            lambda k: (true_n3(tau, k) * kappa1(k) * kappa2(k)).real / (2 * np.pi),
            -np.pi, np.pi,
        )
        t3, _ = integrate.quad(
            lambda k: (true_n3(tau, k) * kappa1(k) ** 2).real / (2 * np.pi), -np.pi, np.pi
        )
        assert th.theta1 == pytest.approx(t1, abs=1e-8)
        assert th.theta1 == pytest.approx(t1b, abs=1e-8)
        assert th.theta2 == pytest.approx(t2, abs=1e-8)
        assert th.theta3 == pytest.approx(t3, abs=1e-8)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            theta_constants(0)
        with pytest.raises(TypeError):
            theta_constants(2.5)

    def test_tau_check_shared_with_walk_params(self):
        for bad, exc in ((0, ValueError), (2.5, TypeError), (True, TypeError)):
            with pytest.raises(exc) as lib:
                theta_constants(bad)
            with pytest.raises(exc) as params:
                WalkParams(bad)
            assert str(lib.value) == str(params.value)


class TestF3Matrix:
    def test_tau1_block_structure(self):
        th = theta_constants(1)
        expected = np.array([
            [th.theta2, th.theta3, th.theta1],
            [th.theta3, th.theta2, th.theta1],
            [th.theta1, th.theta1, th.theta1],
        ])
        assert np.array_equal(f3_matrix(1), expected)

    @pytest.mark.parametrize("tau", [1, 3, 7])
    def test_symmetric(self, tau):
        f3 = f3_matrix(tau)
        assert np.array_equal(f3, f3.T)

    @pytest.mark.parametrize("tau", [1, 2, 5])
    def test_projector_integral(self, tau):
        # oracle: midpoint-rule integral of |lambda_3><lambda_3| built from the
        # raw closed-form components, independent of the Theta assembly
        d = tau + 2
        m = 4096
        ks = -np.pi + 2 * np.pi * (np.arange(m) + 0.5) / m
        acc = np.zeros((d, d), dtype=complex)
        for k in ks:
            u = np.concatenate(([kappa1(k), kappa2(k)], np.ones(tau)))
            v = u * np.sqrt(true_n3(tau, k))
            acc += np.outer(v, v.conj())
        assert np.max(np.abs(acc / m - f3_matrix(tau))) < 1e-8

    @pytest.mark.parametrize("tau", [2, 5])
    def test_loop_sector_projector(self, tau):
        # sums |lambda_j><lambda_j| over an orthonormal pi-sector basis
        p = loop_sector_projector(tau)
        system = eigen_system(WalkParams(tau), 1.3)
        acc = np.zeros_like(p, dtype=complex)
        for j in range(3, tau + 2):
            vec = system.eigenvectors[:, j]
            acc += np.outer(vec, vec.conj())
        assert np.max(np.abs(acc - p)) < 1e-12
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.linalg.matrix_rank(p) == tau - 1


class TestLimitingOriginState:
    def test_standard_alpha_one(self):
        th = theta_constants(1)
        phi = limiting_origin_state(StandardInit(1, 0), 1)
        assert np.allclose(phi, [th.theta2, th.theta3, th.theta1], atol=1e-15)

    def test_parity_independent_for_standard(self, symmetric_init):
        even = limiting_origin_state(symmetric_init, 5, "even")
        odd = limiting_origin_state(symmetric_init, 5, "odd")
        assert np.array_equal(even, odd)

    def test_loop_start_parities_differ(self):
        # general init on the first self-loop, tau=2: F_4 = |lambda_4><lambda_4|
        th = theta_constants(2)
        init = GeneralInit((0, 0, 1, 0))
        even = limiting_origin_state(init, 2, "even")
        odd = limiting_origin_state(init, 2, "odd")
        expected_even = np.array([th.theta1, th.theta1, th.theta1 + 0.5, th.theta1 - 0.5])
        expected_odd = np.array([th.theta1, th.theta1, th.theta1 - 0.5, th.theta1 + 0.5])
        assert np.allclose(even, expected_even, atol=1e-14)
        assert np.allclose(odd, expected_odd, atol=1e-14)

    def test_bad_parity_rejected(self):
        with pytest.raises(ValueError):
            limiting_origin_state(StandardInit(1, 0), 1, "sideways")


class TestLocalizationProbability:
    def test_tau1_value(self):
        expected = 2 * (5 - 2 * np.sqrt(6))
        assert localization_probability_origin(StandardInit(1, 0), 1) == pytest.approx(
            expected, abs=1e-14
        )

    @pytest.mark.parametrize("tau,expected", [(6, 1 / 9), (20, (48 - 4 * np.sqrt(44)) / 400)])
    def test_closed_form_values(self, tau, expected, symmetric_init):
        assert localization_probability_origin(symmetric_init, tau) == pytest.approx(
            expected, abs=1e-14
        )

    def test_independent_of_standard_init(self):
        a = localization_probability_origin(StandardInit(0.6, 0.8j), 5)
        b = localization_probability_origin(StandardInit(1, 0), 5)
        assert a == pytest.approx(b, abs=1e-14)

    @pytest.mark.parametrize("tau", [1, 5, 12])
    def test_twenty_random_inits_identical(self, tau):
        rng = np.random.default_rng(42 + tau)
        values = [
            localization_probability_origin(random_standard(rng), tau) for _ in range(20)
        ]
        assert max(values) - min(values) < 1e-14

    def test_decreasing_in_tau(self):
        values = [localization_probability_origin(StandardInit(1, 0), t) for t in range(1, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_matches_simulated_limit_for_loop_start(self):
        # parity-resolved limit for a general init, against a long direct run
        from lqw import evolve

        init = GeneralInit((0, 0, 1, 0))
        sim = evolve(init, WalkParams(2), 1200)
        p_even = float(np.sum(np.abs(sim.amplitude(0)) ** 2))
        assert abs(p_even - localization_probability_origin(init, 2, "even")) < 2e-2


class TestPeakVelocities:
    def test_values(self):
        assert peak_velocities(1)[1] == pytest.approx(np.sqrt(1 / 3), abs=1e-15)
        assert peak_velocities(10)[1] == pytest.approx(np.sqrt(5 / 6), abs=1e-15)

    def test_left_negates_right(self):
        left, right = peak_velocities(7)
        assert left == -right

    def test_monotone_toward_unity(self):
        values = [peak_velocities(t)[1] for t in range(1, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert peak_velocities(10**6)[1] > 0.999999

    def test_is_k_to_zero_limit_of_phase_derivative(self):
        for tau in (1, 4, 11):
            limit = phase_derivative(tau, 1e-7, branch=2)
            assert limit == pytest.approx(peak_velocities(tau)[1], abs=1e-7)


class TestPhaseDerivative:
    def test_zero_at_pi(self):
        # sin(pi) = 0 exactly; the float-pi argument leaves ~1e-17 residue
        assert abs(phase_derivative(1, np.pi, branch=1)) < 1e-15

    def test_branches_negate(self):
        for k in (-2.0, 0.4, 1.9):
            assert phase_derivative(3, k, 1) == -phase_derivative(3, k, 2)

    def test_finite_difference_of_theta(self):
        # oracle: central difference of the closed-form eigenphase
        tau, k, h = 3, 0.1, 1e-5
        params = WalkParams(tau)
        fd = (eigen_system(params, k + h).theta - eigen_system(params, k - h).theta) / (2 * h)
        assert phase_derivative(tau, k, branch=1) == pytest.approx(fd, abs=1e-5)

    def test_k0_singular(self):
        with pytest.raises(DomainError):
            phase_derivative(2, 0.0, branch=1)

    def test_bad_branch(self):
        with pytest.raises(ValueError):
            phase_derivative(2, 1.0, branch=3)


class TestWeakLimitDensity:
    def test_symmetric_center_value(self, symmetric_init):
        assert weak_limit_density(symmetric_init, 1, 0.0) == pytest.approx(
            1 / (np.pi * np.sqrt(2)), abs=1e-14
        )

    def test_edge_divergence(self):
        init = StandardInit(0.6, 0.8j)
        omega = peak_velocities(4)[1]
        assert weak_limit_density(init, 4, 0.99 * omega) > weak_limit_density(
            init, 4, 0.5 * omega
        )

    def test_leftward_drift_for_alpha_one(self):
        init = StandardInit(1, 0)
        assert weak_limit_density(init, 1, -0.3) > weak_limit_density(init, 1, 0.3)

    def test_domain_error(self):
        omega = peak_velocities(3)[1]
        with pytest.raises(DomainError):
            weak_limit_density(StandardInit(1, 0), 3, omega)
        with pytest.raises(DomainError):
            weak_limit_density(StandardInit(1, 0), 3, -1.0)

    def test_general_init_rejected(self):
        with pytest.raises(UnsupportedInitialStateError):
            weak_limit_density(GeneralInit((0, 0, 1)), 1, 0.0)

    @pytest.mark.parametrize("tau", [1, 10, 100])
    def test_array_equals_scalar_calls(self, tau, skewed_init):
        omega = peak_velocities(tau)[1]
        xs = -omega + (np.arange(2001) + 0.5) * (2.0 * omega / 2001)
        values = weak_limit_density(skewed_init, tau, xs)
        assert values.shape == xs.shape
        assert values.tolist() == [weak_limit_density(skewed_init, tau, x) for x in xs.tolist()]

    def test_array_domain_error(self):
        omega = peak_velocities(3)[1]
        with pytest.raises(DomainError):
            weak_limit_density(StandardInit(1, 0), 3, np.array([0.0, 0.5 * omega, omega]))

    @pytest.mark.parametrize("tau", [1, 4, 9])
    def test_nonnegative_on_support(self, tau, skewed_init):
        omega = peak_velocities(tau)[1]
        for x in np.linspace(-0.999 * omega, 0.999 * omega, 101):
            assert weak_limit_density(skewed_init, tau, float(x)) >= 0.0


class TestTotalLocalization:
    def test_symmetric_tau1(self, symmetric_init):
        assert total_localization(symmetric_init, 1) == pytest.approx(np.sqrt(6) / 6, abs=1e-14)

    def test_alpha_only_reduces_to_theta2(self):
        for tau in (1, 3, 12):
            assert total_localization(StandardInit(1, 0), tau) == pytest.approx(
                theta_constants(tau).theta2, abs=1e-15
            )

    @pytest.mark.parametrize("tau", TAUS)
    def test_closure_with_density(self, tau):
        # oracle: adaptive quadrature of f over the open support
        rng = np.random.default_rng(1000 + tau)
        for _ in range(3):
            init = random_standard(rng)
            omega = peak_velocities(tau)[1]
            body, _ = integrate.quad(
                lambda x: weak_limit_density(init, tau, x),
                -omega, omega, points=[0.0], limit=200,
            )
            assert total_localization(init, tau) + body == pytest.approx(1.0, abs=1e-6)

    def test_general_init_rejected(self):
        with pytest.raises(UnsupportedInitialStateError):
            total_localization(GeneralInit((0, 0, 1)), 1)


class TestLimitMoment:
    def test_r0_is_one(self):
        assert limit_moment(StandardInit(1, 0), 3, 0) == 1.0

    def test_symmetric_first_moment_vanishes(self, symmetric_init):
        for tau in (1, 6):
            assert abs(limit_moment(symmetric_init, tau, 1)) < 1e-8

    def test_alpha_one_drifts_left(self):
        assert limit_moment(StandardInit(1, 0), 1, 1) < 0.0

    def test_matches_independent_quadrature(self, skewed_init):
        omega = peak_velocities(2)[1]
        oracle, _ = integrate.quad(
            lambda x: x * weak_limit_density(skewed_init, 2, x), -omega, omega, limit=200
        )
        assert limit_moment(skewed_init, 2, 1) == pytest.approx(oracle, abs=1e-7)

    def test_nonconvergence_reported(self, skewed_init):
        with pytest.raises(QuadratureError):
            limit_moment(skewed_init, 1, 2, nodes=2, tol=1e-14)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            limit_moment(StandardInit(1, 0), 1, -1)


class TestSpreadCoefficient:
    def test_symmetric_tau1(self, symmetric_init):
        assert spread_coefficient(symmetric_init, 1) == pytest.approx(
            1 - 13 * np.sqrt(6) / 36, abs=1e-14
        )

    def test_matches_moment_quadrature_tau7(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            init = random_standard(rng)
            moments = limit_moment(init, 7, 2) - limit_moment(init, 7, 1) ** 2
            assert spread_coefficient(init, 7) == pytest.approx(moments, abs=1e-6)

    @pytest.mark.parametrize("tau", TAUS)
    def test_moment_consistency_sweep(self, tau, skewed_init):
        moments = limit_moment(skewed_init, tau, 2) - limit_moment(skewed_init, tau, 1) ** 2
        assert spread_coefficient(skewed_init, tau) == pytest.approx(moments, abs=1e-6)

    def test_general_init_rejected(self):
        with pytest.raises(UnsupportedInitialStateError):
            spread_coefficient(GeneralInit((0, 0, 1)), 1)


class TestSupportVelocityLink:
    def test_omega_equals_v_right_exactly(self, symmetric_init):
        from lqw import WeakLimitModel

        for tau in TAUS:
            model = WeakLimitModel(symmetric_init, tau)
            assert model.omega == peak_velocities(tau)[1]
            assert 0.0 < model.omega < 1.0
