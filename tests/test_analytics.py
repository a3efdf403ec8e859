"""Closed-form asymptotics against independent quadrature/finite-difference oracles."""

import tracemalloc

import numpy as np
import pytest
from scipy import integrate

import lqw.analytics
from lqw import (
    DomainError,
    GeneralInit,
    QuadratureError,
    StandardInit,
    UnsupportedInitialStateError,
    WalkParams,
    WeakLimitModel,
    eigen_system,
    limit_moment,
    limiting_origin_state,
    localization_probability_origin,
    peak_velocities,
    spread_coefficient,
    theta_constants,
    weak_limit_density,
)

from conftest import dense_f3, random_general, random_standard

TAUS = [1, 2, 5, 10, 20]


def true_n3(tau, k):
    """Normalization of [kappa_1, kappa_2, 1, ..., 1]: (1+cos k)/(tau+4+tau cos k)."""
    return (1 + np.cos(k)) / (tau + 4 + tau * np.cos(k))


def kappa1(k):
    return 2 / (1 + np.exp(-1j * k))


def kappa2(k):
    return 2 / (1 + np.exp(1j * k))


def dense_loop_projector(tau):
    """Projector on the pi-sector: I - (1/tau) * ones on the loop block, 0 elsewhere."""
    p = np.zeros((tau + 2, tau + 2))
    p[2:, 2:] = np.eye(tau) - 1.0 / tau
    return p


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
        assert np.array_equal(dense_f3(1), expected)

    @pytest.mark.parametrize("tau", [1, 3, 7])
    def test_symmetric(self, tau):
        f3 = dense_f3(tau)
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
        assert np.max(np.abs(acc / m - dense_f3(tau))) < 1e-8

    @pytest.mark.parametrize("tau", [2, 5])
    def test_loop_sector_projector(self, tau):
        # sums |lambda_j><lambda_j| over an orthonormal pi-sector basis
        p = dense_loop_projector(tau)
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
        # a two-component state has no loop-difference part for odd steps to negate
        phi = limiting_origin_state(symmetric_init, 5)
        assert np.all(phi[2:] == phi[2])

    def test_loop_start_parities_differ(self):
        # general init on the first self-loop, tau=2: F_4 = |lambda_4><lambda_4|
        th = theta_constants(2)
        init = GeneralInit((0, 0, 1, 0))
        even = limiting_origin_state(init, 2)
        expected_even = np.array([th.theta1, th.theta1, th.theta1 + 0.5, th.theta1 - 0.5])
        expected_odd = np.array([th.theta1, th.theta1, th.theta1 - 0.5, th.theta1 + 0.5])
        assert np.allclose(even, expected_even, atol=1e-14)
        # the odd-step state negates the loop-difference part and keeps the probability
        odd = (dense_f3(2) - dense_loop_projector(2)) @ init.coin_vector(WalkParams(2))
        assert np.allclose(odd, expected_odd, atol=1e-14)
        assert abs(np.sum(odd**2) - localization_probability_origin(init, 2)) < 1e-14

    @pytest.mark.parametrize("tau", [1, 2, 3, 10, 400])
    @pytest.mark.parametrize("parity,sign", [("even", 1.0), ("odd", -1.0)])
    def test_matches_dense_projectors(self, tau, parity, sign, skewed_init):
        # oracle: the dense (F_3 +- P_loop) @ psi0 that the O(delta) form replaces;
        # the closed form is the even-step state, and the odd-step state negates its
        # loop-difference part
        params = WalkParams(tau)
        rng = np.random.default_rng(tau)
        dense = dense_f3(tau) + sign * dense_loop_projector(tau)
        for init in (skewed_init, *(random_general(rng, params) for _ in range(3))):
            expected = dense @ init.coin_vector(params)
            phi = limiting_origin_state(init, tau)
            if parity == "odd":
                phi = np.concatenate((phi[:2], 2.0 * phi[2:].mean() - phi[2:]))
            assert np.max(np.abs(phi - expected)) < 1e-15
            probability = np.sum(np.abs(expected) ** 2)
            assert abs(probability - localization_probability_origin(init, tau)) < 1e-14


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
        # one limit for both parities of a general init, against a long direct run
        from lqw import evolve

        init = GeneralInit((0, 0, 1, 0))
        for t in (1200, 1201):
            sim = evolve(init, WalkParams(2), t)
            p_origin = float(np.sum(np.abs(sim.amplitudes[sim.t]) ** 2))
            assert abs(p_origin - localization_probability_origin(init, 2)) < 2e-2, t

    def test_large_tau_allocates_no_dense_matrix(self, symmetric_init):
        # one delta x delta float matrix at tau 2000 would be 32 MB
        tracemalloc.start()
        try:
            localization_probability_origin(symmetric_init, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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

    def test_is_small_k_slope_of_theta(self):
        # oracle: central difference of the closed-form eigenphase around small k;
        # theta = pi - v k + O(k^3), so its slope there is -v
        for tau in (1, 4, 11):
            params = WalkParams(tau)
            k, h = 1e-3, 1e-5
            fd = (eigen_system(params, k + h).theta - eigen_system(params, k - h).theta) / (2 * h)
            assert -fd == pytest.approx(peak_velocities(tau)[1], abs=1e-6)


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

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            weak_limit_density(StandardInit(1, 0), 3, float("nan"))
        with pytest.raises(DomainError):
            weak_limit_density(StandardInit(1, 0), 3, np.array([0.0, np.nan]))

    @pytest.mark.parametrize("tau", [1, 4, 9])
    def test_nonnegative_on_support(self, tau, skewed_init):
        omega = peak_velocities(tau)[1]
        for x in np.linspace(-0.999 * omega, 0.999 * omega, 101):
            assert weak_limit_density(skewed_init, tau, float(x)) >= 0.0


CDF_TAUS = [*range(1, 21), 100, 1000, 10**4, 10**5]
# the quadrature's near-poles narrow as 1/sqrt(tau); its verdicts must hold this far out
QUADRATURE_TAUS = [1, 2, 10, 100, 10**4, 10**6, 10**9, 10**12]


@pytest.fixture(params=["symmetric_init", "alpha_one", "real_skewed", "skewed_init"])
def cdf_init(request) -> StandardInit:
    """The symmetric init, alpha = 1, a real skewed pair, and the complex-phase skewed init."""
    if request.param == "alpha_one":
        return StandardInit(1, 0)
    if request.param == "real_skewed":
        return StandardInit(0.6, 0.8)
    return request.getfixturevalue(request.param)


class TestWeakLimitCdf:
    @pytest.mark.parametrize("tau", sorted({*CDF_TAUS, *QUADRATURE_TAUS}))
    def test_matches_quadrature(self, tau, cdf_init):
        model = WeakLimitModel(cdf_init, tau)
        xs = np.linspace(-model.omega, model.omega, 33)
        oracle = [(model.p_hat if x >= 0.0 else 0.0)
                  + model.continuous_mass(hi=x) for x in xs.tolist()]
        assert np.max(np.abs(model.cdf(xs) - oracle)) <= 1e-10

    @pytest.mark.parametrize("tau", [1, 10, 100])
    def test_array_equals_scalar_calls(self, tau, skewed_init):
        model = WeakLimitModel(skewed_init, tau)
        xs = np.linspace(-1.1, 1.1, 2001)
        values = model.cdf(xs)
        assert values.shape == xs.shape
        assert values.tolist() == [model.cdf(x) for x in xs.tolist()]
        assert isinstance(model.cdf(0.25), float)

    @pytest.mark.parametrize("tau", CDF_TAUS)
    def test_zero_below_and_one_above_the_support(self, tau, cdf_init):
        model = WeakLimitModel(cdf_init, tau)
        below = np.array([-model.omega, np.nextafter(-model.omega, -2.0), -1.0, -np.inf])
        above = np.array([model.omega, np.nextafter(model.omega, 2.0), 1.0, np.inf])
        assert model.cdf(below).tolist() == [0.0] * 4
        assert np.max(np.abs(model.cdf(above) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("tau", [1, 2, 10, 100, 10**5])
    def test_monotone_with_atom_jump_at_origin(self, tau, cdf_init):
        model = WeakLimitModel(cdf_init, tau)
        grid = model.cdf(np.linspace(-model.omega, model.omega, 100_001))
        assert np.all(np.diff(grid) >= 0.0)
        left_of_zero = model.cdf(np.nextafter(0.0, -1.0))
        assert model.cdf(0.0) == left_of_zero + model.p_hat
        assert model.cdf(-0.0) == model.cdf(0.0)

    def test_nan_rejected(self, skewed_init):
        model = WeakLimitModel(skewed_init, 3)
        with pytest.raises(DomainError):
            model.cdf(float("nan"))
        with pytest.raises(DomainError):
            model.cdf(np.array([0.1, np.nan]))

    def test_continuous_mass_nan_rejected(self, skewed_init):
        # asin(NaN) used to drop every panel and return 0.0
        model = WeakLimitModel(skewed_init, 3)
        with pytest.raises(DomainError):
            model.continuous_mass(hi=float("nan"))
        with pytest.raises(DomainError):
            model.continuous_mass(hi=np.float64("nan"))
        with pytest.raises(DomainError):
            model.continuous_mass(hi=np.array([-0.5, 0.2, np.nan, 0.7]))


def per_limit_mass(model: WeakLimitModel, hi: float) -> float:
    """The integral of f up to hi by a rule of its own: the graded edges below u_hi, then u_hi."""
    edges = lqw.analytics._graded_density_edges(model.tau)
    u_hi = np.arcsin(min(max(hi / model.omega, -1.0), 1.0))
    cut = np.append(edges[edges < u_hi], u_hi)
    return lqw.analytics._density_integral(model.init, model.tau, 0, cut) if cut.size > 1 else 0.0


class TestContinuousMassOverArrays:
    # one rule's running panel sums plus a cut panel, against a rule per limit
    # summed in one pass: at most 3.3e-16 over QUADRATURE_TAUS and the four
    # cdf_init states, at 33 sweep points and 201 points on [-1.1, 1.1] (3x)
    SUM_ORDER = 1e-15

    @pytest.mark.parametrize("tau", QUADRATURE_TAUS)
    def test_each_entry_is_the_scalar_call(self, tau, cdf_init):
        model = WeakLimitModel(cdf_init, tau)
        his = np.concatenate((np.linspace(-model.omega, model.omega, 33),
                              np.linspace(-1.1, 1.1, 201)))
        masses = model.continuous_mass(hi=his)
        assert masses.shape == his.shape
        assert masses.tolist() == [model.continuous_mass(hi=hi) for hi in his.tolist()]
        reference = [per_limit_mass(model, hi) for hi in his.tolist()]
        assert np.max(np.abs(masses - reference)) <= self.SUM_ORDER

    @pytest.mark.parametrize("tau", [1, 3, 100, 10**6])
    def test_zero_below_and_all_of_it_above_the_support(self, tau, cdf_init):
        model = WeakLimitModel(cdf_init, tau)
        below = np.array([-model.omega, np.nextafter(-model.omega, -2.0), -1.0, -np.inf])
        above = np.array([model.omega, np.nextafter(model.omega, 2.0), 1.0, np.inf])
        assert model.continuous_mass(hi=below).tolist() == [0.0] * 4
        assert np.max(np.abs(model.continuous_mass(hi=above) - model.continuous_mass())) \
            <= self.SUM_ORDER

    def test_scalar_gives_a_float(self, skewed_init):
        model = WeakLimitModel(skewed_init, 3)
        for hi in (0.25, np.float64(0.25), np.array(0.25), -2.0):
            assert type(model.continuous_mass(hi=hi)) is float
        assert type(model.continuous_mass()) is float


class TestTotalLocalization:
    def test_symmetric_tau1(self, symmetric_init):
        assert WeakLimitModel(symmetric_init, 1).p_hat == pytest.approx(np.sqrt(6) / 6, abs=1e-14)

    def test_alpha_only_reduces_to_theta2(self):
        for tau in (1, 3, 12):
            assert WeakLimitModel(StandardInit(1, 0), tau).p_hat == pytest.approx(
                theta_constants(tau).theta2, abs=1e-15
            )

    @pytest.mark.parametrize("tau", QUADRATURE_TAUS)
    def test_closure_at_any_tau(self, tau, cdf_init):
        model = WeakLimitModel(cdf_init, tau)
        assert abs(model.p_hat + model.continuous_mass() - 1.0) <= 1e-6

    def test_quadrature_refuses_tau_where_omega_rounds_to_one(self, symmetric_init):
        # from tau ~1.8e16 on, 1 - Omega^2 is 0 in float64 and the u-panels cannot
        # place the near-poles of width s next to +-pi/2
        model = WeakLimitModel(symmetric_init, 10**30)
        with pytest.raises(DomainError, match="Omega rounds to 1"):
            model.continuous_mass()
        with pytest.raises(DomainError, match="Omega rounds to 1"):
            limit_moment(symmetric_init, 10**30, 2)
        assert model.cdf(0.0) > model.p_hat  # the closed forms stay defined
        assert np.isfinite(weak_limit_density(symmetric_init, 10**30, 0.5))

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
            assert WeakLimitModel(init, tau).p_hat + body == pytest.approx(1.0, abs=1e-6)

    def test_general_init_rejected(self):
        with pytest.raises(UnsupportedInitialStateError):
            WeakLimitModel(GeneralInit((0, 0, 1)), 1).p_hat


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

    def test_nonconvergence_reported(self, skewed_init, monkeypatch):
        # two nodes per panel: splitting the panels moves the moment beyond 1e-8
        monkeypatch.setattr(lqw.analytics, "_PANEL_NODES", 2)
        with pytest.raises(QuadratureError):
            limit_moment(skewed_init, 1, 2)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            limit_moment(StandardInit(1, 0), 1, -1)

    @pytest.mark.parametrize("r", [0.5, 2.0, True, "2", None])
    def test_non_integer_order_rejected(self, r):
        with pytest.raises(TypeError, match="moment order must be an integer"):
            limit_moment(StandardInit(1, 0), 3, r)


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

    def test_overflowing_tau_raises_domain_error(self, symmetric_init):
        # (2 tau + 4) ** 2 overflows from tau ~ 6.7e153 on, and the Re(conj(alpha) beta)
        # term is inf / inf from tau ~ 1e124 on; a tau of 1e120 still has a value
        assert np.isfinite(spread_coefficient(symmetric_init, 10**120))
        for tau in (10**130, 10**154, 2**1023):
            with pytest.raises(DomainError, match="overflows"):
                spread_coefficient(symmetric_init, tau)


class TestSupportVelocityLink:
    def test_omega_equals_v_right_exactly(self, symmetric_init):
        from lqw import WeakLimitModel

        for tau in TAUS:
            model = WeakLimitModel(symmetric_init, tau)
            assert model.omega == peak_velocities(tau)[1]
            assert 0.0 < model.omega < 1.0

    @pytest.mark.parametrize("tau", [1, 2, 3, 10, 100, 10**6, 10**12, np.int64(10)])
    def test_two_definitions_agree_bit_for_bit(self, tau, symmetric_init):
        # omega is the density's support edge and peak_velocities the dispersion
        # side's velocity; they are written apart, and agree to the last bit
        assert WeakLimitModel(symmetric_init, tau).omega == peak_velocities(tau)[1]
