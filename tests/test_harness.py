"""Experiment drivers: series, snapshots, fits, and the cross-check suite."""

import numpy as np
import pytest

import lqw.analytics
import lqw.core
import lqw.harness
import lqw.spectral
from lqw import (
    DegenerateSeriesError,
    GeneralInit,
    StandardInit,
    UnsupportedInitialStateError,
    WalkerState,
    WalkParams,
    density_table,
    distribution_snapshot,
    empirical_vs_weak_limit,
    evolve,
    fit_power_law,
    localization_series,
    propagate_fourier,
    spread_coefficient,
    variance_series,
    verification_suite,
)

from conftest import random_general


def direct_vs_fourier(init, tau, t):
    """Max per-amplitude deviation between the kernel and the Fourier oracle."""
    params = WalkParams(tau)
    direct = evolve(init, params, t)
    return np.max(np.abs(direct.amplitudes - propagate_fourier(init, params, t)))


class TestReportTable:
    @pytest.mark.parametrize("experiment,tau,size,numeric", [
        (distribution_snapshot, 3, 40, ("int64", "float64")),
        (localization_series, 2, 30, ("int64", "float64", "float64")),
        (density_table, 5, 9, ("float64", "float64")),
        (variance_series, 2, 20, ("int64", "float64")),
        (empirical_vs_weak_limit, 1, 100, ("float64", "float64")),
    ], ids=lambda arg: getattr(arg, "__name__", None))
    def test_numeric_columns_are_arrays(self, experiment, tau, size, numeric, symmetric_init):
        report = experiment(symmetric_init, tau, size)
        assert all(isinstance(col, np.ndarray) for col in report.table)
        assert tuple(col.dtype.name for col in report.table) == numeric
        assert len(report.rows) == len(report.table[0])
        assert {type(cell) for row in report.rows for cell in row} <= {int, float}
        assert report.rows == list(zip(*(col.tolist() for col in report.table)))

    def test_verification_table_keeps_text_and_bools_in_lists(self, symmetric_init):
        report = verification_suite(symmetric_init, 2, 20)
        names, measured, tolerance, passed = report.table
        assert isinstance(names, list) and isinstance(passed, list)
        assert measured.dtype == tolerance.dtype == np.float64
        assert [tuple(map(type, row)) for row in report.rows] == (
            [(str, float, float, bool)] * len(report.verdicts))

    @pytest.mark.parametrize("table", [([1, 2],), ([1, 2], [0.5])],
                             ids=["missing_column", "short_column"])
    def test_misshapen_table_rejected(self, table):
        with pytest.raises(ValueError):
            lqw.harness.ExperimentReport(
                experiment="bad", config={}, columns=("t", "value"), table=table)


class TestExperimentSizes:
    def test_every_experiment_checks_its_size(self, symmetric_init):
        for experiment, minimum in [
            (localization_series, 1), (distribution_snapshot, 10), (density_table, 1),
            (variance_series, 10), (empirical_vs_weak_limit, 100), (verification_suite, 1),
        ]:
            for size in (minimum + 0.5, float(minimum), True, str(minimum), None):
                with pytest.raises(TypeError, match="must be an integer"):
                    experiment(symmetric_init, 2, size)
            with pytest.raises(ValueError, match=f"must be >= {minimum}"):
                experiment(symmetric_init, 2, minimum - 1)
            # a numpy integer is a size, and the config echoes it as a plain int
            config = experiment(symmetric_init, 2, np.int64(minimum)).config
            assert type(config.get("steps", config.get("grid"))) is int


class TestLocalizationSeries:
    def test_degenerate_window_no_verdict(self):
        report = localization_series(StandardInit(1, 0), 1, 1)
        assert len(report.rows) == 1
        assert report.verdicts == []

    def test_converges_to_reference(self, symmetric_init):
        report = localization_series(symmetric_init, 1, 300)
        assert report.passed
        assert report.metrics["reference"] == pytest.approx(2 * (5 - 2 * np.sqrt(6)), abs=1e-14)
        assert abs(report.metrics["window_mean"] - report.metrics["reference"]) < 1e-2

    def test_larger_tau_converges_faster(self, symmetric_init):
        slow = localization_series(symmetric_init, 1, 300)
        fast = localization_series(symmetric_init, 20, 300)
        dev = lambda r: abs(r.metrics["window_mean"] - r.metrics["reference"])
        assert dev(fast) < dev(slow)

    def test_every_verdict_records_tolerance(self, symmetric_init):
        report = localization_series(symmetric_init, 2, 100)
        assert report.verdicts
        for verdict in report.verdicts:
            assert verdict.tolerance > 0

    def test_deterministic(self, symmetric_init):
        a = localization_series(symmetric_init, 3, 60)
        b = localization_series(symmetric_init, 3, 60)
        assert a.rows == b.rows
        assert a.metrics == b.metrics


class TestDistributionSnapshot:
    def test_tau1_right_peak_near_29(self, symmetric_init):
        report = distribution_snapshot(symmetric_init, 1, 50)
        assert abs(report.metrics["right_peak"] - 29) <= 2
        assert report.passed

    def test_tau10_right_peak_near_46(self, symmetric_init):
        report = distribution_snapshot(symmetric_init, 10, 50)
        assert abs(report.metrics["right_peak"] - 46) <= 2
        assert report.passed

    def test_symmetric_peaks_negate(self, symmetric_init):
        for tau in (1, 5, 10):
            report = distribution_snapshot(symmetric_init, tau, 50)
            assert report.metrics["left_peak"] == -report.metrics["right_peak"]

    def test_probability_rows_sum_to_one(self, symmetric_init):
        report = distribution_snapshot(symmetric_init, 4, 40)
        assert sum(p for _, p in report.rows) == pytest.approx(1.0, abs=1e-12)

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            distribution_snapshot(StandardInit(1, 0), 1, 5)

    def test_tau1_long_walk_peaks_match_airy_lag(self, symmetric_init):
        # at t = 4000 the peaks trail v*t by ~6 sites, three times the tolerance
        report = distribution_snapshot(symmetric_init, 1, 4000)
        assert report.passed


class TestVarianceSeries:
    def test_starts_at_zero(self, symmetric_init):
        report = variance_series(symmetric_init, 2, 20)
        assert report.rows[0] == (0, 0.0)

    def test_bounded_by_light_cone(self, symmetric_init):
        report = variance_series(symmetric_init, 7, 60)
        for t, var in report.rows:
            assert var <= t * t + 1e-9

    def test_ratio_approaches_spread_coefficient(self, symmetric_init):
        report = variance_series(symmetric_init, 1, 400)
        t, var = report.rows[-1]
        c = spread_coefficient(symmetric_init, 1)
        assert var / t**2 == pytest.approx(c, abs=5e-3)

    def test_standard_init_carries_the_fit_verdicts(self, skewed_init):
        report = variance_series(skewed_init, 3, 400)
        c_fit, alpha_fit = fit_power_law(*report.table)
        c_theory = spread_coefficient(skewed_init, 3)
        assert report.metrics == {"c_fit": c_fit, "alpha_fit": alpha_fit, "c_theory": c_theory}
        assert [(v.name, v.tolerance) for v in report.verdicts] == [
            ("spread_exponent_offset", 0.05), ("spread_coefficient_relative_error", 0.10)]
        assert report.verdicts[0].measured == abs(alpha_fit - 2.0)
        assert report.verdicts[1].measured == abs(c_fit - c_theory) / c_theory
        assert report.passed

    def test_general_init_gets_the_bare_series(self):
        # the loop-difference sector stays at the origin: no power law to fit
        init = GeneralInit((0, 0, 1 / np.sqrt(2), -1 / np.sqrt(2)))
        report = variance_series(init, 2, 30)
        assert [v for _, v in report.rows] == [0.0] * 31
        assert report.metrics == {} and report.verdicts == []
        assert report.passed


class TestPerStepSeriesAreExact:
    """The per-step series equal what each evolved state gives, bit for bit."""

    T_MAX = 64

    @staticmethod
    def _walk(tau, kind):
        params = WalkParams(tau)
        if kind == "standard":
            return params, StandardInit(0.6, 0.8j)
        init = random_general(np.random.default_rng(40 + tau), params)
        if tau >= 2:
            assert np.max(np.abs(evolve(init, params, 0).loop_diff)) > 1e-3
        return params, init

    @pytest.mark.parametrize("tau", [1, 2, 10])
    @pytest.mark.parametrize("kind", ["standard", "general"])
    def test_origin_column_equals_evolved_probabilities(self, tau, kind):
        params, init = self._walk(tau, kind)
        report = localization_series(init, tau, self.T_MAX)
        origin = np.array([p for _, p, _ in report.rows])
        expected = np.array([evolve(init, params, t).probabilities()[t]
                             for t in range(1, self.T_MAX + 1)])
        assert np.array_equal(origin, expected)

    @pytest.mark.parametrize("tau", [1, 2, 10])
    @pytest.mark.parametrize("kind", ["standard", "general"])
    def test_variance_rows_equal_moments_of_evolved_states(self, tau, kind):
        params, init = self._walk(tau, kind)
        report = variance_series(init, tau, self.T_MAX)
        expected = []
        for t in range(self.T_MAX + 1):
            state = evolve(init, params, t)
            probs, ns = state.probabilities(), state.positions
            mean = float(np.dot(ns, probs))
            second = float(np.dot(ns * ns, probs))
            expected.append((t, second - mean * mean))
        assert report.rows == expected


class TestDensityTable:
    def test_cell_midpoints_and_closure(self, skewed_init):
        report = density_table(skewed_init, 5, 4)
        omega = np.sqrt(5 / 7)
        assert report.experiment == "weak_limit_density"
        assert list(report.config) == ["tau", "alpha", "beta", "grid"]
        assert [x for x, _ in report.rows] == pytest.approx(
            [-0.75 * omega, -0.25 * omega, 0.25 * omega, 0.75 * omega], abs=1e-15)
        assert [f for _, f in report.rows] == pytest.approx(
            [lqw.weak_limit_density(skewed_init, 5, x) for x, _ in report.rows], rel=1e-14)
        assert list(report.metrics) == ["p_hat", "omega", "continuous_mass",
                                        "spread_coefficient"]
        assert [(v.name, v.tolerance) for v in report.verdicts] == [("weak_limit_closure", 1e-6)]
        assert report.passed

    def test_grid_below_one_rejected(self, symmetric_init):
        with pytest.raises(ValueError):
            density_table(symmetric_init, 2, 0)

    def test_general_init_rejected(self):
        with pytest.raises(UnsupportedInitialStateError):
            density_table(GeneralInit((0.6, 0.8, 0, 0)), 2, 11)

    def test_closure_judged_as_in_the_verification_suite(self, skewed_init):
        table = {v.name: v for v in density_table(skewed_init, 4, 11).verdicts}
        suite = {v.name: v for v in verification_suite(skewed_init, 4, 20).verdicts}
        assert table["weak_limit_closure"] == suite["weak_limit_closure"]


class TestFitPowerLaw:
    def test_recovers_exact_power_law(self):
        t = np.arange(1, 101)
        c_fit, alpha_fit = fit_power_law(t, 0.5 * t**2)
        assert c_fit == pytest.approx(0.5, abs=1e-10)
        assert alpha_fit == pytest.approx(2.0, abs=1e-10)

    def test_recovers_other_exponents(self):
        t = np.arange(1, 51)
        c_fit, alpha_fit = fit_power_law(t, 3.0 * t**1.5)
        assert c_fit == pytest.approx(3.0, abs=1e-9)
        assert alpha_fit == pytest.approx(1.5, abs=1e-10)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law(np.arange(1, 9), np.arange(1.0, 9.0))

    def test_degenerate_series_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            fit_power_law(np.arange(1, 30), np.ones(29))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_rejected(self, bad):
        t = np.arange(10.0)
        with pytest.raises(ValueError, match="finite"):
            fit_power_law(t, [1.0] * 9 + [bad])
        with pytest.raises(ValueError, match="finite"):
            fit_power_law(t, np.full(10, np.nan))
        with pytest.raises(ValueError, match="finite"):
            fit_power_law(np.append(t[:-1], bad), t**2)

    def test_simulated_walk_is_ballistic(self, symmetric_init):
        report = variance_series(symmetric_init, 1, 400)
        _, alpha_fit = fit_power_law(*report.table)
        assert 1.95 <= alpha_fit <= 2.05

    def test_two_dimensional_or_unequal_input_rejected(self):
        t = np.arange(1, 21)
        with pytest.raises(ValueError, match="1-D"):
            fit_power_law(np.stack([t, t]), np.stack([t, t]) ** 2.0)
        with pytest.raises(ValueError, match="1-D"):
            fit_power_law(t, t[:-1] ** 2.0)


class TestEmpiricalVsWeakLimit:
    def test_tau1_small_run(self, symmetric_init):
        report = empirical_vs_weak_limit(symmetric_init, 1, 200)
        assert report.metrics["sup_distance"] <= 0.05
        assert report.passed

    def test_sup_distance_shrinks_with_t(self, symmetric_init):
        small = empirical_vs_weak_limit(symmetric_init, 1, 150)
        large = empirical_vs_weak_limit(symmetric_init, 1, 600)
        assert large.metrics["sup_distance"] <= small.metrics["sup_distance"] + 0.01

    def test_closed_cdf_verdict_passes(self, symmetric_init):
        report = empirical_vs_weak_limit(symmetric_init, 3, 200)
        verdict = {v.name: v for v in report.verdicts}["cdf_closed_vs_quadrature"]
        assert verdict.tolerance == 1e-10
        assert verdict.passed and verdict.measured < 1e-12

    def test_closed_cdf_verdict_passes_at_tau_1e6(self, symmetric_init):
        report = empirical_vs_weak_limit(symmetric_init, 10**6, 100)
        assert {v.name: v for v in report.verdicts}["cdf_closed_vs_quadrature"].passed

    def test_closed_cdf_verdict_judges_the_quadrature(self, symmetric_init, monkeypatch):
        # a coarse rule cannot match the closed form; the comparison metrics do not use it
        fine = empirical_vs_weak_limit(symmetric_init, 3, 200)
        monkeypatch.setattr(lqw.analytics, "_PANEL_NODES", 2)
        coarse = empirical_vs_weak_limit(symmetric_init, 3, 200)
        assert not {v.name: v for v in coarse.verdicts}["cdf_closed_vs_quadrature"].passed
        assert coarse.metrics == fine.metrics

    # (init, tau, t_max) -> {verdict: (measured, passed)} from the per-point quadrature CDF
    QUADRATURE_CDF_VERDICTS = {
        ("symmetric", 1, 1000): {"sup_distance": (0.009812600032243046, True),
                                 "near_origin_mass_deviation": (0.00024407409372001476, True)},
        ("alpha_one", 10, 500): {"sup_distance": (0.02799855514659455, True),
                                 "near_origin_mass_deviation": (0.00014706404481817925, True)},
        ("skewed", 100, 400): {"sup_distance": (0.061264460265690567, False),
                               "near_origin_mass_deviation": (0.00010789185401935408, True)},
    }

    @pytest.mark.parametrize("case", QUADRATURE_CDF_VERDICTS)
    def test_verdicts_match_quadrature_cdf(self, case, symmetric_init, skewed_init):
        name, tau, t_max = case
        init = {"symmetric": symmetric_init, "alpha_one": StandardInit(1, 0),
                "skewed": skewed_init}[name]
        verdicts = {v.name: v for v in empirical_vs_weak_limit(init, tau, t_max).verdicts}
        for verdict, (measured, passed) in self.QUADRATURE_CDF_VERDICTS[case].items():
            assert verdicts[verdict].passed is passed
            assert verdicts[verdict].measured == pytest.approx(measured, rel=0, abs=1e-12)

    def test_final_state_needs_no_long_walk(self, symmetric_init, monkeypatch):
        # the t_max state comes from the closed form; the kernel only walks the probe
        walks = []
        evolve_ = lqw.harness.evolve
        buffers = lqw.core._evolution_buffers

        def spied_evolve(init, params, t):
            walks.append(t)
            return evolve_(init, params, t)

        def spied_buffers(init, params, t_max, **kwargs):
            walks.append(t_max)
            return buffers(init, params, t_max, **kwargs)

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called")
            return call

        monkeypatch.setattr(lqw.harness, "evolve", spied_evolve)
        monkeypatch.setattr(lqw.core, "_evolution_buffers", spied_buffers)
        for name in ("eigen_system", "momentum_operator", "propagate_fourier"):
            monkeypatch.setattr(lqw.harness, name, forbidden(name))
        for name in ("eigen_system", "momentum_operator", "momentum_grid_solution",
                     "propagate_fourier"):
            monkeypatch.setattr(lqw.spectral, name, forbidden(name))
        report = empirical_vs_weak_limit(symmetric_init, 3, 3000)
        assert len(report.rows) == 6001
        assert walks and max(walks) <= 256

    def test_closed_form_verdict_passes(self, symmetric_init, skewed_init):
        for init, tau, t_max in ((symmetric_init, 3, 3000), (skewed_init, 100, 150)):
            report = empirical_vs_weak_limit(init, tau, t_max)
            verdict = {v.name: v for v in report.verdicts}["closed_form_vs_kernel"]
            assert verdict.tolerance == 1e-12
            assert verdict.passed and verdict.measured < 1e-12

    def test_closed_form_verdict_judges_the_route(self, symmetric_init, monkeypatch):
        route = lqw.spectral._closed_form_state

        def rotated(init, params, t):
            # a global phase keeps the norm and the distribution, not the amplitudes
            state = route(init, params, t)
            return WalkerState(state.t, state.moving * np.exp(1e-9j), state.loop_diff)

        monkeypatch.setattr(lqw.spectral, "_closed_form_state", rotated)
        report = empirical_vs_weak_limit(symmetric_init, 3, 300)
        verdict = {v.name: v for v in report.verdicts}["closed_form_vs_kernel"]
        assert not verdict.passed and verdict.measured > 1e-11
        assert not report.passed

    def test_too_few_steps_rejected(self, symmetric_init):
        with pytest.raises(ValueError):
            empirical_vs_weak_limit(symmetric_init, 1, 50)


class TestCompareDirectVsFourier:
    def test_t0_exactly_zero(self):
        assert direct_vs_fourier(StandardInit(1, 0), 1, 0) == 0.0

    @pytest.mark.parametrize("tau,t", [(1, 100), (10, 50)])
    def test_oracle_agreement(self, tau, t, symmetric_init):
        assert direct_vs_fourier(symmetric_init, tau, t) < 1e-10


class TestVerificationSuite:
    def test_all_checks_pass(self, symmetric_init):
        report = verification_suite(symmetric_init, 2, 128)
        assert report.passed
        names = [v.name for v in report.verdicts]
        assert "direct_vs_fourier" in names
        assert "theta_vs_quadrature" in names
        assert "localization_window_mean" in names
        assert report.rows == [
            (v.name, v.measured, v.tolerance, v.passed) for v in report.verdicts
        ]

    def test_large_tau_passes(self, symmetric_init):
        # tau 100, t 200 is where the oracle's cost grows with delta: a k-block
        # of operators is squared about three times instead of 200 steps
        assert verification_suite(symmetric_init, 100, 200).passed

    def test_walks_the_kernel_once(self, symmetric_init, monkeypatch):
        # norm, direct-vs-Fourier and the localization window share one walk
        kernel = lqw.core._evolution_buffers
        walks = []

        def counted(*args, **kwargs):
            walks.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(lqw.core, "_evolution_buffers", counted)
        report = verification_suite(symmetric_init, 2, 128)
        assert "localization_window_mean" in [v.name for v in report.verdicts]
        assert len(walks) == 1

    def test_eigen_system_only_for_the_residual_check(self, symmetric_init, monkeypatch):
        # the F3 projector integral uses the three-component omega = 0 vector;
        # only the eigen-equation residual needs whole eigen-systems, one per k
        eigen = lqw.spectral.eigen_system
        calls = []

        def counted(*args):
            calls.append(args)
            return eigen(*args)

        monkeypatch.setattr(lqw.spectral, "eigen_system", counted)
        monkeypatch.setattr(lqw.harness, "eigen_system", counted)
        report = verification_suite(symmetric_init, 2, 128)
        assert "f3_vs_projector_integral" in [v.name for v in report.verdicts]
        assert len(calls) <= 5

    def test_builds_one_weak_limit_model(self, symmetric_init, monkeypatch):
        built = []

        class Counted(lqw.analytics.WeakLimitModel):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(lqw.analytics, "WeakLimitModel", Counted)
        assert verification_suite(symmetric_init, 2, 20).passed
        assert len(built) == 1

    def test_support_bound_is_judged_against_the_peak_velocity(self, symmetric_init,
                                                              monkeypatch):
        # Omega and v_right are written apart, so a wrong velocity fails the verdict
        def verdict():
            report = verification_suite(symmetric_init, 10, 120)
            return next(v for v in report.verdicts if v.name == "v_right_equals_support_bound")

        assert verdict().measured == 0.0
        exact = lqw.analytics.peak_velocities
        monkeypatch.setattr(lqw.analytics, "peak_velocities",
                            lambda tau: tuple(v * (1.0 + 1e-9) for v in exact(tau)))
        assert not verdict().passed

    def test_short_run_skips_localization_window(self, symmetric_init):
        report = verification_suite(symmetric_init, 1, 32)
        assert report.passed
        assert "localization_window_mean" not in [v.name for v in report.verdicts]
