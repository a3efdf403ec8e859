"""Experiment drivers: series, snapshots, fits, and the cross-check suite."""

import numpy as np
import pytest

import lqw.core
from lqw import (
    DegenerateSeriesError,
    StandardInit,
    WalkParams,
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


def direct_vs_fourier(init, tau, t):
    """Max per-amplitude deviation between the kernel and the Fourier oracle."""
    params = WalkParams(tau)
    direct = evolve(init, params, t)
    return np.max(np.abs(direct.amplitudes - propagate_fourier(init, params, t).amplitudes))


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


class TestFitPowerLaw:
    def test_recovers_exact_power_law(self):
        series = [(t, 0.5 * t**2) for t in range(1, 101)]
        c_fit, alpha_fit = fit_power_law(series)
        assert c_fit == pytest.approx(0.5, abs=1e-10)
        assert alpha_fit == pytest.approx(2.0, abs=1e-10)

    def test_recovers_other_exponents(self):
        series = [(t, 3.0 * t**1.5) for t in range(1, 51)]
        c_fit, alpha_fit = fit_power_law(series)
        assert c_fit == pytest.approx(3.0, abs=1e-9)
        assert alpha_fit == pytest.approx(1.5, abs=1e-10)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([(t, float(t)) for t in range(1, 9)])

    def test_degenerate_series_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            fit_power_law([(t, 1.0) for t in range(1, 30)])

    def test_simulated_walk_is_ballistic(self, symmetric_init):
        report = variance_series(symmetric_init, 1, 400)
        _, alpha_fit = fit_power_law(report.rows)
        assert 1.95 <= alpha_fit <= 2.05


class TestEmpiricalVsWeakLimit:
    def test_tau1_small_run(self, symmetric_init):
        report = empirical_vs_weak_limit(symmetric_init, 1, 200)
        assert report.metrics["sup_distance"] <= 0.05
        assert report.passed

    def test_sup_distance_shrinks_with_t(self, symmetric_init):
        small = empirical_vs_weak_limit(symmetric_init, 1, 150)
        large = empirical_vs_weak_limit(symmetric_init, 1, 600)
        assert large.metrics["sup_distance"] <= small.metrics["sup_distance"] + 0.01

    def test_epsilon_domain_checked(self, symmetric_init):
        with pytest.raises(ValueError):
            empirical_vs_weak_limit(symmetric_init, 1, 200, epsilon=0.9)
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

        def counted(*args):
            walks.append(args)
            return kernel(*args)

        monkeypatch.setattr(lqw.core, "_evolution_buffers", counted)
        report = verification_suite(symmetric_init, 2, 128)
        assert "localization_window_mean" in [v.name for v in report.verdicts]
        assert len(walks) == 1

    def test_short_run_skips_localization_window(self, symmetric_init):
        report = verification_suite(symmetric_init, 1, 32)
        assert report.passed
        assert "localization_window_mean" not in [v.name for v in report.verdicts]
