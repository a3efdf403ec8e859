"""Experiment drivers: series, snapshots, fits, and the cross-check suite."""

import inspect
import sys
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest

import lqw.analytics
import lqw.core
import lqw.harness
import lqw.spectral
from lqw import (
    DegenerateSeriesError,
    GeneralInit,
    NormalizationError,
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

from conftest import dense_states, kernel_windows, random_general


def direct_vs_fourier(init, tau, t):
    """Max per-amplitude deviation between the kernel and the Fourier oracle."""
    params = WalkParams(tau)
    direct = evolve(init, params, t)
    return np.max(np.abs(direct.amplitudes - propagate_fourier(init, params, t)))


def per_step_variances(init, params: WalkParams, t_max: int) -> np.ndarray:
    """sigma^2(t) as ``_variances`` reads it, from new views of each step's (3, 2t+1) window."""
    if isinstance(init, StandardInit):
        total, skew, cross = lqw.harness._mirror_weights(init)
        start, loop_weight, floats = lqw.core._LEFT, 0.0, 1
    else:
        total, skew, cross = 1.0, 1.0, 0.0
        start, diff = lqw.core._reduced_start(init, params)
        loop_weight, floats = np.sum(np.abs(diff) ** 2), 2
    variances = np.empty(t_max + 1)
    weights = np.ones((2, floats * (2 * t_max + 1)))
    weights[1] = np.repeat(np.arange(-t_max, t_max + 1), floats)
    work = np.empty((3, floats * (2 * t_max + 1)))
    m1 = m2 = c2 = 0.0
    for t, window in kernel_windows(start, params, t_max):
        if not t:
            variances[0] = 0.0
            continue
        left, u, right = window.view(np.float64)
        products = work[:, :floats * (2 * t + 1)]
        np.multiply(left, left, out=products[0])
        np.multiply(right, right, out=products[1])
        np.multiply(left, right[::-1], out=products[2])
        (l2, r2, lr), (nl2, nr2, nlr) = (
            weights[:, floats * (t_max - t):floats * (t_max + t + 1)] @ products.T).tolist()
        lqw.core._check_norm(total * (l2 + r2 + np.dot(u, u)) + loop_weight)
        m1 += r2 - l2
        m2 += (2.0 * nr2 - r2) - (2.0 * nl2 + l2)
        c2 -= 2.0 * (2.0 * nlr + lr)
        mean = skew * m1
        variances[t] = total * m2 + cross * c2 - mean * mean
    return variances


def exact_moments(tau: int, t_max: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(m1, m2, c2) of the walk from |left> at t = 0..t_max, exactly, from a walk on Python ints.

    With u' = u / sqrt(tau), delta^t (L, R, u') is integer, and one step is
    L <- -tau L + 2R + 2 tau u', R <- 2L - tau R + 2 tau u',
    u' <- 2(L + R) + (tau - 2) u', then the shifts: the left row from n + 1 to
    n, the right row from n - 1 to n.  So delta^(2t) A(n) = L^2 + R^2 + tau u'^2
    and delta^(2t) C(n) = L(n) R(-n) + R(n) L(-n) + tau u'(n) u'(-n), and
    every step checks the walk's unitarity: sum A(n) = 1 and sum C(n) = 0.
    """
    o = t_max + 1  # site n at index n + o, with a spare site at each end
    left, right, loop = [0] * (2 * o + 1), [0] * (2 * o + 1), [0] * (2 * o + 1)
    left[o] = 1
    moments = [(Fraction(0),) * 3]
    for t in range(1, t_max + 1):
        new_left, new_right, new_loop = [0] * (2 * o + 1), [0] * (2 * o + 1), [0] * (2 * o + 1)
        for i in range(o - t + 1, o + t):  # step t - 1's sites
            l, r, w = left[i], right[i], 2 * tau * loop[i]
            new_left[i - 1] = -tau * l + 2 * r + w
            new_right[i + 1] = 2 * l - tau * r + w
            new_loop[i] = 2 * (l + r) + (tau - 2) * loop[i]
        left, right, loop = new_left, new_right, new_loop
        norm = inner = first = second = crossed = 0
        for n in range(-t, t + 1):
            i, j = o + n, o - n
            a = left[i] ** 2 + right[i] ** 2 + tau * loop[i] ** 2
            c = left[i] * right[j] + right[i] * left[j] + tau * loop[i] * loop[j]
            norm, inner = norm + a, inner + c
            first, second, crossed = first + n * a, second + n * n * a, crossed + n * n * c
        scale = (tau + 2) ** (2 * t)
        assert norm == scale and inner == 0
        moments.append((Fraction(first, scale), Fraction(second, scale), Fraction(crossed, scale)))
    return moments


def mutant_harness(monkeypatch, line: str, mutated: str) -> types.ModuleType:
    """``lqw.harness`` compiled as a new module with its one ``line`` replaced by ``mutated``."""
    source = inspect.getsource(lqw.harness)
    assert source.count(line) == 1
    mutant = types.ModuleType("lqw.mutant_harness")
    mutant.__package__ = "lqw"
    # dataclasses look their module up while they build the class
    monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
    exec(compile(source.replace(line, mutated), "<mutant harness>", "exec"), mutant.__dict__)
    return mutant


def per_step_walk(init: StandardInit, params: WalkParams, t_max: int):
    """``_walk``'s origin series and final state, read from every step's (3, 2t+1) window."""
    columns = np.empty((3, t_max))
    for t, a in kernel_windows(lqw.core._LEFT, params, t_max):
        if t:
            columns[:, t - 1] = a[:, t]
    origin = lqw.core._column_weights(lqw.core._superpose(init, columns, columns[::-1]))
    return origin, lqw.core._mirror_state(init, params, t_max, a)


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


def route_verdicts(report) -> dict:
    """The recurrence's verdicts of a localization_series report, by name."""
    return {v.name: v for v in report.verdicts if v.name.startswith("recurrence_")}


class TestLocalizationByRecurrence:
    """A StandardInit's origin series from the exact recurrences, judged by the kernel and the spectrum."""

    # largest |P_recurrence - P_kernel| over t <= 4000 at the default, (0.6, 0.8j)
    # and skewed states: 8.8e-14 at tau 1 (the kernel's drift: the recurrence
    # meets the closed form within 4e-15 there), 6.2e-15 at tau 10, 2.9e-15 at 100
    KERNEL_BOUNDS = {1: 2.5e-13, 10: 2e-14, 100: 1e-14}

    @pytest.mark.parametrize("t_max,names,probe", [
        (1, [], None), (2, [], None), (3, ["recurrence_vs_kernel"], 3),
        (256, ["recurrence_vs_kernel"], 256),
        (257, ["recurrence_vs_kernel", "recurrence_vs_closed_form"], 256),
    ])
    def test_route_verdicts_start_past_the_seeds(self, symmetric_init, t_max, names, probe):
        report = localization_series(symmetric_init, 2, t_max)
        assert list(route_verdicts(report)) == names
        assert report.metrics.get("probe_steps") == probe

    def test_metrics_and_verdict_order(self, symmetric_init):
        report = localization_series(symmetric_init, 2, 300)
        assert list(report.metrics) == ["reference", "window", "window_mean", "probe_steps"]
        assert [(v.name, v.tolerance) for v in report.verdicts] == [
            ("window_mean_deviation", 1e-2), ("recurrence_vs_kernel", 1.5e-14),
            ("recurrence_vs_closed_form", 1e-10)]
        assert report.passed

    def test_general_init_walks_every_step(self):
        params = WalkParams(2)
        report = localization_series(random_general(np.random.default_rng(5), params), 2, 300)
        assert [v.name for v in report.verdicts] == ["window_mean_deviation"]
        assert "probe_steps" not in report.metrics

    @pytest.mark.parametrize("t_max", [200, 2000])
    def test_the_probe_walks_at_most_256_steps_and_no_fft(self, symmetric_init, monkeypatch,
                                                          t_max):
        walks, iterate = [], lqw.harness.iter_evolution

        def spied(init, params, steps):
            walks.append(steps)
            return iterate(init, params, steps)

        def forbidden(*args, **kwargs):
            raise AssertionError("the origin series ran an FFT")

        monkeypatch.setattr(lqw.harness, "iter_evolution", spied)
        monkeypatch.setattr(np.fft, "ifft", forbidden)
        assert localization_series(symmetric_init, 10, t_max).passed
        assert walks == [min(t_max, 256)]

    @pytest.mark.parametrize("tau", [1, 10, 100])
    @pytest.mark.parametrize("kind", ["default", "standard", "skewed"])
    def test_series_matches_the_kernel_to_t_4000(self, tau, kind, symmetric_init, skewed_init):
        # the kernel's reused buffers step iter_evolution's windows bit for bit
        init = {"default": symmetric_init, "standard": StandardInit(0.6, 0.8j),
                "skewed": skewed_init}[kind]
        params = WalkParams(tau)
        kernel = np.empty(4000)
        start = lqw.core._reduced_start(init, params)[0]
        for t, window in kernel_windows(start, params, 4000):
            if t:
                kernel[t - 1] = np.sum(np.abs(window[:, t]) ** 2)
        report = localization_series(init, tau, 4000)
        assert np.max(np.abs(report.table[1] - kernel)) < self.KERNEL_BOUNDS[tau]
        assert report.passed

    @pytest.mark.parametrize("tau,t_max", [(1, 2000), (10, 2000), (100, 2000), (10**4, 2000),
                                           (10**6, 2000), (10**6, 10**5)])
    def test_route_verdicts_pass_up_to_tau_1e6(self, skewed_init, tau, t_max):
        # measured over tau 1 to 10^6 and t_max up to 10^6 at four states: at
        # most 4.9e-15 against the probe and 3.4e-11 against the spectral origin
        report = localization_series(skewed_init, tau, t_max)
        assert all(v.passed for v in route_verdicts(report).values())
        assert len(route_verdicts(report)) == 2

    @pytest.mark.parametrize("tau", [1, 10, 100])
    @pytest.mark.parametrize("coefficient", range(5))
    def test_a_coefficient_off_by_1e_9_fails_a_verdict(self, symmetric_init, monkeypatch, tau,
                                                       coefficient):
        # the least relative change that failed at every tau and coefficient
        # here was 2e-14; 1e-14 of e_right passed at tau 1 (the probe read 0.93x
        # its bound), so a 1e-12 change fails as well
        exact = lqw.core._recurrence_coefficients

        def perturbed(t, kappa):
            values = list(exact(t, kappa))
            values[coefficient] = values[coefficient] * (1.0 + 1e-9)
            return tuple(values)

        exact_report = localization_series(symmetric_init, tau, 2000)
        assert all(v.passed for v in route_verdicts(exact_report).values())
        monkeypatch.setattr(lqw.core, "_recurrence_coefficients", perturbed)
        report = localization_series(symmetric_init, tau, 2000)
        assert not all(v.passed for v in route_verdicts(report).values())
        assert not report.passed


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
            ("spread_exponent_offset", 0.05), ("spread_coefficient_relative_error", 0.10),
            ("moments_telescoped_vs_direct", 1e-10)]
        assert report.verdicts[0].measured == abs(alpha_fit - 2.0)
        assert report.verdicts[1].measured == abs(c_fit - c_theory) / c_theory
        assert report.passed

    def test_walks_the_reused_kernel_buffer_once(self, symmetric_init, monkeypatch):
        # the moments come straight from the kernel's window: no WalkerState per step
        kernel = lqw.core._evolution_buffers
        walks, states = [], []

        def counted(*args, **kwargs):
            walks.append(kwargs)
            return kernel(*args, **kwargs)

        def no_iteration(*args, **kwargs):
            raise AssertionError("variance_series called iter_evolution")

        post_init = WalkerState.__post_init__

        def constructed(self):
            states.append(self.t)
            post_init(self)

        monkeypatch.setattr(lqw.core, "_evolution_buffers", counted)
        monkeypatch.setattr(lqw.core, "iter_evolution", no_iteration)
        monkeypatch.setattr(lqw.harness, "iter_evolution", no_iteration)
        monkeypatch.setattr(WalkerState, "__post_init__", constructed)
        assert variance_series(symmetric_init, 10, 200).passed
        assert walks == [{}]
        assert states == []

    def test_peak_memory_holds_no_window_per_step(self, symmetric_init):
        # the kernel's two flat buffers of one window each and five (2t+1)-float
        # rows: about 0.39 MB at t 2000 (0.52 MB with six work rows and three
        # weight rows); a WalkerState per step, or one ufunc call on the 2-D
        # window, reads above 0.7 MB
        variance_series(symmetric_init, 10, 50)
        tracemalloc.start()
        try:
            variance_series(symmetric_init, 10, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 480_000

    def test_memory_does_not_grow_with_tau(self, symmetric_init):
        # a StandardInit walks the real walk from |left>: no delta- or tau-vector,
        # about 45 KB at t 200 at any tau (the complex start asked for 14.6 TiB here)
        variance_series(symmetric_init, 10, 50)
        tracemalloc.start()
        try:
            report = variance_series(symmetric_init, 10**12, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150_000
        assert report.passed
        assert report.metrics["alpha_fit"] == pytest.approx(2.0, abs=1e-6)

    def test_general_init_gets_the_bare_series(self):
        # the loop-difference sector stays at the origin: no power law to fit
        init = GeneralInit((0, 0, 1 / np.sqrt(2), -1 / np.sqrt(2)))
        report = variance_series(init, 2, 30)
        assert [v for _, v in report.rows] == [0.0] * 31
        assert report.metrics == {} and report.verdicts == []
        assert report.passed


class TestPerStepSeriesAreExact:
    """The per-step series equal what each evolved state gives.

    A GeneralInit steps the complex walk on every route, and its origin
    series and verify walk are bit for bit.  A StandardInit's evolve,
    variance and verify walk step the real walk from |left> and read its
    mirror, while localize and iter_evolution step the complex walk: the two
    agree within bounds measured over every t <= 4000, the variance's over
    t <= 1400 (``MIRROR_*``, 2.3x to 3x the largest difference, at tau 1 or
    10).  Every variance, a GeneralInit's too, telescopes its moments
    through the steps while the states' are read from each state, so the
    variance meets the states within ``MIRROR_VARIANCE*`` for every kind.
    Routes that share the real walk stay bit for bit.  The skewed state has
    Re(conj(alpha) beta) != 0, so its origin probability and variance read
    the cross term a * mirror(a).
    """

    T_MAX = 64
    # measured over t <= 4000 at StandardInit(0.6, 0.8j) and the skewed state,
    # tau 1, 2 and 10: the origin probability 1.3e-14 apart (9.2e-15 skewed)
    # and the final moving sector 1.3e-14 (skewed, tau 1).  The variance
    # telescopes its moments through the steps, while the complex walk's are
    # read from each state, and the two drift apart like t eps: 4.7e-14
    # relative over t <= 1400 (tau 1; 1.3e-13 at t 4000), and 2.2e-15 at
    # t <= 64 against moments of evolve's states (tau 10).  Against the exact
    # walk over t <= 1400 the telescoped series is the closer one: 1.0e-13
    # against 1.5e-13 at tau 1 (``exact_moments``).  A GeneralInit's
    # telescoped variance, against the same two reads: 4.6e-14 over t <= 1400
    # and 2.1e-15 at t <= 64 (both tau 10)
    MIRROR_ORIGIN = 4e-14
    MIRROR_MOVING = 3e-14
    MIRROR_VARIANCE = 1.2e-13
    MIRROR_VARIANCE_EVOLVED = 5e-15

    @staticmethod
    def _walk(tau, kind):
        params = WalkParams(tau)
        if kind == "standard":
            return params, StandardInit(0.6, 0.8j)
        if kind == "skewed":  # the skewed_init fixture's state
            return params, StandardInit((1 + np.sqrt(2) * 1j) / 2, np.sqrt(2) * (1 + 1j) / 4)
        init = random_general(np.random.default_rng(40 + tau), params)
        if tau >= 2:
            assert np.max(np.abs(evolve(init, params, 0).loop_diff)) > 1e-3
        return params, init

    @pytest.mark.parametrize("tau", [1, 2, 10])
    @pytest.mark.parametrize("kind", ["standard", "skewed", "general"])
    def test_origin_column_equals_evolved_probabilities(self, tau, kind):
        params, init = self._walk(tau, kind)
        report = localization_series(init, tau, self.T_MAX)
        origin = np.array([p for _, p, _ in report.rows])
        expected = np.array([evolve(init, params, t).probabilities()[t]
                             for t in range(1, self.T_MAX + 1)])
        if kind != "general":
            assert np.max(np.abs(origin - expected)) < self.MIRROR_ORIGIN
        else:
            assert np.array_equal(origin, expected)

    @pytest.mark.parametrize("tau", [1, 2, 10])
    @pytest.mark.parametrize("kind", ["standard", "skewed", "general"])
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
        got, want = np.array(report.rows).T[1], np.array(expected).T[1]
        assert got[0] == want[0] == 0.0
        assert np.all(np.abs(got - want) <= self.MIRROR_VARIANCE_EVOLVED * want)

    # Past 8192 values a ufunc call on a (3, 2t+1) array may go through numpy's
    # buffer; the variance works row by row, so its bits must not change there.
    @pytest.mark.parametrize("tau", [1, 10])
    @pytest.mark.parametrize("kind", ["standard", "skewed", "general"])
    def test_variance_equals_moments_of_iterated_states_at_full_size(self, tau, kind):
        params, init = self._walk(tau, kind)
        t_max = 1400
        ns = np.arange(-t_max, t_max + 1, dtype=float)
        ns2 = ns * ns
        expected = np.empty(t_max + 1)
        for state in lqw.core.iter_evolution(init, params, t_max):
            sites = slice(t_max - state.t, t_max + state.t + 1)
            probs = state.probabilities()
            mean = float(np.dot(ns[sites], probs))
            second = float(np.dot(ns2[sites], probs))
            expected[state.t] = second - mean * mean
        variances = variance_series(init, tau, t_max).table[1]
        assert variances[0] == expected[0] == 0.0
        assert np.all(np.abs(variances - expected) <= self.MIRROR_VARIANCE * expected)

    # The verify walk reads the reused buffers; at tau 1 the kernel flushes the
    # light-cone tails from t 384 (unflushed, they turn subnormal from about
    # t 645).  A StandardInit's final state and last
    # origin probability are evolve's, bit for bit: both read the real walk.
    # verification_suite rejects a GeneralInit, so its case reads the origin
    # columns of the same complex walk in the reused buffers that evolve takes.
    @pytest.mark.parametrize("tau", [1, 10])
    @pytest.mark.parametrize("kind", ["standard", "skewed", "general"])
    def test_verify_walk_equals_iterated_states_at_full_size(self, tau, kind):
        params, init = self._walk(tau, kind)
        t_max = 1400
        states = lqw.core.iter_evolution(init, params, t_max)
        next(states)
        expected = np.empty(t_max)
        for state in states:
            expected[state.t - 1] = state.probabilities()[state.t]
        if kind != "general":
            origin, final = lqw.harness._walk(init, params, t_max)
        else:
            start, diff = lqw.core._reduced_start(init, params)
            loop_weight = np.sum(np.abs(diff) ** 2)
            columns = np.empty((3, t_max), dtype=np.complex128)
            for t, window in kernel_windows(start, params, t_max):
                if t:
                    columns[:, t - 1] = window[:, t]
            origin = lqw.core._column_weights(columns[lqw.core._LUR]) + loop_weight
            final = evolve(init, params, t_max)
        assert final.t == t_max
        assert np.array_equal(final.loop_diff, state.loop_diff)
        if kind != "general":
            assert np.max(np.abs(origin - expected)) < self.MIRROR_ORIGIN
            assert np.max(np.abs(final.moving - state.moving)) < self.MIRROR_MOVING
            evolved = evolve(init, params, t_max)
            assert np.array_equal(final.moving, evolved.moving)
            assert origin[-1] == evolved.probabilities()[t_max]
        else:
            assert np.array_equal(origin, expected)
            assert np.array_equal(final.moving, state.moving)


class TestBlockViewReaders:
    """The variance and verify walks read the kernel's fixed view of each flush block.

    Their sums and origin columns equal a read of every step's own (3, 2t+1)
    window bit for bit.
    """

    INITS = {"default": StandardInit(1 / np.sqrt(2), 1j / np.sqrt(2)),
             "real": StandardInit(0.6, 0.8),
             "skewed": StandardInit((1 + np.sqrt(2) * 1j) / 2, np.sqrt(2) * (1 + 1j) / 4)}

    @pytest.mark.parametrize("tau", [1, 10, 100])
    @pytest.mark.parametrize("t_max", [1001, 2000])
    @pytest.mark.parametrize("kind", ["default", "real", "skewed", "general"])
    def test_variances_match_the_per_step_read(self, tau, t_max, kind):
        params = WalkParams(tau)
        init = (random_general(np.random.default_rng(70 + tau), params) if kind == "general"
                else self.INITS[kind])
        variances, _ = lqw.harness._variances(init, params, t_max)
        assert variances.tobytes() == per_step_variances(init, params, t_max).tobytes()

    @pytest.mark.parametrize("tau", [1, 10, 100])
    @pytest.mark.parametrize("t_max", [1, 33, 1001])
    @pytest.mark.parametrize("kind", ["default", "real", "skewed"])
    def test_walk_matches_the_per_step_read(self, tau, t_max, kind):
        params, init = WalkParams(tau), self.INITS[kind]
        origin, final = lqw.harness._walk(init, params, t_max)
        expected_origin, expected = per_step_walk(init, params, t_max)
        assert origin.tobytes() == expected_origin.tobytes()
        assert final.t == expected.t == t_max
        assert final.moving.tobytes() == expected.moving.tobytes()
        assert final.loop_diff.tobytes() == expected.loop_diff.tobytes()


class TestPerStepNormCheck:
    """A walk that leaks norm is stopped within a few steps of the leak, on every route."""

    @staticmethod
    def leaking_steps(series, init, monkeypatch) -> int:
        """The kernel steps that ``series(init, 10, 2000)`` takes under a coin that leaks norm."""
        coin, kernel = lqw.core._moving_coin, lqw.core._evolution_buffers
        steps = []

        def counted(*args, **kwargs):
            for step in kernel(*args, **kwargs):
                steps.append(step[0])
                yield step

        monkeypatch.setattr(lqw.core, "_moving_coin", lambda params: coin(params) * (1 + 1e-6))
        monkeypatch.setattr(lqw.core, "_evolution_buffers", counted)
        with pytest.raises(NormalizationError):
            series(init, 10, 2000)
        return len(steps)

    @pytest.mark.parametrize("series", [localization_series, variance_series,
                                        verification_suite])
    def test_a_non_unitary_coin_is_caught_early(self, series, symmetric_init, monkeypatch):
        assert 0 < self.leaking_steps(series, symmetric_init, monkeypatch) < 300

    def test_a_general_init_with_loop_differences_is_caught_early(self, monkeypatch):
        # the variance checks (sum L^2 + sum R^2 + u . u) + |d|^2 on the float64
        # view of the complex window: the unitary walk, whose moving sector holds
        # only 1 - |d|^2 of the norm, passes, and the leaking coin is caught
        params = WalkParams(10)
        init = random_general(np.random.default_rng(7), params)
        diff = lqw.core._reduced_start(init, params)[1]
        assert np.sum(np.abs(diff) ** 2) > 0.5
        assert variance_series(init, 10, 2000).passed
        assert 0 < self.leaking_steps(variance_series, init, monkeypatch) < 300


class TestVarianceAgainstExactWalk:
    """``variance_series`` against sigma^2 of the exact walk on Python ints (``exact_moments``).

    The difference is taken relative to m2(t), the second moment of the walk
    from |left>, which bounds every term of sigma^2: |c2| <= m2 and m1^2 <= m2.
    """

    # measured at most 9.3e-15 (tau 1, the default state) over these taus,
    # states and t <= 128; the read of six product rows against 1, n and n^2
    # before the moments were telescoped measured 1.4e-14 there
    EXACT_VARIANCE = 2.5e-14
    INITS = {"default": StandardInit(1 / np.sqrt(2), 1j / np.sqrt(2)),
             "complex": StandardInit(0.6, 0.8j),
             "skewed": StandardInit((1 + np.sqrt(2) * 1j) / 2, np.sqrt(2) * (1 + 1j) / 4),
             "left": StandardInit(1, 0)}

    @pytest.mark.parametrize("tau, t_max", [(1, 128), (2, 128), (3, 128), (10, 128),
                                            (100, 128), (10**6, 64)])
    def test_variance_series_meets_the_exact_walk(self, tau, t_max):
        exact = exact_moments(tau, t_max)
        for init in self.INITS.values():
            total, skew, cross = map(Fraction, lqw.harness._mirror_weights(init))
            variances = variance_series(init, tau, t_max).table[1]
            assert variances[0] == 0.0
            for variance, (m1, m2, c2) in zip(variances[1:], exact[1:]):
                expected = total * m2 + cross * c2 - (skew * m1) ** 2
                assert abs(Fraction(variance) - expected) <= Fraction(self.EXACT_VARIANCE) * m2


class TestVarianceAgainstDenseWalk:
    """``variance_series`` against sigma^2 of the dense delta-dimensional walk (``dense_states``).

    The dense walk steps the whole coin vector under ``grover_coin``, with
    neither the kernel nor the 3 x 3 reduction.  A GeneralInit's variance
    telescopes its moments in the StandardInit's loop, over the float64 view
    of its complex window; the difference is taken relative to m2(t).
    """

    # measured at most 1.4e-14 (tau 10, the two-loop state) over these taus,
    # states and t <= 200, 2.8x below; the per-step probability row that a
    # GeneralInit's variance read before it shared the loop measured 2.0e-14
    DENSE_VARIANCE = 4e-14

    @staticmethod
    def states(tau: int) -> dict:
        params = WalkParams(tau)
        states = {"random": random_general(np.random.default_rng(90 + tau), params),
                  "uniform loop": GeneralInit((0, 0) + (1 / np.sqrt(tau),) * tau),
                  # Re(conj(alpha) beta) != 0: the only kind whose variance reads c2
                  "skewed": StandardInit((1 + np.sqrt(2) * 1j) / 2, np.sqrt(2) * (1 + 1j) / 4)}
        if tau >= 2:  # loops that are not uniform: d != 0
            states["two loops"] = GeneralInit((0.5, 0.5j, 0.5, -0.5j) + (0,) * (tau - 2))
        return states

    @staticmethod
    def dense_error(series, init, tau: int, t_max: int) -> float:
        """max over t of |sigma^2(t) from ``series`` - the dense walk's| / the dense walk's m2(t)."""
        variances = series(init, tau, t_max).table[1]
        assert variances[0] == 0.0
        worst = 0.0
        for t, amps in dense_states(init, WalkParams(tau), t_max):
            if t:
                probs, ns = np.sum(np.abs(amps) ** 2, axis=1), np.arange(-t, t + 1)
                m1, m2 = np.dot(ns, probs), np.dot(ns * ns, probs)
                worst = max(worst, abs(variances[t] - (m2 - m1 * m1)) / m2)
        return worst

    @pytest.mark.parametrize("tau", [1, 2, 3, 10, 20])
    def test_variance_series_meets_the_dense_walk(self, tau):
        for init in self.states(tau).values():
            assert self.dense_error(variance_series, init, tau, 200) <= self.DENSE_VARIANCE

    # The mutated lines serve both kinds of start.  c2 is read only by a
    # StandardInit with Re(conj(alpha) beta) != 0: a GeneralInit's weight on it is 0.
    @pytest.mark.parametrize("mutation, state", [
        ("m2 weight 2n - 1 as 2n", "random"), ("m2 weight 2n - 1 as 2n", "two loops"),
        ("c2 increment without its 2", "skewed")])
    @pytest.mark.parametrize("tau", [3, 10])
    def test_a_mutated_increment_fails_it(self, mutation, state, tau, monkeypatch):
        mutant = mutant_harness(monkeypatch, *TestTelescopedMoments.MUTATIONS[mutation])
        init = self.states(tau)[state]
        assert self.dense_error(mutant.variance_series, init, tau, 200) > self.DENSE_VARIANCE
        assert self.dense_error(variance_series, init, tau, 200) <= self.DENSE_VARIANCE

    def test_the_mean_enters_squared(self, monkeypatch):
        # sigma^2 reads (skew m1)^2, so no variance sees the sign of m1: the m1
        # increment with L and R swapped keeps every bit of every series, and
        # only moments_telescoped_vs_direct, a StandardInit's, catches it
        mutant = mutant_harness(
            monkeypatch, *TestTelescopedMoments.MUTATIONS["m1 increment with L and R swapped"])
        for init in self.states(3).values():
            assert (mutant.variance_series(init, 3, 200).table[1].tobytes()
                    == variance_series(init, 3, 200).table[1].tobytes())


class TestTelescopedMoments:
    """``moments_telescoped_vs_direct``: the moments telescoped through the steps against
    the direct sums of the last window, relative to m2(t_max)."""

    # the harness lines of each increment, and each one mutated
    MUTATIONS = {
        "m2 weight 2n - 1 as 2n": ("(2.0 * nr2 - r2)", "(2.0 * nr2)"),
        "c2 increment without its 2": ("c2 -= 2.0 * (2.0 * nlr + lr)",
                                       "c2 -= (2.0 * nlr + lr)"),
        "m1 increment with L and R swapped": ("m1 += r2 - l2", "m1 += l2 - r2"),
    }

    @pytest.mark.parametrize("tau", [1, 10, 100, 10**6, 10**12])
    def test_passes_at_every_tau(self, symmetric_init, tau):
        # 1.1e-14 to 7.3e-14 at t 2000, growing like 3.6e-17 t (3.7e-12 at t 10^5)
        verdict = variance_series(symmetric_init, tau, 2000).verdicts[-1]
        assert verdict.name == "moments_telescoped_vs_direct"
        assert verdict.tolerance == 1e-10
        assert 0.0 < verdict.measured and verdict.passed

    def test_judges_the_real_walk_at_any_state(self, symmetric_init, skewed_init):
        # the moments are those of the walk from |left>, whatever alpha and beta
        measured = {variance_series(init, 10, 300).verdicts[-1].measured
                    for init in (symmetric_init, skewed_init, StandardInit(1, 0))}
        assert len(measured) == 1

    @pytest.mark.parametrize("mutation", MUTATIONS)
    @pytest.mark.parametrize("tau", [1, 10, 100])
    def test_a_mutated_increment_fails_it(self, symmetric_init, mutation, tau, monkeypatch):
        mutant = mutant_harness(monkeypatch, *self.MUTATIONS[mutation])
        verdict = mutant.variance_series(symmetric_init, tau, 200).verdicts[-1]
        assert verdict.name == "moments_telescoped_vs_direct"
        assert not verdict.passed
        assert variance_series(symmetric_init, tau, 200).verdicts[-1].passed


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
        # tau 100, t 200 is where the oracle's cost grows with delta: its cost
        # model picks 200 steps of the shared dense coin on the 512-point grid
        # over 3 squarings of delta-102 operators
        # (test_spectral.py's test_cost_model_at_the_verify_sizes)
        assert verification_suite(symmetric_init, 100, 200).passed

    def test_memory_after_the_oracle_verdict(self):
        # measured 1.12 MB (2.83 MB while the oracle squared 1 MiB k-blocks,
        # transformed out of place and direct_vs_fourier was one whole-array
        # difference kept beside the walk's final state); the bound leaves 1.25x
        tracemalloc.start()
        try:
            report = verification_suite(StandardInit(0.6, 0.8j), 10, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 1.4e6

    def test_walks_the_kernel_once(self, symmetric_init, monkeypatch):
        # norm, direct-vs-Fourier and the localization window share one walk of
        # the kernel's reused buffer, which builds one WalkerState, at its last step
        kernel = lqw.core._evolution_buffers
        walks, states = [], []

        def counted(*args, **kwargs):
            walks.append(kwargs)
            return kernel(*args, **kwargs)

        def no_iteration(*args, **kwargs):
            raise AssertionError("verification_suite called iter_evolution")

        post_init = WalkerState.__post_init__

        def constructed(self):
            states.append(self.t)
            post_init(self)

        monkeypatch.setattr(lqw.core, "_evolution_buffers", counted)
        monkeypatch.setattr(lqw.core, "iter_evolution", no_iteration)
        monkeypatch.setattr(lqw.harness, "iter_evolution", no_iteration)
        monkeypatch.setattr(WalkerState, "__post_init__", constructed)
        report = verification_suite(symmetric_init, 2, 128)
        assert "localization_window_mean" in [v.name for v in report.verdicts]
        assert walks == [{}]
        assert states == [128]

    def test_general_init_raises_before_any_walk(self, monkeypatch):
        # no closed form covers a GeneralInit: the suite rejects it before the
        # kernel walk and the Fourier oracle, whose work would be thrown away
        calls = []

        def spied(module, name):
            real = getattr(module, name)

            def spy(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)

        spied(lqw.core, "_evolution_buffers")
        spied(lqw.spectral, "momentum_grid_solution")
        init = random_general(np.random.default_rng(3), WalkParams(3))
        with pytest.raises(UnsupportedInitialStateError):
            verification_suite(init, 3, 1000)
        assert calls == []

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
