"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion alongside the measured values.
"""

import json
import time

import numpy as np
from scipy import integrate

from lqw import (
    StandardInit,
    WalkParams,
    WeakLimitModel,
    distribution_snapshot,
    eigen_system,
    empirical_vs_weak_limit,
    evolve,
    fit_power_law,
    grover_coin,
    iter_evolution,
    limit_moment,
    localization_probability_origin,
    localization_series,
    momentum_operator,
    peak_velocities,
    propagate_fourier,
    spread_coefficient,
    theta_constants,
    variance_series,
)
from lqw.cli import main

from conftest import dense_f3, random_standard

SWEEP_TAUS = [1, 2, 5, 10, 20]


def report(criterion, ok, detail):
    print(f"\n[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def localization_limit(tau):
    return 2 * (tau + 4 - 2 * np.sqrt(2 * tau + 4)) / tau**2


class TestCriterion1LocalizationLimit:
    def test_window_means_match_theory(self, symmetric_init):
        worst = 0.0
        details = []
        for tau in (1, 6, 20):
            start = time.perf_counter()
            run = localization_series(symmetric_init, tau, 1000)
            elapsed = time.perf_counter() - start
            deviation = abs(run.metrics["window_mean"] - localization_limit(tau))
            worst = max(worst, deviation)
            details.append(f"tau={tau}: dev={deviation:.2e} in {elapsed:.1f}s")
            assert elapsed < 30.0, f"tau={tau} exceeded the 30 s runtime target"
        report(1, worst < 1e-2, "; ".join(details))


class TestCriterion2InitialStateIndependence:
    def test_twenty_random_inits(self):
        rng = np.random.default_rng(20240)
        inits = [random_standard(rng) for _ in range(20)]
        closed = [localization_probability_origin(init, 5) for init in inits]
        closed_spread = max(closed) - min(closed)
        window_means = [
            localization_series(init, 5, 1000).metrics["window_mean"] for init in inits
        ]
        sim_spread = max(window_means) - min(window_means)
        ok = closed_spread < 1e-13 and sim_spread < 2e-2
        report(2, ok, f"closed-form spread {closed_spread:.1e}, simulated spread {sim_spread:.2e}")


class TestCriterion3PeakPositions:
    def test_travelling_peaks(self, symmetric_init):
        details = []
        ok = True
        for tau, expected in ((1, 29), (10, 46)):
            run = distribution_snapshot(symmetric_init, tau, 50)
            right, left = run.metrics["right_peak"], run.metrics["left_peak"]
            ok = ok and abs(right - expected) <= 2 and abs(left + right) <= 1
            details.append(f"tau={tau}: right={right} (theory {expected}), left={left}")
        report(3, ok, "; ".join(details))


class TestCriterion4OracleEquivalence:
    def test_direct_vs_fourier_sweep(self, symmetric_init):
        worst = 0.0
        for tau in (1, 3, 10):
            params = WalkParams(tau)
            for t in (1, 7, 50, 100):
                direct = evolve(symmetric_init, params, t).amplitudes
                fourier = propagate_fourier(symmetric_init, params, t)
                worst = max(worst, float(np.max(np.abs(direct - fourier))))
        report(4, worst < 1e-10, f"max amplitude deviation {worst:.2e} over taus x steps")

    def test_verify_battery_at_tau_100(self, tmp_path):
        # delta 102: the oracle steps the shared coin; the whole battery, end to end
        start = time.perf_counter()
        status = main(["verify", "--tau", "100", "--steps", "200", "--out", str(tmp_path)])
        elapsed = time.perf_counter() - start
        verdicts = json.loads((tmp_path / "verify.json").read_text())["verdicts"]
        failed = [v["name"] for v in verdicts if not v["passed"]]
        ok = status == 0 and verdicts and not failed
        report("4-tau100", ok,
               f"exit {status}, {len(verdicts)} verdicts, failed {failed}, {elapsed:.1f}s")


class TestCriterion5EigenSystem:
    def test_residuals_and_multiplicities(self):
        rng = np.random.default_rng(5150)
        worst = 0.0
        mult_ok = True
        for tau in (1, 2, 5, 10):
            params = WalkParams(tau)
            ks = rng.uniform(-np.pi, np.pi, size=50)
            ks = ks[ks != 0.0]
            for k in ks:
                system = eigen_system(params, k)
                u = momentum_operator(params, k)
                for j in range(params.delta):
                    vec = system.eigenvectors[:, j]
                    residual = np.linalg.norm(u @ vec - np.exp(1j * system.omegas[j]) * vec)
                    worst = max(worst, float(residual))
            for k in rng.uniform(-np.pi, np.pi, size=5):
                lam = np.linalg.eigvals(momentum_operator(params, k))
                mult_ok = mult_ok and int(np.sum(np.abs(lam + 1) < 1e-8)) == tau - 1
                mult_ok = mult_ok and int(np.sum(np.abs(lam - 1) < 1e-8)) == 1
        ok = worst < 1e-10 and mult_ok
        report(5, ok, f"max residual {worst:.2e}; multiplicities (1,1,1,tau-1) {mult_ok}")


class TestCriterion6WeakLimitClosure:
    def test_closure_sweep(self):
        rng = np.random.default_rng(606)
        worst = 0.0
        slowest = 0.0
        for tau in SWEEP_TAUS:
            for _ in range(5):
                init = random_standard(rng)
                start = time.perf_counter()
                model = WeakLimitModel(init, tau)
                closure = model.p_hat + model.continuous_mass()
                slowest = max(slowest, time.perf_counter() - start)
                worst = max(worst, abs(closure - 1.0))
        ok = worst < 1e-6 and slowest < 1.0
        report(6, ok, f"max |P_hat + integral(f) - 1| = {worst:.2e}; slowest case {slowest:.2f}s")


class TestCriterion7SpreadCoefficient:
    def test_closed_form_vs_moments(self):
        rng = np.random.default_rng(707)
        worst = 0.0
        for tau in SWEEP_TAUS:
            for _ in range(5):
                init = random_standard(rng)
                moments = limit_moment(init, tau, 2) - limit_moment(init, tau, 1) ** 2
                worst = max(worst, abs(spread_coefficient(init, tau) - moments))
        report("7a", worst < 1e-6, f"max |closed form - moment quadrature| = {worst:.2e}")

    def test_simulation_fit_sweep(self, skewed_init):
        worst_alpha = 0.0
        worst_rel = 0.0
        for tau in range(1, 21):
            run = variance_series(skewed_init, tau, 1000)
            c_fit, alpha_fit = fit_power_law(*run.table)
            c_theory = spread_coefficient(skewed_init, tau)
            worst_alpha = max(worst_alpha, abs(alpha_fit - 2.0))
            worst_rel = max(worst_rel, abs(c_fit - c_theory) / c_theory)
        ok = worst_alpha <= 0.05 and worst_rel < 0.10
        report(
            "7b", ok,
            f"max |alpha_fit - 2| = {worst_alpha:.3f}, max |c_fit/c - 1| = {worst_rel:.3f}",
        )


class TestCriterion8DistributionalConvergence:
    def test_weak_limit_at_t1000(self, symmetric_init):
        run = empirical_vs_weak_limit(symmetric_init, 1, 1000)
        sup = run.metrics["sup_distance"]
        mass_dev = abs(run.metrics["near_origin_mass"] - run.metrics["near_origin_mass_theory"])
        ok = sup <= 0.05 and mass_dev <= 0.05
        report(8, ok, f"sup distance {sup:.3f}; near-origin mass deviation {mass_dev:.3f}")


class TestCriterion9PropertySuites:
    def test_norm_conservation(self):
        rng = np.random.default_rng(909)
        worst = 0.0
        for tau in SWEEP_TAUS:
            init = random_standard(rng)
            for state in iter_evolution(init, WalkParams(tau), 200):
                worst = max(worst, abs(float(np.sum(state.probabilities())) - 1.0))
        report("9-norm", worst < 1e-12, f"max norm drift {worst:.2e} (taus {SWEEP_TAUS}, t<=200)")

    def test_light_cone_exact(self):
        state = evolve(StandardInit(0.6, 0.8j), WalkParams(3), 25)
        # the state holds no site past |n| = t: nothing outside the cone to be nonzero
        outside = state.amplitudes.shape == (51, 5)
        # boundary sites are reachable only by moving every step: at n = +t
        # all components except "right" are structurally zero (and mirrored)
        edge = max(
            float(np.max(np.abs(state.amplitudes[-1, [0, 2, 3, 4]]))),
            float(np.max(np.abs(state.amplitudes[0, [1, 2, 3, 4]]))),
        )
        ok = outside and edge == 0.0
        report("9-lightcone", ok,
               f"amplitudes {state.amplitudes.shape}; forbidden edge components {edge}")

    def test_grover_involution(self):
        worst = 0.0
        for tau in range(1, 101):
            g = grover_coin(WalkParams(tau))
            worst = max(worst, float(np.max(np.abs(g @ g - np.eye(tau + 2)))))
        report("9-involution", worst < 1e-12, f"max |G^2 - I| = {worst:.2e} for tau <= 100")

    def test_theta_constants_vs_quadrature(self):
        worst = 0.0
        for tau in SWEEP_TAUS:
            th = theta_constants(tau)
            n3 = lambda k: (1 + np.cos(k)) / (tau + 4 + tau * np.cos(k))
            k1 = lambda k: 2 / (1 + np.exp(-1j * k))
            k2 = lambda k: 2 / (1 + np.exp(1j * k))
            for value, integrand in (
                (th.theta1, lambda k: n3(k)),
                (th.theta2, lambda k: (n3(k) * k1(k) * k2(k)).real),
                (th.theta3, lambda k: (n3(k) * k1(k) ** 2).real),
            ):
                oracle, _ = integrate.quad(integrand, -np.pi, np.pi)
                worst = max(worst, abs(value - oracle / (2 * np.pi)))
        report("9-theta", worst < 1e-8, f"max closed-form vs quadrature deviation {worst:.2e}")

    def test_f3_vs_projector_integral(self):
        worst = 0.0
        for tau in SWEEP_TAUS:
            d = tau + 2
            m = 4096
            ks = -np.pi + 2 * np.pi * (np.arange(m) + 0.5) / m
            acc = np.zeros((d, d), dtype=complex)
            for k in ks:
                u = np.concatenate((
                    [2 / (1 + np.exp(-1j * k)), 2 / (1 + np.exp(1j * k))], np.ones(tau)
                ))
                v = u * np.sqrt((1 + np.cos(k)) / (tau + 4 + tau * np.cos(k)))
                acc += np.outer(v, v.conj())
            worst = max(worst, float(np.max(np.abs(acc / m - dense_f3(tau)))))
        report("9-f3", worst < 1e-8, f"max entrywise deviation {worst:.2e}")

    def test_velocity_equals_support_bound(self, symmetric_init):
        exact = all(
            peak_velocities(tau)[1] == WeakLimitModel(symmetric_init, tau).omega
            for tau in SWEEP_TAUS
        )
        report("9-vR-omega", exact, "v_right == Omega exactly for the sweep")

    def test_monotonicity(self):
        taus = range(1, 51)
        velocities = [peak_velocities(tau)[1] for tau in taus]
        origins = [localization_probability_origin(StandardInit(1, 0), tau) for tau in taus]
        increasing = all(b > a for a, b in zip(velocities, velocities[1:]))
        decreasing = all(b < a for a, b in zip(origins, origins[1:]))
        report(
            "9-monotone", increasing and decreasing,
            f"v_right strictly increasing: {increasing}; P_hat_0 strictly decreasing: {decreasing}",
        )
