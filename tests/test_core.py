"""Position-space evolution: coin algebra, hand-derived steps, invariants."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqw import (
    GeneralInit,
    NormalizationError,
    StandardInit,
    WalkerState,
    WalkParams,
    evolve,
    grover_coin,
    iter_evolution,
    momentum_grid_solution,
    propagate_fourier,
)

from lqw.core import _evolution_buffers, _moving_coin, _reduced_start
from lqw.spectral import _closed_form_state, _light_cone_tail

from conftest import random_general, random_standard


def apply_step(amps: np.ndarray, params: WalkParams) -> np.ndarray:
    """Dense reference for one step U = S (I x G), independent of the kernel's buffers."""
    coined = amps @ grover_coin(params).T
    n = coined.shape[0]
    new = np.zeros((n + 2, params.delta), dtype=np.complex128)
    new[0:n, 0] = coined[:, 0]
    new[2 : n + 2, 1] = coined[:, 1]
    new[1 : n + 1, 2:] = coined[:, 2:]
    return new


def dense_states(init, params: WalkParams, t_max: int):
    """Yield (t, amplitudes) for t = 0 .. t_max by repeated dense steps."""
    amps = init.coin_vector(params)[None, :]
    yield 0, amps
    for t in range(1, t_max + 1):
        amps = apply_step(amps, params)
        yield t, amps


def complex_coin_walk(init, params: WalkParams, t_max: int):
    """Yield (moving, loop_diff) for t = 0 .. t_max, coining with the complex product."""
    start, diff = _reduced_start(init, params)
    g = _moving_coin(params).astype(np.complex128)
    window = start[:, None]
    yield window, diff
    for t in range(1, t_max + 1):
        coined = g @ window
        window = np.zeros((3, 2 * t + 1), dtype=np.complex128)
        window[0, :-2] = coined[0]
        window[1, 2:] = coined[1]
        window[2, 1:-1] = coined[2]
        yield window, -diff if t % 2 else diff


class TestWalkParams:
    def test_delta_is_tau_plus_two(self):
        assert WalkParams(1).delta == 3
        assert WalkParams(10).delta == 12

    @pytest.mark.parametrize("tau", [0, -1, -7])
    def test_rejects_nonpositive_tau(self, tau):
        with pytest.raises(ValueError):
            WalkParams(tau)

    def test_rejects_non_integer_tau(self):
        with pytest.raises(TypeError):
            WalkParams(1.5)

    def test_rejects_tau_beyond_float(self):
        # every closed form takes tau to a float; 2**1023 still fits
        with pytest.raises(ValueError, match="too large"):
            WalkParams(10**400)
        assert WalkParams(2**1023).tau == 2**1023


class TestGroverCoin:
    def test_tau1_entries(self):
        # Grover operator at tau=1: diagonal -1/3, off-diagonal 2/3
        g = grover_coin(WalkParams(1))
        assert g.shape == (3, 3)
        assert np.allclose(np.diag(g), -1 / 3, atol=1e-15)
        off = g[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 2 / 3, atol=1e-15)

    def test_tau2_involution(self):
        g = grover_coin(WalkParams(2))
        assert np.max(np.abs(g @ g - np.eye(4))) < 1e-12

    def test_tau10_first_row(self):
        # row: -10/12 then eleven 2/12 entries; sums to (-10 + 22)/12 = 1
        g = grover_coin(WalkParams(10))
        assert g[0, 0] == pytest.approx(-10 / 12, abs=1e-15)
        assert np.allclose(g[0, 1:], 2 / 12, atol=1e-15)
        assert g[0].sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("tau", [1, 2, 5, 17, 50, 100])
    def test_unitary_symmetric_involutory(self, tau):
        g = grover_coin(WalkParams(tau))
        eye = np.eye(tau + 2)
        assert np.max(np.abs(g - g.T)) == 0.0
        assert np.max(np.abs(g @ g - eye)) < 1e-12
        assert np.max(np.abs(g.T @ g - eye)) < 1e-12


class TestInitialState:
    """The state at t = 0, taken with evolve(..., 0)."""

    def test_standard_places_alpha_beta(self):
        state = evolve(StandardInit(1, 0), WalkParams(1), 0)
        assert state.t == 0
        assert np.array_equal(state.amplitudes, [[1, 0, 0]])

    def test_standard_tau10_norm(self):
        state = evolve(StandardInit(1 / np.sqrt(2), 1j / np.sqrt(2)), WalkParams(10), 0)
        assert state.amplitudes.shape == (1, 12)
        assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_general_self_loop_start(self):
        init = GeneralInit((0, 0, 1, 0, 0))
        state = evolve(init, WalkParams(3), 0)
        assert state.amplitudes[state.t][2] == 1.0

    def test_rejects_non_normalized(self):
        with pytest.raises(NormalizationError):
            StandardInit(1, 1)
        with pytest.raises(NormalizationError):
            GeneralInit((0.5, 0.5))

    def test_rejects_nan_norm(self):
        # abs(nan - 1) > tol is False, so the checks must be written NaN-safe
        with pytest.raises(NormalizationError):
            StandardInit(float("nan"), 0)
        with pytest.raises(NormalizationError):
            GeneralInit((float("nan"), 0, 0))
        with pytest.raises(NormalizationError):
            WalkerState(0, np.full((3, 1), np.nan), np.zeros(1))

    def test_rejects_overflowing_norm(self):
        # |1e200|^2 overflows, and 10**400 has no float: typed errors, not OverflowError
        with pytest.raises(NormalizationError):
            StandardInit(1e200, 0)
        with pytest.raises(NormalizationError):
            GeneralInit((1e200, 0, 0))
        with pytest.raises(NormalizationError, match="expected 1"):
            StandardInit(10**400, 0)
        with pytest.raises(NormalizationError, match="expected 1"):
            GeneralInit((10**400, 0, 0))

    def test_general_wrong_length_rejected(self):
        init = GeneralInit((1, 0, 0))
        with pytest.raises(ValueError):
            evolve(init, WalkParams(5), 0)


class TestApplyStep:
    """One step of U = S (I x G), taken with evolve(..., 1)."""

    def test_tau1_single_step_amplitudes(self):
        # hand-applied master equation rows for tau=1, alpha=1, beta=0
        state = evolve(StandardInit(1, 0), WalkParams(1), 1)
        assert np.allclose(state.amplitudes[-1 + state.t], [-1 / 3, 0, 0], atol=1e-15)
        assert np.allclose(state.amplitudes[state.t], [0, 0, 2 / 3], atol=1e-15)
        assert np.allclose(state.amplitudes[1 + state.t], [0, 2 / 3, 0], atol=1e-15)

    def test_tau2_single_step_formulas(self):
        alpha, beta = 0.6, 0.8j
        params = WalkParams(2)
        state = evolve(StandardInit(alpha, beta), params, 1)
        amps = state.amplitudes
        assert amps[-1 + state.t][0] == pytest.approx((-2 * alpha + 2 * beta) / 4, abs=1e-15)
        assert amps[1 + state.t][1] == pytest.approx((2 * alpha - 2 * beta) / 4, abs=1e-15)
        assert amps[state.t][2] == pytest.approx((2 * alpha + 2 * beta) / 4, abs=1e-15)
        assert amps[state.t][3] == pytest.approx((2 * alpha + 2 * beta) / 4, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(
        tau=st.integers(min_value=1, max_value=12),
        raw=st.tuples(*[st.floats(-1, 1) for _ in range(4)]),
    )
    def test_norm_preserved_one_step(self, tau, raw):
        alpha = complex(raw[0], raw[1])
        beta = complex(raw[2], raw[3])
        norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        if norm < 1e-3:
            return
        stepped = evolve(StandardInit(alpha / norm, beta / norm), WalkParams(tau), 1)
        assert np.sum(np.abs(stepped.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_delta_rejected(self):
        # a tau = 1 coin vector cannot step under tau = 2
        with pytest.raises(ValueError):
            evolve(GeneralInit((1, 0, 0)), WalkParams(2), 1)


class TestEvolve:
    def test_t0_is_initial_state(self):
        init = StandardInit(0.6, 0.8j)
        params = WalkParams(3)
        assert np.array_equal(
            evolve(init, params, 0).amplitudes, init.coin_vector(params)[None, :]
        )

    def test_matches_repeated_apply_step(self):
        init = StandardInit(0.6, 0.8j)
        params = WalkParams(2)
        *_, (_, amps) = dense_states(init, params, 9)
        assert np.allclose(evolve(init, params, 9).amplitudes, amps, atol=1e-14)

    def test_symmetric_init_symmetric_distribution(self, symmetric_init):
        state = evolve(symmetric_init, WalkParams(1), 50)
        probs = state.probabilities()
        assert np.max(np.abs(probs - probs[::-1])) < 1e-12

    def test_origin_probability_near_limit_tau1(self, symmetric_init):
        # oscillates around 2(5 - 2 sqrt(6)) ~ 0.2020 by t = 100
        state = evolve(symmetric_init, WalkParams(1), 100)
        p0 = np.sum(np.abs(state.amplitudes[state.t]) ** 2)
        assert abs(p0 - 0.202041) < 0.05

    def test_iter_evolution_yields_every_step(self):
        init = StandardInit(1, 0)
        states = list(iter_evolution(init, WalkParams(1), 5))
        assert [s.t for s in states] == [0, 1, 2, 3, 4, 5]
        final = evolve(init, WalkParams(1), 5)
        assert np.array_equal(states[-1].amplitudes, final.amplitudes)

    def test_kept_snapshots_stay_valid(self):
        # every snapshot owns its data, so keeping them all changes none
        init = StandardInit(0.6, 0.8j)
        params = WalkParams(3)
        states = list(iter_evolution(init, params, 8))
        assert [s.t for s in states] == list(range(9))
        for state in states:
            expected = evolve(init, params, state.t)
            assert np.array_equal(state.moving, expected.moving)
            assert np.array_equal(state.amplitudes, expected.amplitudes)
            assert np.array_equal(state.probabilities(), expected.probabilities())
            weight = np.sum(np.abs(state.moving) ** 2) + np.sum(np.abs(state.loop_diff) ** 2)
            assert weight == pytest.approx(state.probabilities().sum(), abs=1e-14)
            for array in (state.moving, state.loop_diff, state.amplitudes):
                assert not array.flags.writeable

    def test_evolve_holds_three_windows_at_most(self):
        # the reused (3, 2t+1) buffer and the work array of the coin product: two windows
        t = 4000
        window = 3 * (2 * t + 1) * 16
        tracemalloc.start()
        try:
            evolve(StandardInit(1, 0), WalkParams(1), t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * window

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            evolve(StandardInit(1, 0), WalkParams(1), -1)

    def test_reused_buffers_allocate_nothing_per_step(self):
        # evolve's walk allocates its buffer up front: 100 later steps, each with a
        # 96 KB window, raise the traced peak by no more than their small array views
        steps = _evolution_buffers(StandardInit(0.6, 0.8j), WalkParams(3), 1100, reuse=True)
        for t, *_ in steps:
            if t == 1000:
                break
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for t, *_ in steps:
                if t == 1100:
                    break
            assert tracemalloc.get_traced_memory()[1] - before < 4096
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("tau", [1, 2, 10, 100])
    @pytest.mark.parametrize("kind", ["standard", "general"])
    def test_reused_buffers_match_new_windows(self, tau, kind):
        # at tau 1 the light-cone tails turn subnormal from about t 645
        params = WalkParams(tau)
        rng = np.random.default_rng(500 + tau)
        init = random_standard(rng) if kind == "standard" else random_general(rng, params)
        ts = (0, 1, 2, 3, 255, 256, 701)
        fresh = {t: state for t, state in enumerate(iter_evolution(init, params, max(ts)))
                 if t in ts}
        reference = {t: walk for t, walk in enumerate(complex_coin_walk(init, params, max(ts)))
                     if t in ts}
        for t in ts:
            state = evolve(init, params, t)
            for other in (fresh[t], WalkerState(t, *reference[t])):
                assert np.array_equal(state.moving, other.moving)
                assert np.array_equal(state.loop_diff, other.loop_diff)

    def test_evolve_result_survives_later_walks(self):
        init, params = StandardInit(0.6, 0.8j), WalkParams(2)
        state = evolve(init, params, 300)
        moving, loop_diff = state.moving.copy(), state.loop_diff.copy()
        evolve(init, params, 300)
        states = iter_evolution(init, params, 300)
        for _ in range(150):
            next(states)
        assert np.array_equal(state.moving, moving)
        assert np.array_equal(state.loop_diff, loop_diff)


class TestPositionDistribution:
    """P(X_t = n) as state.probabilities() over state.positions."""

    def test_t0_point_mass(self):
        state = evolve(StandardInit(1, 0), WalkParams(4), 0)
        assert state.positions.tolist() == [0]
        assert state.probabilities().tolist() == [1.0]

    def test_tau1_one_step(self):
        state = evolve(StandardInit(1, 0), WalkParams(1), 1)
        assert state.positions.tolist() == [-1, 0, 1]
        assert np.allclose(state.probabilities(), [1 / 9, 4 / 9, 4 / 9], rtol=0, atol=1e-14)

    def test_tau10_right_peak_location(self, symmetric_init):
        # travelling peak near sqrt(5/6) * 50 ~ 46
        state = evolve(symmetric_init, WalkParams(10), 50)
        right = state.positions > 25
        peak = state.positions[right][np.argmax(state.probabilities()[right])]
        assert abs(peak - 46) <= 2

    def test_sums_to_one(self):
        state = evolve(StandardInit(0.6, 0.8j), WalkParams(5), 40)
        assert state.probabilities().sum() == pytest.approx(1.0, abs=1e-12)


class TestInvariants:
    @pytest.mark.parametrize("tau", [1, 2, 5, 10, 20])
    def test_norm_conservation_full_history(self, tau):
        rng = np.random.default_rng(tau)
        init = random_standard(rng)
        for state in iter_evolution(init, WalkParams(tau), 200):
            assert abs(np.sum(state.probabilities()) - 1.0) < 1e-12

    def test_light_cone_exact(self):
        state = evolve(StandardInit(1, 0), WalkParams(2), 30)
        assert state.amplitudes.shape[0] == 61

    @pytest.mark.parametrize("tau", [1, 3, 8])
    def test_both_parities_populated(self, tau):
        # self-loops break the Hadamard-walk parity exclusion from t >= 2 on
        init = StandardInit(1, 0)
        for state in iter_evolution(init, WalkParams(tau), 12):
            if state.t < 2:
                continue
            probs = state.probabilities()
            same = probs[(state.positions % 2) == (state.t % 2)].sum()
            other = probs[(state.positions % 2) != (state.t % 2)].sum()
            assert same > 1e-12
            assert other > 1e-12

    def test_symmetry_all_times(self, symmetric_init):
        for state in iter_evolution(symmetric_init, WalkParams(3), 60):
            probs = state.probabilities()
            assert np.max(np.abs(probs - probs[::-1])) < 1e-12

    def test_states_are_read_only(self):
        state = evolve(StandardInit(1, 0), WalkParams(1), 3)
        with pytest.raises(ValueError):
            state.amplitudes[0, 0] = 1.0

    def test_walker_state_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            WalkerState(1, np.ones((3, 2)) / np.sqrt(6), np.zeros(1))

    def test_walker_state_rejects_bad_norm(self):
        moving = np.zeros((3, 3), dtype=complex)
        moving[0, 1] = 2.0
        with pytest.raises(NormalizationError):
            WalkerState(1, moving, np.zeros(1))


class TestWalkerState:
    """One layout: (left, right, u) over the sites plus the loop differences d."""

    @pytest.mark.parametrize("tau", [1, 2, 10])
    def test_fields_rebuild_the_state_exactly(self, tau):
        params = WalkParams(tau)
        init = random_general(np.random.default_rng(7 + tau), params)
        state = evolve(init, params, 25)
        if tau >= 2:
            assert np.max(np.abs(state.loop_diff)) > 1e-3  # loop differences present
        rebuilt = WalkerState(state.t, state.moving, state.loop_diff)
        assert np.array_equal(rebuilt.amplitudes, state.amplitudes)
        assert np.array_equal(rebuilt.probabilities(), state.probabilities())

    def test_snapshot_fields_are_read_only(self):
        params = WalkParams(3)
        init = random_general(np.random.default_rng(3), params)
        snapshots = iter_evolution(init, params, 6)
        for _ in range(4):
            state = next(snapshots)
        with pytest.raises(ValueError):
            state.moving[0, 0] = 1.0
        with pytest.raises(ValueError):
            state.loop_diff[0] = 1.0
        after = next(snapshots)
        expected = evolve(init, params, 4)
        assert np.array_equal(after.moving, expected.moving)
        assert np.array_equal(after.loop_diff, expected.loop_diff)

    def test_amplitudes_built_once_and_read_only(self):
        params = WalkParams(4)
        state = evolve(random_general(np.random.default_rng(5), params), params, 9)
        rebuilt = WalkerState(state.t, state.moving, state.loop_diff)
        for s in (state, rebuilt):
            assert s.amplitudes is s.amplitudes
            assert s.amplitudes.shape == (19, 6)
            with pytest.raises(ValueError):
                s.amplitudes[0, 0] = 1.0

    def test_rejects_wrong_moving_shape(self):
        moving = np.zeros((2, 3), dtype=complex)
        moving[0, 1] = 1.0
        with pytest.raises(ValueError, match="moving"):
            WalkerState(1, moving, np.zeros(1))
        with pytest.raises(ValueError, match="moving"):
            WalkerState(1, np.zeros((3, 1)), np.zeros(1))

    @pytest.mark.parametrize(
        "t", [3.0, np.float64(3), True, "3"], ids=["float", "float64", "bool", "str"])
    def test_rejects_non_integer_t(self, t):
        state = evolve(StandardInit(0.6, 0.8j), WalkParams(2), 3)
        with pytest.raises(TypeError, match="t must be an integer"):
            WalkerState(t, state.moving, state.loop_diff)

    def test_accepts_numpy_integer_t(self):
        state = evolve(StandardInit(0.6, 0.8j), WalkParams(2), 3)
        rebuilt = WalkerState(np.int64(3), state.moving, state.loop_diff)
        assert np.array_equal(rebuilt.amplitudes[rebuilt.t], state.amplitudes[state.t])

    def test_caller_arrays_stay_writeable(self):
        state = evolve(StandardInit(0.6, 0.8j), WalkParams(2), 3)
        moving, loop_diff = np.array(state.moving), np.array(state.loop_diff)
        rebuilt = WalkerState(3, moving, loop_diff)
        assert not rebuilt.moving.flags.writeable
        assert not rebuilt.loop_diff.flags.writeable
        assert moving.flags.writeable and loop_diff.flags.writeable

    def test_rejects_empty_loop_diff(self):
        moving = np.zeros((3, 1), dtype=complex)
        moving[0, 0] = 1.0
        with pytest.raises(ValueError, match="loop_diff"):
            WalkerState(0, moving, np.zeros(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)],
                             ids=["nan", "inf", "-inf", "nan-imag"])
    def test_rejects_non_finite_loop_diff(self, bad):
        moving = np.zeros((3, 3), dtype=complex)
        moving[0, 1] = 1.0  # norm 1 without the loop differences
        loop_diff = np.zeros(2, dtype=complex)
        loop_diff[1] = bad
        with pytest.raises(NormalizationError):
            WalkerState(1, moving, loop_diff)

    @pytest.mark.parametrize("part", ["moving", "loop_diff"])
    @pytest.mark.parametrize("offset", [1e-9, -1e-9])
    def test_rejects_norm_off_by_1e_9(self, part, offset):
        params = WalkParams(3)
        state = evolve(random_general(np.random.default_rng(11), params), params, 7)
        arrays = {"moving": np.array(state.moving), "loop_diff": np.array(state.loop_diff)}
        weight = np.vdot(arrays[part], arrays[part]).real
        arrays[part] *= np.sqrt(1.0 + offset / weight)
        with pytest.raises(NormalizationError):
            WalkerState(7, arrays["moving"], arrays["loop_diff"])

    def test_probabilities_built_once_and_read_only(self):
        params = WalkParams(4)
        state = evolve(random_general(np.random.default_rng(5), params), params, 9)
        probs = state.probabilities()
        assert probs is state.probabilities()
        assert probs.shape == (19,)
        with pytest.raises(ValueError):
            probs[0] = 1.0

    def test_construction_does_not_build_the_probabilities(self):
        t = 200_000
        moving = np.zeros((3, 2 * t + 1), dtype=complex)
        moving[0, t - 3] = 0.6
        moving[2, t + 5] = 0.8j
        loop_diff = np.zeros(3, dtype=complex)
        tracemalloc.start()
        try:
            state = WalkerState(t, moving, loop_diff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < state.probabilities().nbytes


class TestReducedKernel:
    """The 3-component kernel against the dense delta-component reference."""

    @pytest.mark.parametrize("tau", range(1, 21))
    @pytest.mark.parametrize("kind", ["standard", "general"])
    def test_matches_dense_reference(self, tau, kind):
        params = WalkParams(tau)
        rng = np.random.default_rng(100 + tau)
        init = random_standard(rng) if kind == "standard" else random_general(rng, params)
        if kind == "general" and tau >= 2:
            loops = init.coin_vector(params)[2:]
            assert np.max(np.abs(loops - loops.mean())) > 1e-3  # loop differences present
        checked = {1, 2, 37, 200}
        pairs = zip(iter_evolution(init, params, 200), dense_states(init, params, 200))
        for state, (t, dense) in pairs:
            if t not in checked:
                continue
            dense_probs = np.sum(np.abs(dense) ** 2, axis=1)
            if tau == 1:
                assert np.array_equal(state.amplitudes, dense)
                assert np.array_equal(state.probabilities(), dense_probs)
            else:
                assert np.max(np.abs(state.amplitudes - dense)) < 1e-12
                assert np.max(np.abs(state.probabilities() - dense_probs)) < 1e-12

    @pytest.mark.parametrize("tau", [2, 10, 100])
    @pytest.mark.parametrize("kind", ["standard", "general"])
    def test_real_coin_product_matches_complex_product(self, tau, kind):
        params = WalkParams(tau)
        rng = np.random.default_rng(300 + tau)
        init = random_standard(rng) if kind == "standard" else random_general(rng, params)
        pairs = zip(iter_evolution(init, params, 64), complex_coin_walk(init, params, 64))
        for state, (moving, loop_diff) in pairs:
            assert np.array_equal(state.moving, moving)
            assert np.array_equal(state.loop_diff, loop_diff)

    def test_loop_difference_start_stays_put(self):
        # no weight on the uniform loop mode: nothing moves, the loops flip sign
        start = np.array([1, -1]) / np.sqrt(2)
        init = GeneralInit((0, 0, *start))
        for state in iter_evolution(init, WalkParams(2), 9):
            probs = state.probabilities()
            assert probs[state.t] == pytest.approx(1.0, abs=1e-15)
            assert np.count_nonzero(probs) == 1
            assert np.array_equal(state.amplitudes[state.t], [0, 0, *((-1) ** state.t * start)])

    def test_memory_does_not_grow_with_tau(self):
        init = StandardInit(1 / np.sqrt(2), 1j / np.sqrt(2))
        tracemalloc.start()
        try:
            evolve(init, WalkParams(400), 100).probabilities()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _rebuilt_state(init, params, t):
    state = evolve(init, params, 3)
    return WalkerState(t, state.moving, state.loop_diff)


WALKS = {
    "evolve": evolve,
    "iter_evolution": lambda init, params, t: list(iter_evolution(init, params, t))[-1],
    "WalkerState": _rebuilt_state,
    "closed_form_state": _closed_form_state,
    "momentum_grid_solution": momentum_grid_solution,
    "propagate_fourier": propagate_fourier,
    "light_cone_tail": _light_cone_tail,
}


@pytest.mark.parametrize("walk", WALKS)
def test_every_walk_checks_its_step_count(walk):
    init, params = StandardInit(0.6, 0.8j), WalkParams(2)
    result = WALKS[walk](init, params, np.int64(3))
    if isinstance(result, WalkerState):
        assert type(result.t) is int and result.t == 3
    for t in (3.0, True, None):
        with pytest.raises(TypeError, match="t(_max)? must be an integer"):
            WALKS[walk](init, params, t)
    with pytest.raises(ValueError, match="must be >= 0"):
        WALKS[walk](init, params, -1)


def test_walk_params_stores_a_plain_int():
    assert type(WalkParams(np.int64(3)).tau) is int
