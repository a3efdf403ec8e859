"""Position-space evolution: coin algebra, hand-derived steps, invariants."""

import math
import tracemalloc
from fractions import Fraction

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

import lqw.core
import lqw.harness
from lqw.core import (
    _FLUSH_BELOW,
    _FLUSH_EVERY,
    _LEFT,
    _SCAN_COLUMNS,
    _column_weights,
    _evolution_buffers,
    _first_live,
    _mirror_state,
    _moving_coin,
    _origin_recurrence,
    _recurrence_coefficients,
    _reduced_start,
)
from lqw.spectral import _closed_form_state, _light_cone_tail

from conftest import dense_states, kernel_windows, random_general, random_standard


def complex_coin_walk(init, params: WalkParams, t_max: int):
    """Yield (moving, loop_diff) for t = 0 .. t_max, coining with the complex product.

    The rows stay in the public (left, right, u) order and each is shifted by
    a copy, so the product sums in another order than the kernel's: the two
    agree to a few ulps, not bit for bit.
    """
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


def unflushed_walk(start: np.ndarray, params: WalkParams, t_max: int):
    """Yield (t, window) for t = 0 .. t_max, every column stepped: the kernel before its tail flush.

    A new C-contiguous window per step, site n in column n + t, rows (left,
    u, right), written by the kernel's real product over the same columns;
    so a cell that no flushed tail reaches is the kernel's bit for bit.
    """
    lur = [0, 2, 1]
    g = _moving_coin(params)[lur][:, lur]
    floats = start.itemsize // 8
    window = start[lur][:, None]
    yield 0, window
    for t in range(1, t_max + 1):
        flat = np.zeros(3 * (2 * t + 1), dtype=start.dtype)
        shifted = np.ndarray((3, floats * (2 * t - 1)), np.float64, flat,
                             strides=(flat.itemsize * (2 * t + 2), 8))
        np.matmul(g, window.view(np.float64), out=shifted)
        window = flat.reshape(3, -1)
        yield t, window


def per_step_kernel(start: np.ndarray, params: WalkParams, t_max: int):
    """Yield (t, window) for t = 0 .. t_max: the kernel's loop with new views at every step.

    The same two buffers, product and tail flush as ``_evolution_buffers``,
    but each step multiplies window t-1's live hull only and yields a new
    (3, 2t+1) view of its own sites: the reference for the kernel's block
    views.
    """
    lur = [0, 2, 1]
    g = _moving_coin(params)[lur][:, lur]
    floats = start.itemsize // 8
    width = 2 * t_max + 1
    buffers = [np.zeros(3 * width, dtype=start.dtype) for _ in range(2)]
    windows = [buffer.reshape(3, width) for buffer in buffers]
    rows = [buffer.view(np.float64).reshape(3, floats * width) for buffer in buffers]
    coined = [np.ndarray((3, floats * max(width - 2, 0)), np.float64, buffer,
                         strides=(buffer.itemsize * (width + 1), 8)) for buffer in buffers]
    scratch = (np.empty((3, floats * _SCAN_COLUMNS)), np.empty(floats * _SCAN_COLUMNS),
               np.empty(floats * _SCAN_COLUMNS, dtype=bool))
    windows[0][:, t_max] = start[lur]
    lo, hi = t_max, t_max + 1
    yield 0, windows[0][:, lo:hi]
    for t in range(1, t_max + 1):
        new, old = t % 2, 1 - t % 2
        np.matmul(g, rows[old][:, floats * lo:floats * hi],
                  out=coined[new][:, floats * (lo - 1):floats * (hi - 1)])
        lo, hi = lo - 1, hi + 1
        if not t % _FLUSH_EVERY:
            live_lo = _first_live(rows[new], lo, hi, floats, scratch)
            live_hi = width - _first_live(rows[new][:, ::-1], width - hi, width - live_lo,
                                          floats, scratch)
            windows[new][:, lo:live_lo] = 0
            windows[new][:, live_hi:hi] = 0
            windows[old][:, lo + 1:live_lo + 1] = 0
            windows[old][:, live_hi - 1:hi - 1] = 0
            lo, hi = live_lo, live_hi
        yield t, windows[new][:, t_max - t:t_max + t + 1]


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
        # every snapshot owns its data, so keeping them all changes none; evolve
        # combines the real walk with its mirror, the snapshots step the complex
        # walk: 2.2e-15 apart at most (1.3e-15 in probability) to t 4000
        init = StandardInit(0.6, 0.8j)
        params = WalkParams(3)
        states = list(iter_evolution(init, params, 8))
        assert [s.t for s in states] == list(range(9))
        for state in states:
            expected = evolve(init, params, state.t)
            assert np.max(np.abs(state.moving - expected.moving)) < 6e-15
            assert np.max(np.abs(state.amplitudes - expected.amplitudes)) < 6e-15
            assert np.max(np.abs(state.probabilities() - expected.probabilities())) < 4e-15
            weight = np.sum(np.abs(state.moving) ** 2) + np.sum(np.abs(state.loop_diff) ** 2)
            assert weight == pytest.approx(state.probabilities().sum(), abs=1e-14)
            for array in (state.moving, state.loop_diff, state.amplitudes):
                assert not array.flags.writeable

    def test_evolve_holds_three_windows_at_most(self):
        # the kernel's two flat buffers of one window each; the state copies the
        # last window once the walk has let the other buffer go
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
        # the kernel allocates its buffers and its edge scan's scratch up front:
        # 100 later steps, each with a 48 KB real or 96 KB complex window, and
        # three tail flushes raise the traced peak by no more than their small
        # array views and scalars
        params = WalkParams(3)
        for start in (_LEFT, _reduced_start(StandardInit(0.6, 0.8j), params)[0]):
            steps = _evolution_buffers(start, params, 1100)
            for t, window in steps:
                if t == 1000:
                    break
            assert window.dtype == start.dtype
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for t, window in steps:
                    if t == 1100:
                        break
                assert tracemalloc.get_traced_memory()[1] - before < 4096
            finally:
                tracemalloc.stop()
            # the flushes ran: the tails at both edges are 0
            assert not np.any(window[:, :8]) and not np.any(window[:, -8:])
        # iter_evolution walks the same buffers and copies each window out: at
        # most two states are alive at once, the loop's last one while the next
        # copies its window, 2 windows of t 1100 (213 KB measured); a new kernel
        # window per step would add a third (318 KB measured)
        window = 3 * (2 * 1100 + 1) * 16
        walk = iter_evolution(StandardInit(0.6, 0.8j), params, 1100)
        for state in walk:
            if state.t == 1000:
                break
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for state in walk:
                if state.t == 1100:
                    break
            assert tracemalloc.get_traced_memory()[1] - before < 2.5 * window
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("tau", [1, 3, 100])
    @pytest.mark.parametrize("kind", ["standard", "general"])
    def test_cells_no_product_reaches_are_zero(self, tau, kind):
        # site n sits in column n + 64 of each buffer row, rows (left, u, right):
        # step t's coin product reaches row 0 at sites -t .. t-2, row 1 at 1-t ..
        # t-1 and row 2 at 2-t .. t; every other cell of the buffer is +0.0,
        # either never written or coined from zeros over the block's span.  The
        # yielded view spans the sites |n| <= s, s the last step of t's block
        # of 32.  No tail is below the flush threshold by t 64.  A StandardInit
        # walks the real walk from
        # |left> (evolve) and its complex start (iter_evolution); a GeneralInit
        # its complex start only.  The complex product in the (left, right, u)
        # order is 4.4e-16 off at most.
        params = WalkParams(tau)
        rng = np.random.default_rng(900 + tau)
        init = random_standard(rng) if kind == "standard" else random_general(rng, params)
        walks = [(_reduced_start(init, params)[0], init)]
        if kind == "standard":
            walks.append((_LEFT, StandardInit(1, 0)))
        columns = np.arange(2 * 64 + 1)
        for start, walk_init in walks:
            steps = zip(_evolution_buffers(start, params, 64),
                        complex_coin_walk(walk_init, params, 64))
            for (t, view), (moving, _) in steps:
                last = -(-t // _FLUSH_EVERY) * _FLUSH_EVERY
                assert view.shape == (3, 2 * last + 1) and view.dtype == start.dtype
                assert view.strides == ((2 * 64 + 1) * view.itemsize, view.itemsize)
                window = view[:, last - t:last + t + 1]
                assert np.max(np.abs(window - moving[[0, 2, 1]])) < 1e-15
                written = (np.abs(columns - 64 + 1 - np.arange(3)[:, None]) < t if t
                           else columns == 64)
                buffer = view.base.reshape(3, -1)
                assert np.array_equal(buffer[:, 64 - last:64 + last + 1], view)
                untouched = buffer.view(np.float64).reshape(3, -1, buffer.itemsize // 8)[
                    ~np.broadcast_to(written, buffer.shape)]
                assert not np.any(untouched) and not np.any(np.signbit(untouched))

    @pytest.mark.parametrize("tau", [1, 2, 10, 100])
    @pytest.mark.parametrize("kind", ["standard", "general"])
    def test_reused_buffers_match_new_windows(self, tau, kind):
        # at tau 1 the kernel flushes the light-cone tails from t 384 (unflushed,
        # they turn subnormal from about t 645); the complex product in the (left, right, u) order is 1.9e-15 off at most.
        # A StandardInit's evolve combines the real walk with its mirror while
        # iter_evolution steps the complex walk: over every t <= 4000 they are
        # 1.7e-14 apart at most (tau 1), and 1.9e-14 from the complex product.
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
            moving, loop_diff = reference[t]
            if kind == "standard":
                assert np.max(np.abs(state.moving - fresh[t].moving)) < 5e-14
                assert np.max(np.abs(state.moving - moving)) < 6e-14
            else:
                assert np.array_equal(state.moving, fresh[t].moving)
                assert np.max(np.abs(state.moving - moving)) < 4e-15
            assert np.array_equal(state.loop_diff, fresh[t].loop_diff)
            assert np.array_equal(state.loop_diff, loop_diff)

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


class TestTailFlush:
    """Every 32 steps the kernel sets the edge columns below 2^-600 to 0 and steps only the rest.

    Unflushed, the light-cone tails turn subnormal, at tau 1 from about t 645.
    """

    STARTS = {"real": lambda params: _LEFT,
              "complex": lambda params: _reduced_start(StandardInit(0.6, 0.8j), params)[0]}

    @pytest.mark.parametrize("tau", [1, 2, 3, 5])
    @pytest.mark.parametrize("start", ["real", "complex"])
    def test_no_window_cell_is_subnormal(self, tau, start):
        params = WalkParams(tau)
        tiny = np.finfo(np.float64).tiny
        for t, window in _evolution_buffers(self.STARTS[start](params), params, 4000):
            values = np.abs(window.view(np.float64))
            assert np.min(values, where=values > 0, initial=1.0) >= tiny, t

    # Cells at least this large and column weights at least this large are the
    # unflushed kernel's bit for bit, and every cell is within the bound.
    # Measured over t <= 4000 at tau 1, 2, 3 and 10, the largest differing cell
    # and cell difference: the real walk 2^-513.0 and 2^-566.0 (tau 2), with
    # every weight the same; from (0.6, 0.8i) 2^-483.7 and 2^-537.0, a weight
    # of 2^-967.3 (all at tau 1).  A flushed tail moves the hull's edge cells by
    # less than an ulp, but a rounding that flips hands an ulp on inwards.
    AGREEMENT = {"real": (2.0 ** -500, 0.0, 2.0 ** -565),
                 "complex": (2.0 ** -450, 2.0 ** -900, 2.0 ** -536)}

    @pytest.mark.parametrize("tau", [1, 2, 3, 10])
    @pytest.mark.parametrize("start", ["real", "complex"])
    def test_matches_the_unflushed_kernel(self, tau, start):
        params = WalkParams(tau)
        first = self.STARTS[start](params)
        cells, weights, bound = self.AGREEMENT[start]
        walks = zip(kernel_windows(first, params, 4000), unflushed_walk(first, params, 4000))
        for (t, window), (_, plain) in walks:
            large = np.abs(plain) >= cells
            assert np.array_equal(window[large], plain[large]), t
            ours, theirs = _column_weights(window), _column_weights(plain)
            heavy = theirs >= weights
            assert np.array_equal(ours[heavy], theirs[heavy]), t
            assert np.max(np.abs(window - plain)) <= bound, t
        # the tails were flushed: the last window has fewer nonzero cells
        assert np.count_nonzero(window) < np.count_nonzero(plain)

    @pytest.mark.parametrize("floats", [1, 2])
    def test_a_tail_wider_than_one_scan_is_found_whole(self, floats):
        # a hull of 8 scan blocks below the threshold but for one value at each
        # end, 3 blocks and 5 columns in from the left, 2 blocks and 3 from the right
        width = 8 * _SCAN_COLUMNS
        rows = np.full((3, floats * width), _FLUSH_BELOW / 2)
        rows[1, floats * (3 * _SCAN_COLUMNS + 5)] = _FLUSH_BELOW
        rows[2, floats * (width - 2 * _SCAN_COLUMNS - 3) - 1] = -_FLUSH_BELOW
        scratch = (np.empty((3, floats * _SCAN_COLUMNS)), np.empty(floats * _SCAN_COLUMNS),
                   np.empty(floats * _SCAN_COLUMNS, dtype=bool))
        lo = _first_live(rows, 0, width, floats, scratch)
        assert lo == 3 * _SCAN_COLUMNS + 5
        hi = width - _first_live(rows[:, ::-1], 0, width - lo, floats, scratch)
        assert hi == width - 2 * _SCAN_COLUMNS - 3
        assert _first_live(rows, lo, width, floats, scratch) == lo
        # a hull with no value at the threshold is below it whole, past any block
        assert _first_live(rows, 0, lo, floats, scratch) == lo
        assert _first_live(rows, lo + 1, hi - 1, floats, scratch) == hi - 1

    @pytest.mark.parametrize("tau", [1, 3])
    def test_every_flush_leaves_live_edges_and_zero_tails(self, tau, monkeypatch):
        # with 2-column scan blocks each flushed tail spans several blocks: every
        # flush must leave edge columns holding a value of at least the
        # threshold, as the default scan leaves them, and until the next flush
        # each window, in either buffer, is 0 beyond those sites plus one a step
        params = WalkParams(tau)
        start = _reduced_start(StandardInit(0.6, 0.8j), params)[0]
        default = [window.copy() for _, window in kernel_windows(start, params, 1000)]
        monkeypatch.setattr(lqw.core, "_SCAN_COLUMNS", 2)
        flushed, hull = 0, None
        for t, window in kernel_windows(start, params, 1000):
            assert np.array_equal(window, default[t]), t
            if hull is not None:
                (first, last), reach = hull, t - flush_t
                sites = np.arange(-t, t + 1)
                assert not np.any(window[:, (sites < first - reach) | (sites > last + reach)]), t
            if t % _FLUSH_EVERY or t == 0:
                continue
            live = np.flatnonzero(np.any(window != 0, axis=0))
            edges = window[:, live[[0, -1]]]
            peaks = np.maximum(np.abs(edges.real), np.abs(edges.imag)).max(axis=0)
            assert np.all(peaks >= _FLUSH_BELOW), t
            flushed += 2 * t + 1 - (live[-1] - live[0] + 1)
            hull, flush_t = (live[0] - t, live[-1] - t), t
        assert flushed > 0

    def test_a_moving_sector_of_zeros_is_flushed_whole(self):
        # no weight on the moving sector: the hull empties at the first flush and
        # the walk goes on over nothing, the loops flipping sign
        start = np.array([1, -1]) / np.sqrt(2)
        init = GeneralInit((0, 0, *start))
        for state in iter_evolution(init, WalkParams(2), 100):
            assert not np.any(state.moving)
            assert np.array_equal(state.loop_diff, (-1) ** state.t * start)
        state = evolve(init, WalkParams(2), 100)
        assert not np.any(state.moving)
        assert state.probabilities()[100] == pytest.approx(1.0, abs=1e-15)


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


def exact_origin(tau: int, t_max: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(left, right, U) at the origin of the walk from |left>, t = 0 .. t_max, as exact Fractions.

    U is the sum of the loop amplitudes, sqrt(tau) u.  Each step of the
    delta-scaled integer walk is s = 2 (l + r + U), l' = s - delta l,
    r' = s - delta r, U' = tau s - delta U at every site, then the shift;
    step t divides by delta^t.
    """
    d = tau + 2
    size = 2 * t_max + 3
    left, right, loops = [0] * size, [0] * size, [0] * size
    left[t_max + 1] = 1
    out = [(Fraction(1), Fraction(0), Fraction(0))]
    for t in range(1, t_max + 1):
        s = [2 * (a + b + c) for a, b, c in zip(left, right, loops)]
        left = [s[n + 1] - d * left[n + 1] for n in range(size - 1)] + [0]
        right = [0] + [s[n] - d * right[n] for n in range(size - 1)]
        loops = [tau * sn - d * c for sn, c in zip(s, loops)]
        scale = d ** t
        out.append(tuple(Fraction(row[t_max + 1], scale) for row in (left, right, loops)))
    return out


class TestFlushBlocks:
    """The kernel builds its views once per block of ``_FLUSH_EVERY`` steps.

    Every step of a block multiplies the columns that the block's last step
    reads, and yields the block's view of the sites |n| <= s, s the block's
    last step (t_max for the last block).  Cells outside a step's live hull
    are zeros, which coin to +0.0.
    """

    @pytest.mark.parametrize("tau", [1, 3, 10, 100])
    @pytest.mark.parametrize("start", ["real", "complex"])
    @pytest.mark.parametrize("t_max", [1, 31, 32, 33, 65, 1000, 4001])
    def test_views_match_the_per_step_loop(self, tau, start, t_max):
        params = WalkParams(tau)
        first = TestTailFlush.STARTS[start](params)
        views, trimmed = {}, 0
        walks = zip(_evolution_buffers(first, params, t_max), per_step_kernel(first, params, t_max))
        for (t, view), (_, window) in walks:
            last = min(-(-t // _FLUSH_EVERY) * _FLUSH_EVERY, t_max)
            assert view.shape == (3, 2 * last + 1), t
            # one view per block and buffer
            assert views.setdefault((last, t % 2), view) is view, t
            # every cell of |n| <= t bit for bit, the sign of a zero included
            assert view[:, last - t:last + t + 1].tobytes() == window.tobytes(), t
            outside = np.concatenate((view[:, :last - t], view[:, last + t + 1:]), axis=1)
            assert not np.any(outside), t
            assert not np.any(np.signbit(outside.view(np.float64))), t
            if t and not t % _FLUSH_EVERY:
                # the block's last step is flushed before it is yielded: its
                # live edges hold a value of at least the threshold
                live = np.flatnonzero(np.any(view != 0, axis=0))
                edges = view[:, live[[0, -1]]]
                peaks = np.maximum(np.abs(edges.real), np.abs(edges.imag)).max(axis=0)
                assert np.all(peaks >= _FLUSH_BELOW), t
                trimmed += 2 * t + 1 - (live[-1] - live[0] + 1)
        assert t == t_max
        # the tau-1 and tau-3 walks to t 1000 flush their tails
        assert trimmed > 0 or tau > 3 or t_max < 1000


class TestOriginRecurrence:
    """The origin column of the walk from |left> from its exact recurrences (``_origin_recurrence``)."""

    TAUS = [1, 2, 3, 10, 100, 10**6, 10**12]

    @pytest.mark.parametrize("tau", TAUS)
    def test_differences_obey_the_recurrences_exactly(self, tau):
        # the package's own coefficients, evaluated in Fractions, at every t <= 100
        exact = exact_origin(tau, 100)
        kappa = Fraction(tau - 2, tau + 2)
        for row, (e, f) in ((0, (0, 2)), (1, (1, 2)), (2, (3, 4))):  # left, right, U
            a = [step[row] for step in exact]
            d = [y - x for x, y in zip(a, a[1:])]
            for t in range(len(d) - 2):
                c = _recurrence_coefficients(Fraction(t), kappa)
                assert d[t + 2] == c[e] * d[t + 1] - c[f] * d[t], (row, t)

    @pytest.mark.parametrize("tau", TAUS)
    def test_float_run_matches_the_exact_walk(self, tau):
        # seeds in closed form and 98 recurrence steps in float64: measured at
        # most 2.8e-16 from the exact amplitudes over these tau
        exact = exact_origin(tau, 100)
        expected = np.array([[float(l), float(u / math.sqrt(tau)) if u else 0.0, float(r)]
                             for l, r, u in exact]).T
        run = _origin_recurrence(WalkParams(tau), 100)
        assert np.max(np.abs(run - expected)) < 8e-16

    @pytest.mark.parametrize("t_max", [0, 1, 2, 3, 4100])
    def test_short_runs_are_prefixes(self, t_max):
        # the seeds cover t <= 2, and a run crosses its 4096-step blocks seamlessly
        full = _origin_recurrence(WalkParams(3), 4100)
        assert np.array_equal(_origin_recurrence(WalkParams(3), t_max), full[:, :t_max + 1])

    def test_matches_the_kernel_walk(self):
        # the real walk from |left> to t 4000: measured 9.0e-14 at tau 1 (the
        # kernel's drift) and 9.7e-15 at tau 10
        for tau, bound in ((1, 2.5e-13), (10, 3e-14)):
            run = _origin_recurrence(WalkParams(tau), 4000)
            kernel = np.empty_like(run)
            for t, a in kernel_windows(_LEFT, WalkParams(tau), 4000):
                kernel[:, t] = a[:, t]
            assert np.max(np.abs(run - kernel)) < bound, tau

    @pytest.mark.parametrize("t", [10**4, 10**5, 10**6])
    def test_matches_the_closed_form_state_at_large_t(self, t):
        # tau 10: measured 8.5e-15, 6.7e-14 and 6.9e-14
        params = WalkParams(10)
        closed = _closed_form_state(StandardInit(1, 0), params, t).moving[:, t]
        run = _origin_recurrence(params, t)[:, t]
        assert np.max(np.abs(closed - run[[0, 2, 1]])) < 2e-13


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

    def test_a_walk_passes_its_loop_weight_once(self):
        # d only flips sign, so iter_evolution takes |d|^2 once and every state
        # checks its norm with it; a state checks the weight it is given
        params = WalkParams(3)
        init = random_general(np.random.default_rng(13), params)
        diff = _reduced_start(init, params)[1]
        states = list(iter_evolution(init, params, 5))
        assert all(s._loop_weight == np.vdot(diff, diff).real for s in states)
        last = states[-1]
        with pytest.raises(NormalizationError):
            WalkerState(last.t, last.moving, last.loop_diff, last._loop_weight + 1e-9)

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
                # the coin's matrix is the dense one; the products sum in another order
                assert np.max(np.abs(state.amplitudes - dense)) < 2e-15
                assert np.max(np.abs(state.probabilities() - dense_probs)) < 1e-15
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
            assert np.max(np.abs(state.moving - moving)) < 1e-15
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


class TestMirrorSymmetry:
    """The walk from |right> is the walk from |left> reflected: n -> -n, left <-> right.

    A StandardInit's evolve, variance and verify walk step only the real walk
    a from |left> and read alpha a + beta mirror(a), mirror(a) = a[::-1, ::-1]
    in the kernel's (left, u, right) rows.
    """

    @pytest.mark.parametrize("tau", [1, 2, 10, 100])
    def test_right_walk_is_the_mirror_of_the_left_walk(self, tau):
        # measured over t <= 256: 1.2e-15 between the mirror and the complex walk
        # from |right> (tau 100), 5.3e-15 for <a, mirror(a)> (tau 2)
        params = WalkParams(tau)
        walks = zip(kernel_windows(_LEFT, params, 256),
                    iter_evolution(StandardInit(1, 0), params, 256),
                    iter_evolution(StandardInit(0, 1), params, 256))
        for (t, a), left, right in walks:
            # the real walk is the complex walk from |left>, bit for bit
            assert np.array_equal(left.moving.real, a[[0, 2, 1]])
            assert not np.any(left.moving.imag)
            mirrored = _mirror_state(StandardInit(0, 1), params, t, a)
            assert np.max(np.abs(mirrored.moving - right.moving)) < 4e-15
            # |left> and |right> are orthogonal, and the walk keeps them so
            flat = a.ravel()
            assert abs(np.dot(flat, flat[::-1])) < 2e-14

    @pytest.mark.parametrize("tau", range(1, 21))
    def test_evolve_matches_dense_and_complex_walks_at_skewed_states(self, tau, skewed_init):
        # measured: 4.6e-15 in amplitude and 5.1e-15 in probability from the dense
        # walk (tau >= 2), 6.2e-16 from the complex product
        params = WalkParams(tau)
        checked = {1, 2, 37, 200}
        for init in (skewed_init, random_standard(np.random.default_rng(100 + tau))):
            walks = zip(dense_states(init, params, 200), complex_coin_walk(init, params, 200))
            for (t, dense), (moving, _) in walks:
                if t not in checked:
                    continue
                state = evolve(init, params, t)
                dense_probs = np.sum(np.abs(dense) ** 2, axis=1)
                assert np.max(np.abs(state.amplitudes - dense)) < 2e-14
                assert np.max(np.abs(state.probabilities() - dense_probs)) < 2e-14
                assert np.max(np.abs(state.moving - moving)) < 2.5e-15

    @pytest.mark.parametrize("tau", range(1, 21))
    def test_mirror_moments_match_the_complex_walk_at_skewed_states(self, tau, skewed_init):
        # the cross term 2 Re(conj(alpha) beta) sum n^2 C(n) of the variance;
        # the telescoped moments measured within 6.9e-15 relative of the complex
        # walk's to t 200 (tau 10).  Against the exact walk there, the
        # telescoped series is 1.2e-14 off and the complex walk's 1.9e-14
        params = WalkParams(tau)
        t_max = 200
        ns = np.arange(-t_max, t_max + 1, dtype=float)
        for init in (skewed_init, random_standard(np.random.default_rng(200 + tau))):
            expected = np.empty(t_max + 1)
            for state in iter_evolution(init, params, t_max):
                sites = slice(t_max - state.t, t_max + state.t + 1)
                probs = state.probabilities()
                mean = float(np.dot(ns[sites], probs))
                expected[state.t] = float(np.dot(ns[sites] ** 2, probs)) - mean * mean
            variances, _ = lqw.harness._variances(init, params, t_max)
            assert variances[0] == expected[0] == 0.0
            assert np.all(np.abs(variances - expected) <= 2e-14 * expected)


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
