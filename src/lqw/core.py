"""Exact position-space evolution of lackadaisical quantum walks on the line.

A lackadaisical quantum walk (LQW) attaches ``tau`` self-loops to every
vertex of the integer line, enlarging the coin space to ``delta = tau + 2``
dimensions.  The coin basis order is a wire-format commitment throughout
this package:

    component 0: move left
    component 1: move right
    components 2 .. delta-1: self-loops

One step applies the Grover coin at every site and then shifts the left/right
components one site; loop components stay put.  The support after ``t`` steps
is ``[-t, t]``, and the kernel steps all of it but its underflowed tails:
every 32 steps it sets the edge columns below 2^-600 to 0 instead of
stepping subnormals, which moved no cell by more than 2^-537 to t 4000.

The Grover coin treats all loops alike, so the kernel never stores them one
by one.  At each site the loop block is ``u/sqrt(tau) (1, ..., 1) + d`` with
``d`` orthogonal to ``(1, ..., 1)``:

* the moving sector ``(left, right, u)`` is an exact three-state walk with
  coin ``2|p><p| - I``, ``p = (1, 1, sqrt(tau)) / sqrt(delta)``;
* the loop differences ``d`` never move: they live at the origin only (zero
  for ``StandardInit``) and change sign every step.

The kernel stores the moving sector as (left, u, right), whose shifts of
0, 1 and 2 sites step evenly from row to row: each step is one real product
of the real coin with the float64 view of the window's live columns, written
straight into its shifted place in the other buffer, and costs O(t) at any
``tau``.

The coin is symmetric under swapping left and right, so the walk from
|right> is the walk from |left> reflected, n -> -n with the left and right
rows swapped: in the kernel's rows that is the view ``a[::-1, ::-1]``,
mirror(a).  The walk a from |left> is real (its start, coin and shift are),
so a ``StandardInit`` state is alpha a + beta mirror(a).  ``evolve`` steps
that one real window, half the bytes and flops of a complex one, and
combines once at the end; a ``StandardInit`` builds no delta- or tau-vector
until its ``WalkerState`` holds the zero d.  ``iter_evolution`` and every
``GeneralInit`` walk step the complex window: a ``GeneralInit`` start has a
u part, which needs a second real walk.

The origin column of the walk from |left> needs no walk at all:
``_origin_recurrence`` runs its exact recurrences in O(t) time and memory
(``lqw.harness.localization_series``).

Every walk alternates between the kernel's two reused buffers, whose views
it builds once per 32-step flush block, zero-padded outside each step's
sites (``_evolution_buffers``).  ``evolve`` builds a ``WalkerState`` from
the last window only; ``iter_evolution`` builds one from every step's
centred ``(3, 2t+1)`` slice, its rows copied in the public (left, right,
u) order, so each state owns its data.  Two walks of ``lqw.harness`` read
every step from the views instead, with no state.  A ``WalkerState`` holds
exactly this data, ``moving`` (left, right, u over the sites) and
``loop_diff`` (d at the origin).  Its norm check is two dot products; ``iter_evolution`` takes the
O(tau) one, the squared norm of d, once per walk, since d only changes
sign, so each state costs O(t) at any tau.  The probability vector and the
full ``(2t+1, delta)`` amplitudes, the one way to read a site's coin state,
are built only when read.

All operations are pure; states hold read-only views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NormalizationError

__all__ = [
    "WalkParams",
    "StandardInit",
    "GeneralInit",
    "InitialCondition",
    "WalkerState",
    "grover_coin",
    "evolve",
    "iter_evolution",
]

_NORM_TOL = 1e-10

# The kernel's rows (left, u, right) as indices of (left, right, u), and back.
_LUR = np.array([0, 2, 1])

# The kernel's tail flush: every _FLUSH_EVERY steps, the edge columns whose
# every value is below _FLUSH_BELOW in magnitude are set to 0 and leave the
# product; _first_live scans _SCAN_COLUMNS columns at a time.
_FLUSH_BELOW = 2.0 ** -600
_FLUSH_EVERY = 32
_SCAN_COLUMNS = 16

# Steps per block of ``_origin_recurrence``: its coefficients for one block are
# numpy arrays, read back as Python floats.
_RECURRENCE_BLOCK = 4096

# The start |left> of the one real walk a StandardInit takes, in (left, right, u).
_LEFT = np.array([1.0, 0.0, 0.0])
_LEFT.setflags(write=False)


def _check_tau(tau: int) -> int:
    """Validate a laziness factor and return it as a plain int."""
    if not isinstance(tau, (int, np.integer)) or isinstance(tau, bool):
        raise TypeError(f"tau must be an integer, got {type(tau).__name__}")
    if tau < 1:
        raise ValueError(f"tau must be >= 1 (got {tau}); closed forms divide by tau")
    try:
        float(tau)
    except OverflowError:
        raise ValueError(f"tau is too large for a float ({int(tau).bit_length()} bits)") from None
    return int(tau)


def _check_int(name: str, value: int, minimum: int) -> int:
    """Validate an integer argument (a size, a moment order) and return it as a plain int."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return int(value)


@dataclass(frozen=True)
class WalkParams:
    """Laziness factor of the walk.  ``tau`` self-loops per vertex, tau >= 1."""

    tau: int

    def __post_init__(self):
        object.__setattr__(self, "tau", _check_tau(self.tau))

    @property
    def delta(self) -> int:
        """Coin dimension tau + 2."""
        return self.tau + 2


@dataclass(frozen=True)
class StandardInit:
    """Walker at the origin with coin state alpha|left> + beta|right>.

    This is the two-component class of initial states for which all
    closed-form asymptotics (localization value, weak limit, spread
    coefficient) hold; |alpha|^2 + |beta|^2 must be 1.
    """

    alpha: complex
    beta: complex

    def __post_init__(self):
        alpha, beta = _unit_norm((self.alpha, self.beta), "|alpha|^2 + |beta|^2")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def coin_vector(self, params: WalkParams) -> np.ndarray:
        v = np.zeros(params.delta, dtype=np.complex128)
        v[0] = self.alpha
        v[1] = self.beta
        return v


@dataclass(frozen=True)
class GeneralInit:
    """Walker at the origin with an arbitrary normalized coin vector."""

    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _unit_norm(self.amplitudes, "coin vector norm^2"))

    def coin_vector(self, params: WalkParams) -> np.ndarray:
        if len(self.amplitudes) != params.delta:
            raise ValueError(
                f"coin vector has {len(self.amplitudes)} components, "
                f"delta = {params.delta} required for tau = {params.tau}"
            )
        return np.asarray(self.amplitudes, dtype=np.complex128)


InitialCondition = StandardInit | GeneralInit


def _unit_norm(amplitudes, what: str) -> tuple[complex, ...]:
    """The amplitudes as complex; NormalizationError unless their norm^2 is 1 within 1e-12."""
    try:
        amps = tuple(complex(a) for a in amplitudes)
        n = sum(abs(a) * abs(a) for a in amps)
    except OverflowError:  # a Python int past the float range
        n = math.inf
    if not abs(n - 1.0) <= 1e-12:  # also rejects NaN, and inf where a product overflows
        raise NormalizationError(f"{what} = {n!r}, expected 1 within 1e-12")
    return amps


def _check_norm(total: float) -> None:
    """Raise NormalizationError unless the squared norm ``total`` is 1 within ``_NORM_TOL``."""
    total = float(total)
    if not abs(total - 1.0) <= _NORM_TOL:  # also rejects NaN
        raise NormalizationError(f"state norm^2 = {total!r} deviates from 1 beyond {_NORM_TOL}")


def _column_weights(moving: np.ndarray) -> np.ndarray:
    """|left|^2 + |right|^2 + |u|^2 per column of a complex (3, N) array, rows in public order."""
    squares = np.abs(moving) ** 2
    weights = squares[0] + squares[1]
    weights += squares[2]  # np.sum's order over the rows, in two adds
    return weights


@dataclass(frozen=True)
class WalkerState:
    """Wavefunction after ``t`` steps, in the walk's reduced coordinates.

    ``moving`` has shape ``(3, 2t+1)``: its rows are the left, right and
    uniform-loop (u) components at positions n = -t .. t.  ``loop_diff``
    (shape ``(tau,)``) holds the loop differences d at the origin, orthogonal
    to the uniform loop mode.  Both are stored as read-only views.

    The norm is checked on construction from the squared norms of ``moving``
    and ``loop_diff``; a walk, whose d only changes sign, passes |d|^2 in
    once for all its states (``_loop_weight``).  ``probabilities()`` builds
    its vector on first call and returns the same read-only array after
    that.  ``amplitudes``, the full ``(2t+1, delta)`` array with row
    ``n + t`` the coin state at position n, |n| <= t, is built on first
    read; ``probabilities()`` never needs it.
    """

    t: int
    moving: np.ndarray = field(repr=False)
    loop_diff: np.ndarray = field(repr=False)
    _loop_weight: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "t", _check_int("t", self.t, 0))
        moving = np.asarray(self.moving, dtype=np.complex128).view()
        loop_diff = np.asarray(self.loop_diff, dtype=np.complex128).view()
        if moving.shape != (3, 2 * self.t + 1):
            raise ValueError(f"moving must have shape (3, 2t+1); got {moving.shape} at t={self.t}")
        if loop_diff.ndim != 1 or loop_diff.size < 1:
            raise ValueError(f"loop_diff must have shape (tau,), tau >= 1; got {loop_diff.shape}")
        # read-only views: the arrays a caller passed in stay writable
        moving.setflags(write=False)
        loop_diff.setflags(write=False)
        loop_weight = self._loop_weight
        if loop_weight is None:
            loop_weight = np.vdot(loop_diff, loop_diff).real
        _check_norm(np.vdot(moving, moving).real + loop_weight)
        object.__setattr__(self, "moving", moving)
        object.__setattr__(self, "loop_diff", loop_diff)

    @cached_property
    def _probs(self) -> np.ndarray:
        probs = _column_weights(self.moving)
        # d is orthogonal to the uniform loop mode, so its weight just adds
        probs[self.t] += np.sum(np.abs(self.loop_diff) ** 2)
        probs.setflags(write=False)
        return probs

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """The full ``(2t+1, delta)`` amplitudes, read-only."""
        tau = self.loop_diff.shape[0]
        amps = np.empty((2 * self.t + 1, tau + 2), dtype=np.complex128)
        amps[:, :2] = self.moving[:2].T
        amps[:, 2:] = (self.moving[2] / math.sqrt(tau))[:, None]
        amps[self.t, 2:] += self.loop_diff
        amps.setflags(write=False)
        return amps

    @property
    def positions(self) -> np.ndarray:
        """Positions n = -t .. t matching the amplitude rows."""
        return np.arange(-self.t, self.t + 1)

    def probabilities(self) -> np.ndarray:
        """P(X_t = n) for n = -t .. t as a read-only array aligned with ``positions``."""
        return self._probs


def grover_coin(params: WalkParams) -> np.ndarray:
    """Grover coin 2|psi><psi| - I on the delta-dimensional coin space.

    Entries: -tau/delta on the diagonal, 2/delta off the diagonal.  The matrix
    is real-symmetric, unitary and an involution (G @ G = I).
    """
    d = params.delta
    g = np.full((d, d), 2.0 / d)
    np.fill_diagonal(g, -params.tau / d)
    return g


def _moving_coin(params: WalkParams) -> np.ndarray:
    """The Grover coin on (left, right, u), u the uniform loop mode.

    2|p><p| - I with p = (1, 1, sqrt(tau)) / sqrt(delta), written entry by
    entry; at tau = 1 it equals ``grover_coin`` bit for bit.
    """
    tau, d = params.tau, params.delta
    edge = 2.0 * math.sqrt(tau) / d
    return np.array([
        [-tau / d, 2.0 / d, edge],
        [2.0 / d, -tau / d, edge],
        [edge, edge, (tau - 2) / d],
    ])


def _reduced_start(init: InitialCondition, params: WalkParams) -> tuple[np.ndarray, np.ndarray]:
    """The initial coin state as (left, right, u) at the origin and the loop differences d."""
    if isinstance(init, StandardInit):  # no loop amplitude: u = 0, d = 0, with no delta-vector
        return np.array([init.alpha, init.beta, 0j]), np.zeros(params.tau, dtype=np.complex128)
    coin = init.coin_vector(params)
    root_tau = math.sqrt(params.tau)
    u = coin[2:].sum() / root_tau
    # the same u / sqrt(tau) that WalkerState.amplitudes adds back
    return np.array([coin[0], coin[1], u]), coin[2:] - u / root_tau


def _first_live(rows: np.ndarray, lo: int, hi: int, floats: int, scratch) -> int:
    """The first column in [lo, hi) with a value of at least ``_FLUSH_BELOW`` in magnitude; hi if none.

    ``rows`` is the float64 view of a buffer's three rows, ``floats`` values
    a column.  The scan reads ``_SCAN_COLUMNS`` columns at a time into the
    walk's ``scratch`` arrays and goes on past a block whose every value is
    below the threshold, so a tail of any width is found whole.
    """
    # at most flushes the edge column is live: settle that from its few values
    if lo < hi and any(abs(value) >= _FLUSH_BELOW
                       for row in rows[:, floats * lo:floats * (lo + 1)].tolist() for value in row):
        return lo
    magnitudes, peaks, live = scratch
    while lo < hi:
        n = floats * min(hi - lo, _SCAN_COLUMNS)
        np.abs(rows[:, floats * lo:floats * lo + n], out=magnitudes[:, :n])
        np.max(magnitudes[:, :n], axis=0, out=peaks[:n])
        first = np.greater_equal(peaks[:n], _FLUSH_BELOW, out=live[:n]).argmax()
        if live[first]:
            return lo + first // floats
        lo += n // floats
    return hi


def _evolution_buffers(start: np.ndarray, params: WalkParams, t_max: int):
    """The position-space kernel: one application of U = S (I x G) per step, moving sector only.

    ``start`` is the moving sector at the origin in the public (left, right,
    u) order, float64 or complex128; the views take its dtype.  The walk
    takes turns in two flat buffers of three rows of 2t_max + 1 values,
    allocated as it starts: site n sits in column n + t_max of every row,
    and the rows, in the order (left, u, right), shift by 0, 1 and 2 columns
    a step.  One real product of the permuted ``_moving_coin`` with the
    float64 view of one buffer's columns writes every coined row straight
    into its shifted place in the other, through a view whose rows are
    2t_max + 2 columns apart (a complex column is two float64 values).

    The steps go in blocks of ``_FLUSH_EVERY``, the last one ending at t_max,
    and a block builds its views once: each of its steps multiplies the
    columns that its last step s reads and yields ``(t, view)``, ``view``
    the block's fixed ``(3, 2s+1)`` view of the sites |n| <= s in step t's
    buffer, site 0 in its centre column.  The view is zero-padded: a cell
    outside a step's live hull is an exact zero, which the coin, with a
    positive entry in every row, takes to +0.0, so each live cell is the
    per-step product's bit for bit and each cell with |n| > t is +0.0.
    ``evolve``'s last view is its ``(3, 2t+1)`` window; ``iter_evolution``
    takes the centred slice.  A view is overwritten two steps later, so a
    caller that keeps one copies it.  The loop differences d are the
    caller's: they only change sign.  ``view.base`` is its flat buffer: site
    n of row r at r (2t_max + 1) + n + t_max.

    Past the fronts at +-sqrt(tau/(tau+2)) t the amplitudes decay
    exponentially, down into float64's subnormals, whose arithmetic is slow.
    So on a block's last step, before it is yielded, the columns at the two
    edges whose every value is below ``_FLUSH_BELOW`` (2^-600) are set to 0,
    in that step's buffer and in the other one outside the shrunken range,
    and later blocks multiply only the surviving hull.  The square of a
    flushed value rounds to 0.0 (below 2^-537), and no view cell is
    subnormal (the smallest nonzero cell to t 4000 at tau 1 to 10: 2^-649.6).
    Against the unflushed kernel at every t <= 4000, tau 1, 2, 3 and 10,
    every cell of at least 2^-484 is bit for bit the same and every cell
    within 2^-537 (``TestTailFlush`` in ``tests/test_core.py``).  Past
    about 8000 steps at tau <= 3 such differences reach the bulk: ``simulate
    --tau 1 --steps 20000`` moves by at most 1.7e-16.  ``evolve`` at tau 1,
    t 20000 takes 0.35 s, 2.0 s unflushed (one x86-64 core).  Internal only.
    """
    g = _moving_coin(params)[_LUR][:, _LUR]
    floats = start.itemsize // 8  # float64 values per window column
    width = 2 * t_max + 1
    # two allocations: evolve's final window keeps only one alive
    buffers = [np.zeros(3 * width, dtype=start.dtype) for _ in range(2)]
    windows = [buffer.reshape(3, width) for buffer in buffers]
    rows = [buffer.view(np.float64).reshape(3, floats * width) for buffer in buffers]
    # g is real, so one product coins real and imaginary parts at once; row r
    # of this view starts r columns on in row r of its buffer
    coined = [np.ndarray((3, floats * max(width - 2, 0)), np.float64, buffer,
                         strides=(buffer.itemsize * (width + 1), 8)) for buffer in buffers]
    scratch = (np.empty((3, floats * _SCAN_COLUMNS)), np.empty(floats * _SCAN_COLUMNS),
               np.empty(floats * _SCAN_COLUMNS, dtype=bool))
    windows[0][:, t_max] = start[_LUR]
    lo, hi = t_max, t_max + 1  # the live hull: columns [lo, hi) of the last window
    yield 0, windows[0][:, lo:hi]
    for first in range(1, t_max + 1, _FLUSH_EVERY):
        last = min(first + _FLUSH_EVERY - 1, t_max)
        # each step multiplies what the block's last step reads, its hull [lo, hi) less the edges
        lo, hi = lo - (last - first) - 1, hi + (last - first) + 1
        reads = [row[:, floats * (lo + 1):floats * (hi - 1)] for row in rows]
        writes = [view[:, floats * lo:floats * (hi - 2)] for view in coined]
        views = [window[:, t_max - last:t_max + last + 1] for window in windows]
        for t in range(first, last + 1):
            new = t % 2
            np.matmul(g, reads[1 - new], out=writes[new])
            if not t % _FLUSH_EVERY:  # the block's last step, flushed before it is yielded
                live_lo = _first_live(rows[new], lo, hi, floats, scratch)
                # column c of the reversed rows is column width - 1 - c
                live_hi = width - _first_live(rows[new][:, ::-1], width - hi, width - live_lo,
                                              floats, scratch)
                windows[new][:, lo:live_lo] = 0
                windows[new][:, live_hi:hi] = 0
                # window t-1 holds columns [lo + 1, hi - 1): the next product
                # overwrites what is left of it inside [live_lo + 1, live_hi - 1)
                windows[1 - new][:, lo + 1:live_lo + 1] = 0
                windows[1 - new][:, live_hi - 1:hi - 1] = 0
                lo, hi = live_lo, live_hi
            yield t, views[new]


def _window_state(t: int, window: np.ndarray, diff: np.ndarray, loop_weight=None) -> WalkerState:
    """The WalkerState of a complex kernel window, its rows copied in the public (left, right, u) order."""
    return WalkerState(t, window[_LUR], diff, loop_weight)


def _superpose(init: StandardInit, a: np.ndarray, mirrored: np.ndarray) -> np.ndarray:
    """alpha * a + beta * mirrored as complex rows in the public (left, right, u) order.

    ``a`` and ``mirrored`` are real, with their rows in the kernel's (left, u,
    right) order.  Row by row, so a temporary is one row: ``evolve``'s
    tracemalloc peak at tau 1, t 4000 is 2.17 windows, where the whole-array
    expression reads 2.85.  Each entry is a real times a complex, exact in
    either part, and one add, so origin columns combine bit for bit as whole
    windows do.
    """
    out = np.empty((3, a.shape[1]), dtype=np.complex128)
    for row, r in zip(out, _LUR):
        np.multiply(a[r], init.alpha, out=row)
        row += init.beta * mirrored[r]
    return out


def _mirror_state(init: StandardInit, params: WalkParams, t: int, a: np.ndarray) -> WalkerState:
    """The state alpha * a + beta * mirror(a) of a StandardInit, ``a`` the window of the walk from |left>."""
    return WalkerState(t, _superpose(init, a, a[::-1, ::-1]),
                       np.zeros(params.tau, dtype=np.complex128))


def _recurrence_coefficients(t, kappa):
    """(e_left, e_right, f, e_u, f_u) of the origin recurrences at step t (see ``_origin_recurrence``).

    Plain arithmetic on ``t`` and ``kappa``: float64 arrays give the run's
    coefficients, Fractions give them exactly.
    """
    t1, t2, t3 = t + 1, t + 2, t + 3
    q = (2 * t + 3) / (t1 * t1 * t3)
    g = kappa * t1 * t2
    return q * (g + 1), q * (g - 1), t * t2 * t2 / (t1 * t1 * t3), kappa * (2 * t + 3) / t2, t / t1


def _origin_recurrence(params: WalkParams, t_max: int) -> np.ndarray:
    """The origin column (left, u, right) of the real walk from |left>, t = 0 .. t_max, in O(t).

    The origin amplitudes' generating function is algebraic, so each origin
    component a_t is P-recursive: here of order 3, with every constant
    sequence a solution.  Its first differences d_t = a_{t+1} - a_t thus obey

        d_{t+2} = e(t) d_{t+1} - f(t) d_t,    t >= 0,

    with kappa = (tau - 2) / (tau + 2) = cos(theta) at k = pi and

        left   e = (2t+3) (kappa (t+1)(t+2) + 1) / ((t+1)^2 (t+3)),  f = t (t+2)^2 / ((t+1)^2 (t+3))
        right  e = (2t+3) (kappa (t+1)(t+2) - 1) / ((t+1)^2 (t+3)),  f as for left
        u      e = kappa (2t+3) / (t+2),                               f = t / (t+1)

    (``_recurrence_coefficients``).  They were guessed from the exact walk
    and hold exactly for every t <= 100 at tau 1 to 10^12
    (``tests/test_core.py``).  The seeds are the walk's first two steps in
    closed form.  Run on the differences, the float64 recurrence keeps the
    constant solution exactly, and its characteristic roots at
    t -> infinity, e^{+-i theta(pi)}, lie on the unit circle; run as an
    order-3 recurrence in a_t it drifted 10 to 1000 times further at
    t = 10^6 and tau >= 10.  Each block of steps takes its coefficients
    from numpy and runs the three recurrences in Python floats; no
    tau-vector is built.  Internal only.
    """
    tau = params.tau
    # integer true division rounds correctly, and never overflows at large tau
    kappa = (tau - 2) / (tau + 2)
    edge = 2.0 * math.sqrt(tau) / (tau + 2)
    seeds = ((1.0, 0.0, 4 / (tau + 2) ** 2),
             (0.0, edge, edge * kappa),
             (0.0, 0.0, -2 * tau / (tau + 2) ** 2))
    out = np.empty((3, t_max + 1))
    out[:, :3] = np.array(seeds)[:, :t_max + 1]
    (l0, l1, l), (u0, u1, u), (r0, r1, r) = seeds
    dl0, dl1, du0, du1, dr0, dr1 = l1 - l0, l - l1, u1 - u0, u - u1, r1 - r0, r - r1
    for lo in range(0, t_max - 2, _RECURRENCE_BLOCK):
        t = np.arange(lo, min(lo + _RECURRENCE_BLOCK, t_max - 2), dtype=np.float64)
        ls, us, rs = [], [], []
        for el, er, f, eu, fu in zip(*(x.tolist() for x in _recurrence_coefficients(t, kappa))):
            dl0, dl1 = dl1, el * dl1 - f * dl0
            du0, du1 = du1, eu * du1 - fu * du0
            dr0, dr1 = dr1, er * dr1 - f * dr0
            l += dl1
            u += du1
            r += dr1
            ls.append(l)
            us.append(u)
            rs.append(r)
        steps = slice(lo + 3, lo + 3 + t.size)
        out[0, steps], out[1, steps], out[2, steps] = ls, us, rs
    return out


def evolve(init: InitialCondition, params: WalkParams, t: int) -> WalkerState:
    """State after ``t`` steps, U^t applied to the initial state."""
    t = _check_int("t", t, 0)
    if isinstance(init, StandardInit):
        for _, a in _evolution_buffers(_LEFT, params, t):
            pass
        return _mirror_state(init, params, t, a)
    start, diff = _reduced_start(init, params)
    for _, window in _evolution_buffers(start, params, t):
        pass
    return _window_state(t, window, -diff if t % 2 else diff)


def iter_evolution(init: InitialCondition, params: WalkParams, t_max: int):
    """Yield the WalkerState at every t = 0 .. t_max; each owns its data.

    The walk is the kernel's complex one, in its two reused buffers, which it
    reserves for the whole t_max as it starts; each state copies its window
    before the next step writes over it.
    """
    t_max = _check_int("t_max", t_max, 0)
    start, diff = _reduced_start(init, params)
    signed_diff = (diff, -diff)
    # d only flips sign, so |d|^2 is the same at every step
    loop_weight = np.vdot(diff, diff).real
    for t, window in _evolution_buffers(start, params, t_max):
        s = window.shape[1] // 2  # the block's last step: site n is column n + s
        yield _window_state(t, window[:, s - t:s + t + 1], signed_diff[t % 2], loop_weight)
