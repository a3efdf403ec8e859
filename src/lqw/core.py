"""Exact position-space evolution of lackadaisical quantum walks on the line.

A lackadaisical quantum walk (LQW) attaches ``tau`` self-loops to every
vertex of the integer line, enlarging the coin space to ``delta = tau + 2``
dimensions.  The coin basis order is a wire-format commitment throughout
this package:

    component 0: move left
    component 1: move right
    components 2 .. delta-1: self-loops

One step applies the Grover coin at every site and then shifts the left/right
components one site; loop components stay put.  Evolution is exact: the
support after ``t`` steps is ``[-t, t]``, so there is no truncation error.

The Grover coin treats all loops alike, so the kernel never stores them one
by one.  At each site the loop block is ``u/sqrt(tau) (1, ..., 1) + d`` with
``d`` orthogonal to ``(1, ..., 1)``:

* the moving sector ``(left, right, u)`` is an exact three-state walk with
  coin ``2|p><p| - I``, ``p = (1, 1, sqrt(tau)) / sqrt(delta)``;
* the loop differences ``d`` never move: they live at the origin only (zero
  for ``StandardInit``) and change sign every step.

The coin is real, so each step is one real product on the float64 view of
the complex window, written into one work array per walk, and a step costs
O(t) at any ``tau``.  ``iter_evolution`` gives every state a new window of
its own; ``evolve`` keeps only the last, so it steps in one reused buffer
and allocates nothing per step.  The kernel also hands out each step's coin
product, the step's amplitudes before the shift, which stays valid until
the next step.  Of the experiments, ``localization_series`` builds one
``WalkerState`` per step through ``iter_evolution``; ``variance_series``
and the ``verification_suite`` walk read the reused buffer themselves, and
the verify walk checks each step's norm from the coin product and builds
one state, at its last step.  A ``WalkerState`` holds exactly this data,
``moving`` (left, right, u over the sites) and ``loop_diff`` (d at the
origin).  Its norm check is two dot products, which
leaves one O(tau) term per state: the squared norm of d.  The probability
vector and the full ``(2t+1, delta)`` amplitudes, the one way to read a
site's coin state, are built only when read.

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


@dataclass(frozen=True)
class WalkerState:
    """Wavefunction after ``t`` steps, in the walk's reduced coordinates.

    ``moving`` has shape ``(3, 2t+1)``: its rows are the left, right and
    uniform-loop (u) components at positions n = -t .. t.  ``loop_diff``
    (shape ``(tau,)``) holds the loop differences d at the origin, orthogonal
    to the uniform loop mode.  Both are stored as read-only views.

    The norm is checked on construction from the squared norms of ``moving``
    and ``loop_diff``.  ``probabilities()`` builds its vector on first call
    and returns the same read-only array after that.  ``amplitudes``, the
    full ``(2t+1, delta)`` array with row ``n + t`` the coin state at
    position n, |n| <= t, is built on first read; ``probabilities()`` never needs it.
    """

    t: int
    moving: np.ndarray = field(repr=False)
    loop_diff: np.ndarray = field(repr=False)

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
        _check_norm(np.vdot(moving, moving).real + np.vdot(loop_diff, loop_diff).real)
        object.__setattr__(self, "moving", moving)
        object.__setattr__(self, "loop_diff", loop_diff)

    @cached_property
    def _probs(self) -> np.ndarray:
        squares = np.abs(self.moving) ** 2
        probs = squares[0] + squares[1]
        probs += squares[2]  # np.sum's order over the rows, in two adds
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
    coin = init.coin_vector(params)
    root_tau = math.sqrt(params.tau)
    u = coin[2:].sum() / root_tau
    # the same u / sqrt(tau) that WalkerState.amplitudes adds back
    return np.array([coin[0], coin[1], u]), coin[2:] - u / root_tau


def _evolution_buffers(init: InitialCondition, params: WalkParams, t_max: int, *, reuse=False):
    """The position-space kernel: one application of U = S (I x G) per step.

    Evolves the moving sector (left, right, u) under ``_moving_coin``; the
    loop differences d at the origin only change sign.  Yields
    ``(t, window, d_t, coined)`` for t = 0 .. t_max, where ``window`` is the
    ``(3, 2t+1)`` state: one row per component, so each shift is a
    contiguous copy.  ``coined`` holds step t's amplitudes before the shift,
    the values the shift copies into ``window``, so its norm is the state's:
    at t = 0 the start column, at t = 1 the one-column coin product, and
    after that a contiguous ``(3, 2t-1)`` view of the one work array of
    6(2t_max + 1) floats that every coin product is written into.  It is
    valid until the next step.  Each window is a new array that the kernel never writes
    again, unless ``reuse``: then step t is written into the first 2t+1
    columns of one zeroed (3, 2t_max + 1) buffer, so a window is overwritten
    at the next step and the walk allocates nothing per step.  The coin
    product has left the buffer before the shift writes it, and the cells
    the shift leaves unwritten at step t ([0, 2t-1:], [1, :2], [2, 0],
    [2, 2t]) were never written at an earlier step, so they stay zero.
    Internal only, never exposed.
    """
    start, diff = _reduced_start(init, params)
    signed_diff = (diff, -diff)

    g = _moving_coin(params)
    width = 2 * t_max + 1
    work = np.empty(6 * width)
    if reuse:
        buffer = np.zeros((3, width), dtype=np.complex128)
    window = start[:, None]
    # The one-column first step stays a complex matrix-vector product, whose
    # rounding the dense reference walk shares.
    first = g @ window
    yield 0, window, signed_diff[0], window
    for t in range(1, t_max + 1):
        # g is real: one real product on the float64 view coins the real and
        # imaginary parts with the complex product's bits.
        coined = first if t == 1 else np.matmul(
            g, window.view(np.float64), out=work[:6 * (2 * t - 1)].reshape(3, -1)
        ).view(np.complex128)
        if reuse:
            window = buffer[:, :2 * t + 1]
        else:
            window = np.zeros((3, 2 * t + 1), dtype=np.complex128)
        window[0, :-2] = coined[0]
        window[1, 2:] = coined[1]
        window[2, 1:-1] = coined[2]
        yield t, window, signed_diff[t % 2], coined


def evolve(init: InitialCondition, params: WalkParams, t: int) -> WalkerState:
    """State after ``t`` steps, U^t applied to the initial state."""
    t = _check_int("t", t, 0)
    for _, window, diff, _ in _evolution_buffers(init, params, t, reuse=True):
        pass
    return WalkerState(t, window, diff)


def iter_evolution(init: InitialCondition, params: WalkParams, t_max: int):
    """Yield the WalkerState at every t = 0 .. t_max; each owns its data."""
    t_max = _check_int("t_max", t_max, 0)
    for t, window, diff, _ in _evolution_buffers(init, params, t_max):
        yield WalkerState(t, window, diff)
