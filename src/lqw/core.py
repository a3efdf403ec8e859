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

A step therefore costs O(t) at any ``tau``.  A ``WalkerState`` holds exactly
this data, ``moving`` (left, right, u over the sites) and ``loop_diff`` (d at
the origin), and builds the full ``(2t+1, delta)`` amplitudes only when they
are read.

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


@dataclass(frozen=True)
class WalkParams:
    """Laziness factor of the walk.  ``tau`` self-loops per vertex, tau >= 1."""

    tau: int

    def __post_init__(self):
        _check_tau(self.tau)

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
        n = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(n - 1.0) <= 1e-12:  # also rejects NaN
            raise NormalizationError(
                f"|alpha|^2 + |beta|^2 = {n!r}, expected 1 within 1e-12"
            )

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
        amps = tuple(complex(a) for a in self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        n = sum(abs(a) ** 2 for a in amps)
        if not abs(n - 1.0) <= 1e-12:  # also rejects NaN
            raise NormalizationError(f"coin vector norm^2 = {n!r}, expected 1 within 1e-12")

    def coin_vector(self, params: WalkParams) -> np.ndarray:
        if len(self.amplitudes) != params.delta:
            raise ValueError(
                f"coin vector has {len(self.amplitudes)} components, "
                f"delta = {params.delta} required for tau = {params.tau}"
            )
        return np.asarray(self.amplitudes, dtype=np.complex128)


InitialCondition = StandardInit | GeneralInit


def _check_norm(probs: np.ndarray) -> None:
    """Raise NormalizationError unless ``probs`` sums to 1 within ``_NORM_TOL``."""
    total = float(np.sum(probs))
    if not abs(total - 1.0) <= _NORM_TOL:  # also rejects NaN
        raise NormalizationError(f"state norm^2 = {total!r} deviates from 1 beyond {_NORM_TOL}")


@dataclass(frozen=True)
class WalkerState:
    """Wavefunction after ``t`` steps, in the walk's reduced coordinates.

    ``moving`` has shape ``(3, 2t+1)``: its rows are the left, right and
    uniform-loop (u) components at positions n = -t .. t.  ``loop_diff``
    (shape ``(tau,)``) holds the loop differences d at the origin, orthogonal
    to the uniform loop mode.  Both are stored as read-only views.

    ``amplitudes``, the full ``(2t+1, delta)`` array with row ``n + t`` the
    coin state at position n, is built on first read; the norm check,
    ``probabilities()`` and ``amplitude(n)`` never need it.
    """

    t: int
    moving: np.ndarray = field(repr=False)
    loop_diff: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not isinstance(self.t, (int, np.integer)) or isinstance(self.t, bool):
            raise TypeError(f"t must be an integer, got {type(self.t).__name__}")
        if self.t < 0:
            raise ValueError("t must be >= 0")
        moving = np.asarray(self.moving, dtype=np.complex128).view()
        loop_diff = np.asarray(self.loop_diff, dtype=np.complex128).view()
        if moving.shape != (3, 2 * self.t + 1):
            raise ValueError(f"moving must have shape (3, 2t+1); got {moving.shape} at t={self.t}")
        if loop_diff.ndim != 1 or loop_diff.size < 1:
            raise ValueError(f"loop_diff must have shape (tau,), tau >= 1; got {loop_diff.shape}")
        # read-only views: the arrays a caller passed in stay writable
        moving.setflags(write=False)
        loop_diff.setflags(write=False)
        probs = np.sum(np.abs(moving) ** 2, axis=0)
        # d is orthogonal to the uniform loop mode, so its weight just adds
        probs[self.t] += np.sum(np.abs(loop_diff) ** 2)
        _check_norm(probs)
        probs.setflags(write=False)
        object.__setattr__(self, "moving", moving)
        object.__setattr__(self, "loop_diff", loop_diff)
        object.__setattr__(self, "_probs", probs)

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """The full ``(2t+1, delta)`` amplitudes, read-only."""
        amps = self._expand(0, 2 * self.t + 1)
        amps.setflags(write=False)
        return amps

    def _expand(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo .. hi-1 of the full amplitudes, built from the reduced data."""
        tau = self.loop_diff.shape[0]
        moving = self.moving[:, lo:hi]
        rows = np.empty((hi - lo, tau + 2), dtype=np.complex128)
        rows[:, :2] = moving[:2].T
        rows[:, 2:] = (moving[2] / math.sqrt(tau))[:, None]
        if lo <= self.t < hi:
            rows[self.t - lo, 2:] += self.loop_diff
        return rows

    @property
    def positions(self) -> np.ndarray:
        """Positions n = -t .. t matching the amplitude rows."""
        return np.arange(-self.t, self.t + 1)

    def amplitude(self, n: int) -> np.ndarray:
        """Coin state at position n (zero vector outside the light cone)."""
        if abs(n) > self.t:
            return np.zeros(self.loop_diff.shape[0] + 2, dtype=np.complex128)
        return self._expand(n + self.t, n + self.t + 1)[0]

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
    # the same u / sqrt(tau) that WalkerState._expand adds back
    return np.array([coin[0], coin[1], u]), coin[2:] - u / root_tau


def _evolution_buffers(init: InitialCondition, params: WalkParams, t_max: int):
    """The position-space kernel: one application of U = S (I x G) per step.

    Evolves the moving sector (left, right, u) under ``_moving_coin``; the
    loop differences d at the origin only change sign.  Yields
    ``(t, window, d_t)`` for t = 0 .. t_max, where ``window`` is a new
    ``(3, 2t+1)`` array that the kernel never writes again: one row per
    component, so each shift is a contiguous copy.  Internal only, never
    exposed.
    """
    start, diff = _reduced_start(init, params)
    signed_diff = (diff, -diff)

    g = _moving_coin(params)
    window = start[:, None]
    yield 0, window, signed_diff[0]
    for t in range(1, t_max + 1):
        coined = g @ window
        window = np.zeros((3, 2 * t + 1), dtype=np.complex128)
        window[0, :-2] = coined[0]
        window[1, 2:] = coined[1]
        window[2, 1:-1] = coined[2]
        yield t, window, signed_diff[t % 2]


def evolve(init: InitialCondition, params: WalkParams, t: int) -> WalkerState:
    """State after ``t`` steps, U^t applied to the initial state."""
    if t < 0:
        raise ValueError("t must be >= 0")
    for _, window, diff in _evolution_buffers(init, params, t):
        pass
    return WalkerState(t, window, diff)


def iter_evolution(init: InitialCondition, params: WalkParams, t_max: int):
    """Yield the WalkerState at every t = 0 .. t_max; each owns its data."""
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    for t, window, diff in _evolution_buffers(init, params, t_max):
        yield WalkerState(t, window, diff)
