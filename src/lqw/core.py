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
support after ``t`` steps is ``[-t, t]``, stored densely, so there is no
truncation error.

All operations are pure; returned states carry read-only arrays.  The
snapshots ``iter_evolution`` yields are read-only views of the kernel's
buffers, valid only until the next step; copy one to keep it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class WalkerState:
    """Full wavefunction after ``t`` steps.

    ``amplitudes`` has shape ``(2t+1, delta)``; row ``i`` is the coin state at
    position ``n = i - origin_offset`` with ``origin_offset = t``.
    """

    t: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if self.t < 0:
            raise ValueError("t must be >= 0")
        if amps.ndim != 2 or amps.shape[0] != 2 * self.t + 1:
            raise ValueError(
                f"amplitudes must have shape (2t+1, delta); got {amps.shape} at t={self.t}"
            )
        total = float(np.sum(np.abs(amps) ** 2))
        if not abs(total - 1.0) <= _NORM_TOL:  # also rejects NaN
            raise NormalizationError(f"state norm^2 = {total!r} deviates from 1 beyond {_NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def origin_offset(self) -> int:
        """Row index of position n = 0."""
        return self.t

    @property
    def delta(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def positions(self) -> np.ndarray:
        """Positions n = -t .. t matching the amplitude rows."""
        return np.arange(-self.t, self.t + 1)

    def amplitude(self, n: int) -> np.ndarray:
        """Coin state at position n (zero vector outside the light cone)."""
        if abs(n) > self.t:
            return np.zeros(self.delta, dtype=np.complex128)
        return self.amplitudes[n + self.origin_offset]

    def probabilities(self) -> np.ndarray:
        """P(X_t = n) for n = -t .. t as an array aligned with ``positions``."""
        return np.sum(np.abs(self.amplitudes) ** 2, axis=1)


def grover_coin(params: WalkParams) -> np.ndarray:
    """Grover coin 2|psi><psi| - I on the delta-dimensional coin space.

    Entries: -tau/delta on the diagonal, 2/delta off the diagonal.  The matrix
    is real-symmetric, unitary and an involution (G @ G = I).
    """
    d = params.delta
    g = np.full((d, d), 2.0 / d)
    np.fill_diagonal(g, -params.tau / d)
    return g


def _evolution_buffers(init: InitialCondition, params: WalkParams, t_max: int):
    """The position-space kernel: one application of U = S (I x G) per step.

    Double-buffered and in place; yields ``(t, window)`` for t = 0 .. t_max,
    where ``window`` is the ``(2t+1, delta)`` view of the live buffer.
    Internal only, never exposed.
    """
    d = params.delta
    g_t = grover_coin(params).T
    cur = np.zeros((2 * t_max + 1, d), dtype=np.complex128)
    nxt = np.zeros_like(cur)
    cur[t_max] = init.coin_vector(params)
    c = t_max  # row index of the origin
    yield 0, cur[c:c + 1]
    for t in range(t_max):
        lo, hi = c - t, c + t + 1
        coined = cur[lo:hi] @ g_t
        nxt[lo - 1 : hi + 1] = 0.0
        nxt[lo - 1 : hi - 1, 0] = coined[:, 0]
        nxt[lo + 1 : hi + 1, 1] = coined[:, 1]
        nxt[lo:hi, 2:] = coined[:, 2:]
        cur, nxt = nxt, cur
        yield t + 1, cur[lo - 1 : hi + 1]


def evolve(init: InitialCondition, params: WalkParams, t: int) -> WalkerState:
    """State after ``t`` steps, U^t applied to the initial state."""
    if t < 0:
        raise ValueError("t must be >= 0")
    for _, window in _evolution_buffers(init, params, t):
        pass
    return WalkerState(t=t, amplitudes=window.copy())


def iter_evolution(init: InitialCondition, params: WalkParams, t_max: int):
    """Yield the WalkerState at every t = 0 .. t_max.

    Each snapshot is a read-only view of the kernel's buffers, valid only
    until the next step; copy its amplitudes to keep it longer.
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    for t, window in _evolution_buffers(init, params, t_max):
        yield WalkerState(t=t, amplitudes=window)

