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

A step therefore costs O(t) at any ``tau``.  A ``WalkerState`` from the
kernel builds its full ``(2t+1, delta)`` amplitudes only when they are read.

All operations are pure; returned states carry read-only arrays.  The
snapshots ``iter_evolution`` yields are read-only views of the kernel's
buffers, valid only until the next step; ``state.copy()`` keeps one.
"""

from __future__ import annotations

import math
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
    """Wavefunction after ``t`` steps.

    ``amplitudes`` has shape ``(2t+1, delta)``; row ``i`` is the coin state at
    position ``n = i - origin_offset`` with ``origin_offset = t``.

    ``WalkerState(t, amplitudes)`` keeps the full array it is given.  A state
    from the kernel keeps only the moving sector and the origin's loop
    differences, and builds ``amplitudes`` the first time it is read; its
    norm check, ``probabilities()`` and ``amplitude(n)`` never need the
    full array.
    """

    t: int
    amplitudes: np.ndarray = field(repr=False)
    # kernel states: rows left, right and u over the sites, and d at n = 0
    _moving: np.ndarray | None = field(default=None, init=False, repr=False)
    _loop_diff: np.ndarray | None = field(default=None, init=False, repr=False)
    _probs: np.ndarray | None = field(default=None, init=False, repr=False)

    @classmethod
    def _from_sectors(cls, t: int, moving: np.ndarray, loop_diff: np.ndarray) -> "WalkerState":
        """A kernel state; ``moving`` is not copied."""
        state = cls.__new__(cls)
        object.__setattr__(state, "t", t)
        object.__setattr__(state, "_moving", moving)
        object.__setattr__(state, "_loop_diff", loop_diff)
        state.__post_init__()
        return state

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("t must be >= 0")
        if self._moving is None:
            amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
            if amps.ndim != 2 or amps.shape[0] != 2 * self.t + 1:
                raise ValueError(
                    f"amplitudes must have shape (2t+1, delta); got {amps.shape} at t={self.t}"
                )
            amps.setflags(write=False)
            object.__setattr__(self, "amplitudes", amps)
            probs = np.sum(np.abs(amps) ** 2, axis=1)
        else:
            probs = np.sum(np.abs(self._moving) ** 2, axis=0)
            # d is orthogonal to the uniform loop mode, so its weight just adds
            probs[self.t] += np.sum(np.abs(self._loop_diff) ** 2)
        total = float(np.sum(probs))
        if not abs(total - 1.0) <= _NORM_TOL:  # also rejects NaN
            raise NormalizationError(f"state norm^2 = {total!r} deviates from 1 beyond {_NORM_TOL}")
        probs.setflags(write=False)
        object.__setattr__(self, "_probs", probs)

    def __getattr__(self, name):
        # called only for names not found normally: a kernel state has no
        # ``amplitudes`` until this first read builds and stores them
        if name != "amplitudes" or self._moving is None:
            raise AttributeError(name)
        amps = self._expand(0, 2 * self.t + 1)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        return amps

    def _expand(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo .. hi-1 of the full amplitudes, built from the reduced data."""
        tau = self._loop_diff.shape[0]
        moving = self._moving[:, lo:hi]
        rows = np.empty((hi - lo, tau + 2), dtype=np.complex128)
        rows[:, :2] = moving[:2].T
        rows[:, 2:] = (moving[2] / math.sqrt(tau))[:, None]
        if lo <= self.t < hi:
            rows[self.t - lo, 2:] += self._loop_diff
        return rows

    @property
    def origin_offset(self) -> int:
        """Row index of position n = 0."""
        return self.t

    @property
    def delta(self) -> int:
        if self._moving is not None:
            return self._loop_diff.shape[0] + 2
        return self.amplitudes.shape[1]

    @property
    def positions(self) -> np.ndarray:
        """Positions n = -t .. t matching the amplitude rows."""
        return np.arange(-self.t, self.t + 1)

    def amplitude(self, n: int) -> np.ndarray:
        """Coin state at position n (zero vector outside the light cone)."""
        if abs(n) > self.t:
            return np.zeros(self.delta, dtype=np.complex128)
        i = n + self.origin_offset
        if self._moving is not None:
            return self._expand(i, i + 1)[0]
        return self.amplitudes[i]

    def probabilities(self) -> np.ndarray:
        """P(X_t = n) for n = -t .. t as a read-only array aligned with ``positions``."""
        return self._probs

    def copy(self) -> "WalkerState":
        """A state that owns its data, to keep an ``iter_evolution`` snapshot."""
        if self._moving is not None:
            return WalkerState._from_sectors(self.t, self._moving.copy(), self._loop_diff)
        return WalkerState(self.t, self.amplitudes.copy())


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


def _evolution_buffers(init: InitialCondition, params: WalkParams, t_max: int):
    """The position-space kernel: one application of U = S (I x G) per step.

    Evolves the moving sector (left, right, u) under ``_moving_coin``,
    double-buffered and in place; the loop differences d at the origin only
    change sign.  Yields ``(t, window, d_t)`` for t = 0 .. t_max, where
    ``window`` is the ``(3, 2t+1)`` view of the live buffer: one row per
    component, so each shift is a contiguous copy.  Internal only, never
    exposed.
    """
    coin = init.coin_vector(params)
    root_tau = math.sqrt(params.tau)
    u = coin[2:].sum() / root_tau
    # the same u / sqrt(tau) that WalkerState._expand adds back
    diff = coin[2:] - u / root_tau
    signed_diff = (diff, -diff)

    g = _moving_coin(params)
    cur = np.zeros((3, 2 * t_max + 1), dtype=np.complex128)
    nxt = np.zeros_like(cur)
    c = t_max  # column index of the origin
    cur[:, c] = coin[0], coin[1], u
    yield 0, cur[:, c:c + 1], signed_diff[0]
    for t in range(t_max):
        lo, hi = c - t, c + t + 1
        coined = g @ cur[:, lo:hi]
        nxt[:, lo - 1 : hi + 1] = 0.0
        nxt[0, lo - 1 : hi - 1] = coined[0]
        nxt[1, lo + 1 : hi + 1] = coined[1]
        nxt[2, lo:hi] = coined[2]
        cur, nxt = nxt, cur
        yield t + 1, cur[:, lo - 1 : hi + 1], signed_diff[(t + 1) % 2]


def evolve(init: InitialCondition, params: WalkParams, t: int) -> WalkerState:
    """State after ``t`` steps, U^t applied to the initial state."""
    if t < 0:
        raise ValueError("t must be >= 0")
    for _, window, diff in _evolution_buffers(init, params, t):
        pass
    return WalkerState._from_sectors(t, window.copy(), diff)


def iter_evolution(init: InitialCondition, params: WalkParams, t_max: int):
    """Yield the WalkerState at every t = 0 .. t_max.

    Each snapshot is a read-only view of the kernel's buffers, valid only
    until the next step; ``state.copy()`` keeps one longer.
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    for t, window, diff in _evolution_buffers(init, params, t_max):
        yield WalkerState._from_sectors(t, window, diff)
