"""Momentum-space representation of the walk and the Fourier propagation oracle.

Fourier-transforming the position index turns one walk step into
multiplication by the delta x delta unitary

    U_k = diag(e^{ik}, e^{-ik}, 1, ..., 1) @ G,

i.e. the Grover coin with its first row scaled by kappa = e^{ik} and its
second row by 1/kappa.  Its spectrum is known in closed form: phases
(theta, -theta, 0) each simple and pi with multiplicity tau - 1, where

    cos(theta) = -(tau cos k + 2) / (tau + 2),
    sin(theta) = sqrt(tau (1 - cos k) (tau + 4 + tau cos k)) / (tau + 2),

with the branch theta in [0, pi].  ``eigen_system`` returns the closed-form
eigenvectors; its pi-sector is a closed-form basis of loop differences, the
same at every k.  The other three put the same amplitude on every loop; the
omega = 0 one comes from ``_zero_phase_vector`` as (left, right, one loop)
components over an array of k.  ``propagate_fourier`` avoids the eigenvectors
and powers the full delta x delta U_k directly on a momentum grid of M
points, and returns the full ``(2t+1, delta)`` amplitude array: an
independent oracle for the three-component kernel in :mod:`lqw.core`, whose
states it never builds.  ``momentum_grid_solution`` has two routes, and a
cost model fitted to timings of both picks one per call.  Stepping applies
the dense G, which every k shares, to the (delta, M) block of states with
one real matrix product per step and then scales rows 0 and 1 by e^{+-ik}:
O(t M delta^2) time, 2 M delta 16 bytes.  Repeated squaring of the stacked
U_k, in k-blocks of at most ~1 MiB, takes O(M delta^3 log t) time and wins
for small delta and long walks.  The private ``_light_cone_tail`` reads the
same transform just outside the light cone.  Only this module knows the
oracle's grid and its aliasing.

The private ``_closed_form_state`` builds the final ``WalkerState`` from the
spectrum instead, in O(t log t).  On (left, right, u) U_k is 3 x 3 with
phases (theta, -theta, 0); on the plane orthogonal to the omega = 0
eigenvector v0 Cayley-Hamilton gives U^t = s_t U - s_{t-1} I, with
s_t = sin(t theta) / sin(theta), so

    Psi~(t, k) = P0 psi0 + s_t (U_k psi0 - P0 psi0) - s_{t-1} (psi0 - P0 psi0),

P0 = v0 v0^dagger, and one inverse FFT per row returns the positions.  Its
grid has its own size rule, the least 5-smooth M >= 2t + 1, which the FFT
factors fully where 2t + 1 itself is often prime; the oracle's power-of-two
grid would cost more memory.  It needs neither the theta-eigenvectors nor
their 1/(1 + e^{i omega}) denominators.  The kernel judges it
(``harness.empirical_vs_weak_limit``).  ``_closed_form_origin`` reads the
origin alone from the same Psi~ rows, as their mean over t + 1 momenta, in
O(t) with no FFT; it judges the origin recurrences of ``lqw.core``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    InitialCondition,
    WalkerState,
    WalkParams,
    _check_int,
    _check_norm,
    _moving_coin,
    _reduced_start,
    grover_coin,
)
from .errors import DegenerateMomentumError

__all__ = [
    "EigenSystem",
    "momentum_operator",
    "eigen_system",
    "momentum_grid_solution",
    "propagate_fourier",
]


@dataclass(frozen=True)
class EigenSystem:
    """Closed-form eigen-decomposition of U_k at one momentum.

    ``omegas[j]`` is the phase of eigenvalue j in the fixed order
    (theta, -theta, 0, pi, ..., pi); ``eigenvectors[:, j]`` is the matching
    unit eigenvector.
    """

    k: float
    theta: float
    omegas: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)


def momentum_operator(params: WalkParams, k: float | np.ndarray) -> np.ndarray:
    """The step operator U_k = diag(e^{ik}, e^{-ik}, 1, ..., 1) @ G (unitary).

    delta x delta for a scalar k; stacked, shape S + (delta, delta), for k of shape S.
    """
    k = np.asarray(k, dtype=np.float64)
    g = grover_coin(params)
    u = np.broadcast_to(g, k.shape + g.shape).astype(np.complex128)
    u[..., 0, :] *= np.exp(1j * k)[..., None]
    u[..., 1, :] *= np.exp(-1j * k)[..., None]
    return u


def _pi_minus_theta(tau: int, k: float | np.ndarray) -> np.ndarray:
    """phi = pi - theta, accurate to full relative precision even as k -> 0.

    theta itself rounds to pi near k = 0; phi ~ sqrt(tau/(tau+2)) |k| is the
    quantity every eigenvector denominator actually depends on.  k may be a
    scalar or an array.
    """
    # 1 - cos k as 2 sin^2(k/2): no cancellation for small k
    one_minus_c = 2.0 * np.sin(0.5 * np.asarray(k, dtype=np.float64)) ** 2
    cos_k = 1.0 - one_minus_c
    cos_phi = (tau * cos_k + 2.0) / (tau + 2.0)
    sin_phi = np.sqrt(np.maximum(tau * one_minus_c * (tau + 4.0 + tau * cos_k), 0.0)) / (tau + 2.0)
    return np.arctan2(sin_phi, cos_phi)


def _inv_one_plus_exp(x: float) -> complex:
    """1 / (1 + e^{i (pi - x)}) = e^{ix/2} / (2i sin(x/2)), exact identity."""
    return np.exp(0.5j * x) / (2j * math.sin(0.5 * x))


def _zero_phase_vector(tau: int, k: float | np.ndarray) -> tuple[np.ndarray, ...]:
    """(left, right, one loop) components of the unit omega = 0 eigenvector of U_k.

    [kappa_1, kappa_2, 1, ..., 1] equals [e^{ik/2}, e^{-ik/2}, cos(k/2), ...] / cos(k/2);
    the half-angle form has no cancellation and reaches the k = pi limit
    [i, -i, 0, ...] continuously.  k may be a scalar or an array.
    """
    half = 0.5 * np.asarray(k, dtype=np.float64)
    cos_half = np.cos(half)
    norm = np.sqrt(2.0 + tau * cos_half**2)
    return np.exp(1j * half) / norm, np.exp(-1j * half) / norm, cos_half / norm


def eigen_system(params: WalkParams, k: float) -> EigenSystem:
    """Closed-form eigenphases and eigenvectors of U_k.

    The pi-sector columns 3 .. delta-1 are a Helmert basis of loop differences,
    the same at every k.  Raises DegenerateMomentumError at k = 0, where theta
    collides with the pi-sector and the denominators 1 + e^{i omega} vanish.

    At k = pi the raw omega = 0 eigenvector degenerates (its components
    diverge while the normalization tends to zero); the half-angle rescaling
    used here hits the normalized limit [i, -i, 0, ..., 0]/sqrt(2) instead.
    """
    tau, d = params.tau, params.delta
    if not (-math.pi < k <= math.pi):
        raise ValueError(f"k must lie in (-pi, pi], got {k}")
    if abs(k) < 1e-12:  # component denominators 1 + e^{i omega} vanish as theta -> pi
        raise DegenerateMomentumError(
            "k = 0 is degenerate: theta -> pi merges with the pi-sector"
        )

    phi = float(_pi_minus_theta(tau, k))
    theta = math.pi - phi
    omegas = np.concatenate([[theta, -theta, 0.0], np.full(tau - 1, math.pi)])
    vecs = np.zeros((d, d), dtype=np.complex128)

    # j = 1: components 1/(1 + e^{i(theta -+ k)}) and 1/(1 + e^{i theta}),
    # written via theta = pi - phi so the vanishing denominators near k = 0
    # are sines of small, relatively-accurate arguments
    u = np.empty(d, dtype=np.complex128)
    u[0] = _inv_one_plus_exp(phi + k)
    u[1] = _inv_one_plus_exp(phi - k)
    u[2:] = _inv_one_plus_exp(phi)
    nsq = float(np.sum(np.abs(u) ** 2))
    vecs[:, 0] = u / math.sqrt(nsq)

    # j = 2 (omega = -theta): the conjugate with left/right components swapped
    u = np.concatenate((u[[1, 0]], u[2:])).conj()
    vecs[:, 1] = u / math.sqrt(nsq)

    # j = 3 (omega = 0): the same amplitude on every loop
    vecs[0, 2], vecs[1, 2], vecs[2:, 2] = _zero_phase_vector(tau, k)

    # pi-sector: column 2 + n is (n e_{2+n} - e_2 - ... - e_{1+n}) / sqrt(n (n+1)),
    # which is Gram-Schmidt of the loop differences e_{2+n} - e_2 in closed form
    n = np.arange(1, tau)
    rows = np.arange(tau)[:, None]
    vecs[2:, 3:] = (np.where(rows == n, n, 0.0) - (rows < n)) / np.sqrt(n * (n + 1.0))

    return EigenSystem(k=k, theta=theta, omegas=omegas, eigenvectors=vecs)


def _closed_form_state(init: InitialCondition, params: WalkParams, t: int) -> WalkerState:
    """The state after t steps from the spectrum of U_k, without walking the kernel.

    On (left, right, u) U_k = D_k C, with D_k = diag(e^{ik}, e^{-ik}, 1) and C
    the kernel's coin, and (module docstring)

        Psi~(t, k) = P0 psi0 + s_t (D_k C psi0 - P0 psi0) - s_{t-1} (psi0 - P0 psi0),

    s_t = (-1)^(t+1) sin(t phi) / sin(phi) with phi = pi - theta.  The grid
    k_j = 2 pi (j + 1/2) / M never hits k = 0, the only point where
    sin(phi) = 0.  M is the least 5-smooth number >= 2t + 1
    (``_five_smooth_at_least``), a length the FFT factors without Bluestein's
    algorithm; any M >= 2t + 1 transforms the 2t + 1 sites back exactly, into
    the first 2t + 1 rows of the inverse transform, and the rows past them,
    sites beyond +-t, are zero up to roundoff.  The loop differences are
    (-1)^t d, as in the kernel.  O(t log t) time; about 136 bytes per grid
    point at the peak, and the state keeps 48.
    """
    t = _check_int("t", t, 0)
    start, diff = _reduced_start(init, params)
    n = 2 * t + 1
    m = _five_smooth_at_least(n)
    out = _momentum_state(start, params, t, m)
    # row p of the inverse transform holds n = p - t once the rows carry
    # e^{-i k t} (k t reduced mod 2 pi in integers) and the output e^{i pi p / M}
    out *= np.exp((-1j * np.pi / m) * ((2 * np.arange(m) + 1) * t % (2 * m)))
    # one row at a time, its 2t + 1 sites packed in front of the buffer: each
    # row is transformed before any write reaches it, and the state is one
    # contiguous block, which its norm check reads without a copy
    flat = out.reshape(-1)
    for r in range(3):
        flat[r * n:(r + 1) * n] = np.fft.ifft(flat[r * m:(r + 1) * m])[:n]
    sites = flat[:3 * n].reshape(3, n)
    sites *= np.exp((1j * np.pi / m) * np.arange(n))
    return WalkerState(t, sites, diff if t % 2 == 0 else -diff)


def _closed_form_origin(start: np.ndarray, params: WalkParams, t: int) -> np.ndarray:
    """The origin amplitudes (left, right, u) after t steps from the moving-sector start, with no FFT.

    psi(t, 0) is the mean of Psi~(t, k) over the M = t + 1 momenta of
    ``_momentum_state``'s grid: that mean adds up the sites n = 0 mod M, and
    the origin is the only one within the support |n| <= t.  O(t) time and
    memory, at any tau.  It judges ``lqw.core._origin_recurrence``
    (``harness.localization_series``).
    """
    return _momentum_state(start, params, t, t + 1).mean(axis=1)


def _momentum_state(start: np.ndarray, params: WalkParams, t: int, m: int) -> np.ndarray:
    """Psi~(t, k_j) as a (3, m) array, rows (left, right, u), on k_j = 2 pi (j + 1/2) / m.

    ``start`` is the moving sector at the origin, (left, right, u); the
    formula is ``_closed_form_state``'s.
    """
    ks = (2.0 * np.pi / m) * (np.arange(m) + 0.5)
    phi = _pi_minus_theta(params.tau, ks)
    sin_phi = np.sin(phi)
    sign = 1.0 if t % 2 else -1.0  # (-1)^(t+1)
    s_t = sign * np.sin(t * phi) / sin_phi
    s_prev = -sign * np.sin((t - 1) * phi) / sin_phi
    del phi, sin_phi
    left, right, loop = _zero_phase_vector(params.tau, ks)
    loop *= math.sqrt(params.tau)  # v0 on (left, right, u)
    overlap = left.conj() * start[0] + right.conj() * start[1] + loop * start[2]
    # in place, row by row, so one row-sized buffer is all that adds to the output
    out = np.empty((3, m), dtype=np.complex128)
    coined = _moving_coin(params) @ start
    np.cos(ks, out=out[0].real)  # e^{ik}, with no complex temporary
    np.sin(ks, out=out[0].imag)
    del ks
    np.multiply(out[0].conj(), coined[1], out=out[1])
    out[0] *= coined[0]
    out[2] = coined[2]  # out = D_k C psi0
    proj = np.empty(m, dtype=np.complex128)
    for row, v, s in zip(out, (left, right, loop), start):
        # row <- proj + s_t (row - proj) + s_{t-1} (proj - psi0), proj = (P0 psi0) on this row
        np.multiply(v, overlap, out=proj)
        row -= proj
        row *= s_t
        row += proj
        proj -= s
        proj *= s_prev
        row += proj
    return out


def _five_smooth_at_least(n: int) -> int:
    """The least 2^a 3^b 5^c >= n (1 for n <= 1): a length pocketfft factors without Bluestein."""
    best = 1 << max(n - 1, 0).bit_length()  # the least power of two >= n
    five = 1
    while five < best:
        odd = five
        while odd < best:  # odd = 3^b 5^c, times the least power of two that reaches n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


def _default_grid_size(t: int) -> int:
    """The oracle's one grid rule: the smallest power of two >= 2t + 10.

    That holds the walk's 2t + 1 sites and the 4 empty sites beyond each edge
    of the light cone without aliasing, so one grid serves both
    ``propagate_fourier`` and ``_light_cone_tail``.
    """
    return 1 << (2 * t + 9).bit_length()


def _squarings(t: int, delta: int) -> int:
    """How often the squaring route squares U_k: while the exponent left is > 1 and >= delta / 4."""
    s = 0
    while t >> s > 1 and 4 * (t >> s) >= delta:
        s += 1
    return s


def _stepping_is_cheaper(t: int, delta: int, m: int) -> bool:
    """Whether t shared-coin steps of the M-point grid are predicted to beat repeated squaring.

    Seconds, fitted to single-thread timings of both routes for delta 3 to 202,
    t 8 to 1500 and the default grids (M = 32 to 4096):

        stepping  t (4.8e-6 + M delta (7.2e-10 + 9.8e-11 delta))
        squaring  (s + p) 1.4e-5 + M (s (2.8e-7 + 2.6e-10 delta^3) + p (2.8e-7 + 2.8e-9 delta^2))

    with s squarings and p matrix-vector products.  In those timings the routes
    crossed at t / (delta log2 t) of about 15 at delta = 3, 5 at 12, 3 at 22
    and 2 at 52; the bits of t move the crossing (a power of two squares
    cheaply).
    """
    s = _squarings(t, delta)
    p = (t & ((1 << s) - 1)).bit_count() + (t >> s)
    stepping = t * (4.8e-6 + m * delta * (7.2e-10 + 9.8e-11 * delta))
    squaring = (s + p) * 1.4e-5 + m * (s * (2.8e-7 + 2.6e-10 * delta**3)
                                       + p * (2.8e-7 + 2.8e-9 * delta**2))
    return stepping <= squaring


def momentum_grid_solution(
    init: InitialCondition, params: WalkParams, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """Psi~(t, k_m) = U_{k_m}^t Psi~(0) on the uniform grid k_m = -pi + 2 pi m / M.

    M is ``_default_grid_size(t)``, the smallest power of two >= 2t + 10.

    Two routes, one chosen per call by a fitted cost model
    (``_stepping_is_cheaper``):

    - **Stepping the shared coin.**  U_k = D_k G, and every k shares the
      dense real Grover coin G.  Each of the t steps is one real BLAS product
      of G with the float64 view of the (delta, M) block of states, then row
      0 times e^{ik} and row 1 times e^{-ik}.  O(t M delta^2) time; two
      (delta, M) blocks, 2 M delta 16 bytes, and no operator stack.
    - **Repeated squaring.**  Binary powering of the delta x delta matrices
      ``momentum_operator`` returns: while the remaining exponent e satisfies
      ``e > 1 and 4 e >= delta``, the operators are squared (one delta^3
      product per grid point) and applied to the state whenever the low bit
      of e is set; the last e < delta / 4 powers are matrix-vector products,
      where one more squaring would cost more than the ~e/2 products it
      saves.  O(M delta^3 log t) time.  The grid is worked through in blocks of at
      most ~1 MiB of stacked operators, so the (M, delta, delta) stack is
      never held at once; the states take M delta 16 bytes.

    Squaring wins only once t is well above delta log2 t (small delta, long
    walks); see ``_stepping_is_cheaper``.

    No eigenbasis, closed form or symmetry reduction is used, and G is applied
    as the dense delta x delta matrix, so this path stays an independent
    oracle for the kernel in :mod:`lqw.core` (and has no k = 0 special case).
    """
    t = _check_int("t", t, 0)
    m = _default_grid_size(t)
    d = params.delta
    ks = -np.pi + 2.0 * np.pi * np.arange(m) / m
    # Psi~(0, k) is k-independent for a walker starting at the origin.
    psi0 = init.coin_vector(params)
    if _stepping_is_cheaper(t, d, m):
        g = grover_coin(params)
        left, right = np.exp(1j * ks), np.exp(-1j * ks)
        block = np.empty((d, m), dtype=np.complex128)
        block[:] = psi0[:, None]
        spare = np.empty_like(block)
        for _ in range(t):
            np.matmul(g, block.view(np.float64), out=spare.view(np.float64))
            spare[0] *= left
            spare[1] *= right
            block, spare = spare, block
        return ks, block.T

    psi = np.broadcast_to(psi0, (m, d)).copy()
    squarings = _squarings(t, d)
    # k-blocks of at most 1 MiB of stacked complex128 operators
    chunk = max(1, 2**20 // (16 * d * d))
    for lo in range(0, m, chunk):
        base = momentum_operator(params, ks[lo:lo + chunk])
        block = psi[lo:lo + chunk]
        for bit in range(squarings):
            if t >> bit & 1:
                block = np.einsum("mij,mj->mi", base, block)
            base = base @ base
        for _ in range(t >> squarings):
            block = np.einsum("mij,mj->mi", base, block)
        psi[lo:lo + chunk] = block
    return ks, psi


def propagate_fourier(init: InitialCondition, params: WalkParams, t: int) -> np.ndarray:
    """Amplitudes after t steps, evolved in momentum space and transformed back.

    Returns the read-only ``(2t+1, delta)`` array whose row ``n + t`` is the
    coin state at position n, the layout of ``WalkerState.amplitudes``; its
    norm is checked like a ``WalkerState``'s.  The grid, the smallest power
    of two >= 2t + 10, has more points than the walk's 2t + 1 sites, so the
    inverse transform is exact up to roundoff.
    """
    t = _check_int("t", t, 0)
    amps = _position_amplitudes(init, params, t, np.arange(-t, t + 1))
    _check_norm(np.vdot(amps, amps).real)
    amps.setflags(write=False)
    return amps


def _light_cone_tail(init: InitialCondition, params: WalkParams, t: int) -> float:
    """Max |amplitude| on the 4 sites beyond each edge of the light cone after t steps.

    The exact walk puts nothing there; the oracle's grid of at least 2t + 10
    points (``_default_grid_size``) holds those sites apart from the support.
    """
    t = _check_int("t", t, 0)
    beyond = np.arange(t + 1, t + 5)
    amps = _position_amplitudes(init, params, t, np.concatenate((beyond, -beyond)))
    return float(np.max(np.abs(amps)))


def _position_amplitudes(
    init: InitialCondition, params: WalkParams, t: int, ns: np.ndarray
) -> np.ndarray:
    """Coin states at the positions ``ns`` after t steps, from the oracle's grid."""
    ks, psi = momentum_grid_solution(init, params, t)
    # Psi(t, n) = (-1)^n * IDFT[Psi~](n mod M) for the -pi-based grid.
    return np.fft.ifft(psi, axis=0)[np.mod(ns, ks.shape[0])] * ((-1.0) ** ns)[:, None]
