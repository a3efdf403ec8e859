"""Closed-form asymptotics of the lackadaisical walk.

Everything the long-time limit of the walk is known to satisfy in closed
form lives here: the three momentum integrals Theta_1..Theta_3 of the
omega = 0 spectral projector, the F_3 matrix they assemble, the limiting
origin coin state and localization probability, the travelling-peak
velocities, the weak-limit density f(x) on (-Omega, Omega) with its
delta-atom mass P_hat, rescaled moments, and the ballistic spread
coefficient.  Moment evaluators integrate f numerically (after removing the
endpoint singularity analytically), which keeps them an independent check on
the closed-form spread coefficient rather than a restatement of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GeneralInit, InitialCondition, StandardInit, WalkParams, _check_tau
from .errors import DomainError, QuadratureError, UnsupportedInitialStateError
from .quadrature import DEFAULT_NODES, legendre_rule

__all__ = [
    "ThetaConstants",
    "WeakLimitModel",
    "theta_constants",
    "f3_matrix",
    "loop_sector_projector",
    "limiting_origin_state",
    "localization_probability_origin",
    "peak_velocities",
    "phase_derivative",
    "weak_limit_density",
    "total_localization",
    "limit_moment",
    "spread_coefficient",
]


@dataclass(frozen=True)
class ThetaConstants:
    """The integrals (dk/2pi) of N_3 * {1, kappa_1 kappa_2, kappa_1^2}."""

    theta1: float
    theta2: float
    theta3: float


def theta_constants(tau: int) -> ThetaConstants:
    """Closed forms of the three projector integrals for laziness tau."""
    tau = _check_tau(tau)
    root = math.sqrt(2.0 * tau + 4.0)
    return ThetaConstants(
        theta1=1.0 / tau - root / (tau * (tau + 2.0)),
        theta2=root / (2.0 * tau + 4.0),
        theta3=2.0 / tau - (tau + 4.0) * root / (2.0 * tau * (tau + 2.0)),
    )


def f3_matrix(tau: int) -> np.ndarray:
    """Time-averaged projector on the omega = 0 eigenvector, as a real matrix.

    Block pattern: Theta_2 on the first two diagonal entries, Theta_3 on
    their off-diagonal pair, Theta_1 everywhere else.
    """
    tau = _check_tau(tau)
    th = theta_constants(tau)
    d = tau + 2
    f3 = np.full((d, d), th.theta1)
    f3[0, 0] = f3[1, 1] = th.theta2
    f3[0, 1] = f3[1, 0] = th.theta3
    return f3


def loop_sector_projector(tau: int) -> np.ndarray:
    """Projector on the omega = pi eigenspace (loop differences), rank tau - 1.

    Equals the sum of the constant F_j matrices for j >= 4.  The eigenspace is
    {v : v_left = v_right = 0, loop components sum to 0}, so on the loop block
    the projector is I - (1/tau) * ones.
    """
    tau = _check_tau(tau)
    d = tau + 2
    p = np.zeros((d, d))
    p[2:, 2:] = np.eye(tau) - 1.0 / tau
    return p


def limiting_origin_state(
    init: InitialCondition, tau: int, parity: str = "even"
) -> np.ndarray:
    """Long-time origin coin state [F_3 +- sum_{j>=4} F_j] psi(0).

    ``parity`` ("even" or "odd") selects the sign of the (-1)^t factor on the
    pi-sector; for two-component initial states the pi-sector annihilates the
    input and both parities coincide.
    """
    tau = _check_tau(tau)
    sign = _parity_sign(parity)
    psi0 = init.coin_vector(WalkParams(tau))
    return (f3_matrix(tau) + sign * loop_sector_projector(tau)) @ psi0


def localization_probability_origin(
    init: InitialCondition, tau: int, parity: str = "even"
) -> float:
    """lim P(X_t = 0) along steps of the given parity.

    For two-component initial states this is the initial-state-independent
    value 2 (tau + 4 - 2 sqrt(2 tau + 4)) / tau^2.
    """
    phi = limiting_origin_state(init, tau, parity)
    return float(np.sum(np.abs(phi) ** 2))


def peak_velocities(tau: int) -> tuple[float, float]:
    """(v_left, v_right) of the travelling peaks: -+ sqrt(tau / (tau + 2)).

    These are the k -> 0 limits of the two momentum-phase derivatives; the
    right velocity also bounds the weak-limit support.
    """
    tau = _check_tau(tau)
    v = math.sqrt(tau / (tau + 2.0))
    return -v, v


def phase_derivative(tau: int, k: float, branch: int) -> float:
    """d omega_j / dk for the travelling branches j = 1, 2.

    Branch 1 carries the minus sign (its k -> 0+ limit is the left-peak
    velocity), branch 2 the plus sign.  k = 0 is a 0/0 point; the limits are
    supplied by :func:`peak_velocities`.
    """
    tau = _check_tau(tau)
    if branch not in (1, 2):
        raise ValueError(f"branch must be 1 or 2, got {branch}")
    if not (-math.pi < k <= math.pi):
        raise ValueError(f"k must lie in (-pi, pi], got {k}")
    if k == 0.0:
        raise DomainError("k = 0 is a removable singularity; use peak_velocities")
    one_minus_c = 2.0 * math.sin(k / 2.0) ** 2
    cos_k = 1.0 - one_minus_c
    value = tau * math.sin(k) / math.sqrt(tau * one_minus_c * (tau * cos_k + tau + 4.0))
    return -value if branch == 1 else value


@dataclass(frozen=True)
class WeakLimitModel:
    """Weak limit of X_t / t for a two-component initial state.

    The limiting law is a point mass of weight ``p_hat`` at 0 plus the
    density ``f`` on (-omega, omega).
    """

    init: StandardInit
    tau: int

    def __post_init__(self):
        _require_standard(self.init)
        _check_tau(self.tau)

    @property
    def omega(self) -> float:
        return peak_velocities(self.tau)[1]

    @property
    def p_hat(self) -> float:
        return total_localization(self.init, self.tau)

    def density(self, x: float | np.ndarray) -> float | np.ndarray:
        return weak_limit_density(self.init, self.tau, x)

    def continuous_mass(self, lo: float | None = None, hi: float | None = None,
                        nodes: int = DEFAULT_NODES) -> float:
        """Integral of f over (lo, hi), defaulting to the whole support."""
        return _density_integral(self.init, self.tau, 0, nodes, lo=lo, hi=hi)

    def cdf(self, x: float, nodes: int = DEFAULT_NODES) -> float:
        """P(X_t / t <= x) in the limit, atom included."""
        atom = self.p_hat if x >= 0.0 else 0.0
        omega = self.omega
        if x <= -omega:
            return atom
        body = _density_integral(self.init, self.tau, 0, nodes, hi=min(x, omega))
        return atom + body


def weak_limit_density(
    init: InitialCondition, tau: int, x: float | np.ndarray
) -> float | np.ndarray:
    """The continuous part f(x) of the limiting law of X_t / t.

    Defined for |x| < Omega = sqrt(tau / (tau + 2)); diverges integrably at
    the edges.  Only derived for two-component initial states.  A scalar x
    gives a float; an array gives f at every point, elementwise the same
    arithmetic as the scalar.
    """
    tau = _check_tau(tau)
    _require_standard(init)
    omega = math.sqrt(tau / (tau + 2.0))
    x = np.asarray(x, dtype=np.float64)
    if np.any(np.abs(x) >= omega):
        raise DomainError(
            f"|x| = {float(np.max(np.abs(x)))} outside the support (-{omega}, {omega})")
    f = _density_numerator(init, tau, x) / (
        math.pi * (1.0 - x * x) * np.sqrt(2.0 * tau - 2.0 * (tau + 2.0) * x * x))
    return float(f) if f.ndim == 0 else f


def total_localization(init: InitialCondition, tau: int) -> float:
    """Delta-atom mass P_hat = Theta_2 + 2 Theta_3 Re(conj(alpha) beta)."""
    tau = _check_tau(tau)
    _require_standard(init)
    th = theta_constants(tau)
    return th.theta2 + 2.0 * th.theta3 * _re_ab(init)


def limit_moment(
    init: InitialCondition,
    tau: int,
    r: int,
    nodes: int = DEFAULT_NODES,
    tol: float = 1e-8,
) -> float:
    """r-th moment of the limiting law of X_t / t.

    r = 0 returns 1 (total probability).  For r >= 1 the atom at the origin
    contributes nothing and the moment is the quadrature of x^r f(x); the
    result at ``nodes`` points is cross-checked against 2*nodes points and a
    QuadratureError is raised if they disagree beyond ``tol``.
    """
    tau = _check_tau(tau)
    _require_standard(init)
    if r < 0:
        raise ValueError("moment order must be >= 0")
    if r == 0:
        return 1.0
    coarse = _density_integral(init, tau, r, nodes)
    fine = _density_integral(init, tau, r, 2 * nodes)
    if abs(fine - coarse) > tol:
        raise QuadratureError(
            f"moment r={r} quadrature not converged: {coarse!r} vs {fine!r} at {nodes} nodes"
        )
    return fine


def spread_coefficient(init: InitialCondition, tau: int) -> float:
    """Ballistic spread coefficient c with sigma^2 ~ c t^2.

    Closed form in tau, Re(conj(alpha) beta) and |beta|^2 - |alpha|^2; agrees
    with the second central moment of the weak limit.
    """
    tau = _check_tau(tau)
    _require_standard(init)
    root = math.sqrt(2.0 * tau + 4.0)
    re_ab = _re_ab(init)
    imbalance = abs(init.beta) ** 2 - abs(init.alpha) ** 2
    return (
        1.0
        - (5.0 * tau + 8.0) * root / (2.0 * tau + 4.0) ** 2
        + (2.0 * (tau * tau + 12.0 * tau + 16.0) * root / (tau * (2.0 * tau + 4.0) ** 2)
           - 4.0 / tau) * re_ab
        - ((1.0 - root / (tau + 2.0)) * imbalance) ** 2
    )


def _parity_sign(parity: str) -> float:
    if parity == "even":
        return 1.0
    if parity == "odd":
        return -1.0
    raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")


def _require_standard(init: InitialCondition) -> None:
    if isinstance(init, GeneralInit):
        raise UnsupportedInitialStateError(
            "weak-limit quantities are derived only for two-component "
            "(left/right) initial states"
        )
    if not isinstance(init, StandardInit):
        raise TypeError(f"expected an initial condition, got {type(init).__name__}")


def _re_ab(init: StandardInit) -> float:
    return (np.conj(init.alpha) * init.beta).real


def _density_numerator(init: StandardInit, tau: int, x: np.ndarray) -> np.ndarray:
    re_ab = _re_ab(init)
    imbalance = abs(init.beta) ** 2 - abs(init.alpha) ** 2
    return (1.0 + 2.0 * re_ab + 2.0 * imbalance * x
            + (1.0 - 2.0 * re_ab * (tau + 4.0) / tau) * x * x)


def _density_integral(
    init: StandardInit,
    tau: int,
    r: int,
    nodes: int,
    lo: float | None = None,
    hi: float | None = None,
) -> float:
    """integral of x^r f(x) over (lo, hi) within the support.

    Uses x = Omega sin(u): the edge factor sqrt(Omega^2 - x^2) in f cancels
    against dx, leaving a smooth integrand on a subinterval of (-pi/2, pi/2).
    """
    omega = math.sqrt(tau / (tau + 2.0))
    u_lo = -0.5 * math.pi if lo is None else math.asin(min(max(lo / omega, -1.0), 1.0))
    u_hi = 0.5 * math.pi if hi is None else math.asin(min(max(hi / omega, -1.0), 1.0))
    if u_hi <= u_lo:
        return 0.0
    u, w = legendre_rule(nodes, u_lo, u_hi)
    x = omega * np.sin(u)
    smooth = _density_numerator(init, tau, x) / (
        math.pi * (1.0 - x * x) * math.sqrt(2.0 * (tau + 2.0))
    )
    return float(np.sum(w * x**r * smooth))
