"""Closed-form asymptotics of the lackadaisical walk.

Everything the long-time limit of the walk is known to satisfy in closed
form lives here: the three momentum integrals Theta_1..Theta_3 of the
omega = 0 spectral projector, the F_3 matrix they assemble, the limiting
origin coin state and localization probability, the travelling-peak
velocities, the weak-limit density f(x), the support edge Omega, atom P_hat
and CDF of ``WeakLimitModel``, rescaled moments, and the spread coefficient.
Omega and s = sqrt(1 - Omega^2) are written once, in ``_support``; the right
peak velocity equals Omega by theorem, and is written apart to check it.

The omega = 0 eigenvector puts the same amplitude on every loop, so F_3 is a
3 x 3 block on (left, right, one loop), and the limiting origin state costs
O(delta); only ``f3_matrix`` expands the block to delta x delta.

The weak-limit CDF is the elementary antiderivative of f (weak-limit theorem:
Konno, J. Math. Soc. Japan 57, 1179 (2005)), evaluated over arrays.  Moment
evaluators and ``WeakLimitModel.continuous_mass`` integrate f numerically,
which keeps them an independent check on the closed-form spread coefficient
and CDF rather than a restatement of them.  The substitution x = Omega sin(u)
removes the edge singularity and leaves the denominator cos^2 u + s^2 sin^2 u:
written so, it does not cancel, and a composite Gauss-Legendre rule graded
toward u = +-pi/2 resolves its near-poles of width s.  The rule depends on tau
only through how often its end panels halve, so it stays near machine precision
up to tau 10^12; where Omega rounds to 1 it raises DomainError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import GeneralInit, InitialCondition, StandardInit, WalkParams, _check_int, _check_tau
from .errors import DomainError, QuadratureError, UnsupportedInitialStateError
from .quadrature import graded_edges, legendre_rule

# Gauss-Legendre nodes per panel of the density quadrature, and the panels on
# [-pi/2, pi/2] before the two end panels are graded down to width s / 32.
_PANEL_NODES = 20
_PANELS = 8

__all__ = [
    "ThetaConstants",
    "WeakLimitModel",
    "theta_constants",
    "f3_matrix",
    "limiting_origin_state",
    "localization_probability_origin",
    "peak_velocities",
    "weak_limit_density",
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
    # coin component -> row of the (left, right, one loop) block
    block_index = np.minimum(np.arange(tau + 2), 2)
    return _f3_block(tau)[np.ix_(block_index, block_index)]


def limiting_origin_state(init: InitialCondition, tau: int) -> np.ndarray:
    """Long-time origin coin state [F_3 + sum_{j>=4} F_j] psi(0) along even steps, in O(delta).

    F_3 acts through its block on (left, right, sum of loops); the pi-sector
    projector sum_{j>=4} F_j is I - (1/tau) * ones on the loop block.  Along
    odd steps (-1)^t negates that loop-difference part, which is orthogonal to
    the rest, so both parities share one probability; for two-component
    initial states the part is zero and the two states coincide.
    """
    tau = _check_tau(tau)
    psi0 = init.coin_vector(WalkParams(tau))
    loops = psi0[2:]
    left, right, loop = _f3_block(tau) @ np.array([psi0[0], psi0[1], loops.sum()])
    return np.concatenate(([left, right], loop + (loops - loops.mean())))


def localization_probability_origin(init: InitialCondition, tau: int) -> float:
    """lim P(X_t = 0), the squared norm of ``limiting_origin_state``; the same along odd steps.

    For two-component initial states this is the initial-state-independent
    value 2 (tau + 4 - 2 sqrt(2 tau + 4)) / tau^2.
    """
    phi = limiting_origin_state(init, tau)
    return float(np.sum(np.abs(phi) ** 2))


def peak_velocities(tau: int) -> tuple[float, float]:
    """(v_left, v_right) of the travelling peaks: -+ sqrt(tau / (tau + 2)).

    These are the k -> 0 limits of the two momentum-phase derivatives; the
    right velocity also bounds the weak-limit support.
    """
    tau = _check_tau(tau)
    v = math.sqrt(tau / (tau + 2.0))
    return -v, v


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
        """The density's support edge, written apart from ``peak_velocities`` for verify to check."""
        return _support(self.tau)[0]

    @property
    def p_hat(self) -> float:
        """Delta-atom mass P_hat = Theta_2 + 2 Theta_3 Re(conj(alpha) beta)."""
        th = theta_constants(self.tau)
        return th.theta2 + 2.0 * th.theta3 * _re_ab(self.init)[0]

    def continuous_mass(self, hi: float | None = None) -> float:
        """Integral of f from -Omega up to hi (default: all of it).  NaN raises DomainError."""
        return _density_integral(self.init, self.tau, 0, _density_edges(self.tau, hi))

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """P(X_t / t <= x) in the limit, atom included, in closed form.

        With x = Omega sin(u), the integral of f up to x is an elementary
        antiderivative in u taken from -pi/2 to u, divided by
        pi sqrt(2 (tau + 2)); the atom P_hat is added for x >= 0.  The CDF is
        exactly 0 for x <= -Omega.  A scalar x gives a float; an array gives
        the CDF at every point.  NaN raises DomainError.  ``continuous_mass``
        integrates the same body by quadrature and is its independent check.
        """
        x = _check_not_nan(x)
        omega = self.omega
        u = np.arcsin(np.clip(x / omega, -1.0, 1.0))
        rise = (_density_antiderivative(self.init, self.tau, u)
                - _density_antiderivative(self.init, self.tau, -0.5 * math.pi))
        body = np.where(x <= -omega, 0.0, rise / (math.pi * math.sqrt(2.0 * (self.tau + 2.0))))
        total = body + np.where(x >= 0.0, self.p_hat, 0.0)
        return float(total) if total.ndim == 0 else total


def weak_limit_density(
    init: InitialCondition, tau: int, x: float | np.ndarray
) -> float | np.ndarray:
    """The continuous part f(x) of the limiting law of X_t / t.

    Defined for |x| < Omega = sqrt(tau / (tau + 2)); diverges integrably at
    the edges.  Only derived for two-component initial states.  A scalar x
    gives a float; an array gives f at every point, elementwise the same
    arithmetic as the scalar.  NaN raises DomainError.
    """
    tau = _check_tau(tau)
    _require_standard(init)
    omega = _support(tau)[0]
    x = _check_not_nan(x)
    if np.any(np.abs(x) >= omega):
        raise DomainError(
            f"|x| = {float(np.max(np.abs(x)))} outside the support (-{omega}, {omega})")
    f = _density_numerator(init, tau, x) / (
        math.pi * (1.0 - x * x) * np.sqrt(2.0 * tau - 2.0 * (tau + 2.0) * x * x))
    return float(f) if f.ndim == 0 else f


def limit_moment(init: InitialCondition, tau: int, r: int) -> float:
    """r-th moment of the limiting law of X_t / t.

    r = 0 returns 1 (total probability).  For r >= 1 the atom at the origin
    contributes nothing and the moment is the quadrature of x^r f(x); the
    result is cross-checked against the same rule with every panel split in
    two, and a QuadratureError is raised if they disagree beyond 1e-8.
    """
    tau = _check_tau(tau)
    _require_standard(init)
    r = _check_int("moment order", r, 0)
    if r == 0:
        return 1.0
    edges = _density_edges(tau)
    split = np.sort(np.append(edges, 0.5 * (edges[:-1] + edges[1:])))
    coarse = _density_integral(init, tau, r, edges)
    fine = _density_integral(init, tau, r, split)
    if abs(fine - coarse) > 1e-8:
        raise QuadratureError(
            f"moment r={r} quadrature not converged: {coarse!r} vs {fine!r} "
            f"on {edges.size - 1} panels of {_PANEL_NODES} nodes"
        )
    return fine


def spread_coefficient(init: InitialCondition, tau: int) -> float:
    """Ballistic spread coefficient c with sigma^2 ~ c t^2.

    Closed form in tau, Re(conj(alpha) beta) and |beta|^2 - |alpha|^2; agrees
    with the second central moment of the weak limit.  DomainError where it overflows.
    """
    tau = _check_tau(tau)
    _require_standard(init)
    root = math.sqrt(2.0 * tau + 4.0)
    re_ab, imbalance = _re_ab(init)
    try:
        c = (
            1.0
            - (5.0 * tau + 8.0) * root / (2.0 * tau + 4.0) ** 2
            + (2.0 * (tau * tau + 12.0 * tau + 16.0) * root / (tau * (2.0 * tau + 4.0) ** 2)
               - 4.0 / tau) * re_ab
            - ((1.0 - root / (tau + 2.0)) * imbalance) ** 2
        )
    except OverflowError:  # (2 tau + 4) ** 2 from tau ~ 6.7e153; inf / inf from ~1e124
        c = math.nan
    if not math.isfinite(c):
        raise DomainError(f"the spread coefficient overflows at tau = {float(tau):.3g}")
    return c


def _f3_block(tau: int) -> np.ndarray:
    """F_3 on (left, right, one loop): every entry of the dense F_3 is one of these nine."""
    th = theta_constants(tau)
    t1, t2, t3 = th.theta1, th.theta2, th.theta3
    return np.array([[t2, t3, t1], [t3, t2, t1], [t1, t1, t1]])


def _require_standard(init: InitialCondition) -> None:
    if isinstance(init, GeneralInit):
        raise UnsupportedInitialStateError(
            "weak-limit quantities are derived only for two-component "
            "(left/right) initial states"
        )
    if not isinstance(init, StandardInit):
        raise TypeError(f"expected an initial condition, got {type(init).__name__}")


def _re_ab(init: StandardInit) -> tuple[float, float]:
    """Re(conj(alpha) beta) and |beta|^2 - |alpha|^2: all the weak limit reads of the state."""
    return (np.conj(init.alpha) * init.beta).real, abs(init.beta) ** 2 - abs(init.alpha) ** 2


def _support(tau: int) -> tuple[float, float]:
    """(Omega, s): the density lives on (-Omega, Omega), and s = sqrt(1 - Omega^2)."""
    return math.sqrt(tau / (tau + 2.0)), math.sqrt(2.0 / (tau + 2.0))


def _check_not_nan(x: float | np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if np.any(np.isnan(x)):
        raise DomainError("x is NaN")
    return x


def _density_coefficients(init: StandardInit, tau: int) -> tuple[float, float, float]:
    """(a, b, c) of the numerator a + b x + c x^2 of f."""
    re_ab, imbalance = _re_ab(init)
    return 1.0 + 2.0 * re_ab, 2.0 * imbalance, 1.0 - 2.0 * re_ab * (tau + 4.0) / tau


def _density_numerator(init: StandardInit, tau: int, x: np.ndarray) -> np.ndarray:
    a, b, c = _density_coefficients(init, tau)
    return a + b * x + c * x * x


def _density_antiderivative(init: StandardInit, tau: int, u: float | np.ndarray) -> np.ndarray:
    """Antiderivative of the smooth integrand that f becomes under x = Omega sin(u).

    The integrand is (a + b Omega sin u + c Omega^2 sin^2 u) / (1 - Omega^2 sin^2 u)
    with a, b, c from ``_density_coefficients``.  With s = sqrt(1 - Omega^2)
    its three parts integrate to I0 = atan2(s sin u, cos u) / s,
    I1 = -arctan(Omega cos u / s) / (Omega s) and I2 = (I0 - u) / Omega^2,
    all continuous on [-pi/2, pi/2]; this returns a I0 + b Omega I1 + c Omega^2 I2.
    """
    a, b, c = _density_coefficients(init, tau)
    omega, s = _support(tau)
    sin_u, cos_u = np.sin(u), np.cos(u)
    return ((a + c) * np.arctan2(s * sin_u, cos_u)
            - b * np.arctan(omega * cos_u / s)) / s - c * u


@functools.lru_cache(maxsize=16)
def _graded_density_edges(tau: int) -> np.ndarray:
    omega, s = _support(tau)
    if omega == 1.0:  # 1 - Omega^2 is 0: no panel of width s fits next to +-pi/2
        raise DomainError(f"no density quadrature at tau = {float(tau):.3g}: Omega rounds to 1")
    edges = graded_edges(-0.5 * math.pi, 0.5 * math.pi, _PANELS, s / 32.0)
    edges.setflags(write=False)
    return edges


def _density_edges(tau: int, hi: float | None = None) -> np.ndarray:
    """Panel edges in u for the integral of f from -Omega up to hi (all of it by default).

    The graded edges are built once per tau; an upper limit inside the support
    drops the panels above u_hi = asin(hi / Omega) and cuts the one holding it.
    """
    edges = _graded_density_edges(tau)
    if hi is None:
        return edges
    u_hi = math.asin(min(max(float(_check_not_nan(hi)) / _support(tau)[0], -1.0), 1.0))
    return np.append(edges[edges < u_hi], u_hi)


def _density_integral(init: StandardInit, tau: int, r: int, edges: np.ndarray) -> float:
    """integral of x^r f(x) over x = Omega sin(u), u running over the panel edges.

    The edge factor sqrt(Omega^2 - x^2) in f cancels against dx, and
    1 - x^2 = cos^2 u + s^2 sin^2 u with s^2 = 1 - Omega^2, which keeps the
    denominator free of cancellation next to the edges of the support.
    """
    if edges.size < 2:
        return 0.0
    u, w = legendre_rule(_PANEL_NODES, edges[:-1], edges[1:])
    sin_u, cos_u = np.sin(u), np.cos(u)
    x = _support(tau)[0] * sin_u
    smooth = _density_numerator(init, tau, x) / (
        math.pi * (cos_u * cos_u + (2.0 / (tau + 2.0)) * sin_u * sin_u)
        * math.sqrt(2.0 * (tau + 2.0))
    )
    return float(np.sum(w * x**r * smooth))
