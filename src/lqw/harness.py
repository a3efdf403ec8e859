"""Desk-scale experiments: simulation-vs-theory checks with tabular reports.

Each experiment (distribution_snapshot, localization_series, density_table,
variance_series, empirical_vs_weak_limit, verification_suite) checks a
simulation or a closed form against an independent route and returns an
ExperimentReport: the raw table, scalar metrics and pass/fail verdicts, each
with the tolerance it was judged against.  The table is held by column, one
float64 or int64 array per numeric column straight from numpy, so a long
table costs 8 bytes per cell and no Python object per row.  Every CLI
subcommand runs one of the experiments; serialization is left to the cli
module.

The kernel walks are shared.  localization_series takes a StandardInit's
origin series from exact recurrences (``core._origin_recurrence``) and
iterates ``WalkerState`` snapshots of the complex walk only as their probe,
for at most 256 steps; a GeneralInit's series reads one snapshot per step.
verification_suite's walk (``_walk``) and variance_series read every step
from the kernel's zero-padded view of its flush block, rows (left, u,
right), through views of it built once per block and buffer, and take
every sum over step t's 2t+1 columns.  For a StandardInit both step only
the real walk a from |left> and read the state alpha a + beta mirror(a)
from it (see ``lqw.core``): ``_walk`` reads the origin column at the view's
centre, checks each step's norm from the view and combines the columns
once, after the walk, with one state at its last step.  verification_suite
takes a StandardInit only, and a GeneralInit raises before its walk.
variance_series telescopes the moments through the steps, by an exact
identity of the walk, in one loop for every start (``_variances``): each
step adds sums of its left and right rows' L^2, R^2 and L(n) R(-n) against
1 and n, and checks its norm from them, u . u and |d|^2.  A StandardInit's
moments are those of a * a and a * mirror(a), and
``moments_telescoped_vs_direct`` judges them at t_max against direct sums
over the last window; a GeneralInit's complex window is read as two real
walks, through its float64 view.  It builds no probability vector and no
state, and for a StandardInit no tau-vector, so it runs in O(t) memory at
any tau.
distribution_snapshot and the kernel probe of
empirical_vs_weak_limit build one final state with ``evolve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analytics, core, spectral
from .core import (
    InitialCondition,
    StandardInit,
    WalkerState,
    WalkParams,
    _check_int,
    evolve,
    grover_coin,
    iter_evolution,
)
from .errors import DegenerateSeriesError
from .quadrature import midpoint_rule
from .spectral import eigen_system, momentum_operator, propagate_fourier

__all__ = [
    "Verdict",
    "ExperimentReport",
    "localization_series",
    "distribution_snapshot",
    "density_table",
    "variance_series",
    "fit_power_law",
    "empirical_vs_weak_limit",
    "verification_suite",
]

# |a'_1|, the first zero of Ai': the travelling peak sits at the maximum of
# Ai^2, |a'_1| Airy lengths behind the front v*t.
_AIRY_PRIME_ZERO = 1.0187929716474710

# Steps of the kernel walk that judges the closed-form final state (about 1 ms)
# and the recurrence's origin series.
_KERNEL_PROBE_STEPS = 256

# Bounds on the recurrence's origin amplitudes, about 3x the largest difference
# measured over tau 1 to 10^6 at four states: 4.9e-15 from the kernel's probe,
# and 3.4e-11 from the spectral origin at t_max 257 to 10^6, the spectral
# route's own error at tau 10^6, t 10^6 (at most 2.3e-13 for tau <= 100).
_RECURRENCE_VS_KERNEL = 1.5e-14
_RECURRENCE_VS_CLOSED_FORM = 1e-10

# Bound on the telescoped moments' difference from the direct sums at t_max,
# relative to m2 (``_variances``).  It grows like 3.6e-17 t: measured 1.1e-14
# to 7.3e-14 at t 2000 over tau 1 to 10^12, 7.3e-13 at t 20000 and 3.7e-12 at
# t 10^5 (tau 1), so about 3.7e-11 at t 10^6, 2.7x below the bound.
_TELESCOPED_VS_DIRECT = 1e-10

# Half-width of the window around the atom at x = 0 that the empirical CDF
# comparison leaves out; Omega >= 1/sqrt(3) keeps it inside the support.
_NEAR_ORIGIN = 0.05


@dataclass(frozen=True)
class Verdict:
    name: str
    measured: float
    tolerance: float
    passed: bool

    @classmethod
    def judge(cls, name: str, measured: float, tolerance: float) -> "Verdict":
        return cls(name, float(measured), float(tolerance), bool(measured <= tolerance))


@dataclass
class ExperimentReport:
    """Config echo + table payload + verdicts for one experiment.

    ``table`` holds one 1-D sequence per entry of ``columns``, all of one
    length: a float64 or int64 array for a numeric column, a list for a text
    or bool one.  ``rows`` is the same table as one tuple per row.
    """

    experiment: str
    config: dict
    columns: tuple[str, ...]
    table: tuple
    metrics: dict = field(default_factory=dict)
    verdicts: list[Verdict] = field(default_factory=list)

    def __post_init__(self):
        if len(self.table) != len(self.columns):
            raise ValueError(f"{len(self.table)} table columns for {len(self.columns)} names")
        if len({len(col) for col in self.table}) > 1:
            raise ValueError("table columns differ in length")

    @property
    def rows(self) -> list[tuple]:
        """The table as one tuple per row; array cells become Python ints and floats."""
        return list(zip(*(col.tolist() if isinstance(col, np.ndarray) else col
                          for col in self.table)))

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def _config_echo(init: InitialCondition, tau: int, **extra) -> dict:
    cfg = {"tau": tau}
    if isinstance(init, StandardInit):
        cfg["alpha"] = complex(init.alpha)
        cfg["beta"] = complex(init.beta)
    else:
        cfg["coin_vector"] = [complex(a) for a in init.amplitudes]
    cfg.update(extra)
    return cfg


def _mirror_weights(init: StandardInit) -> tuple[float, float, float]:
    """(|alpha|^2 + |beta|^2, |alpha|^2 - |beta|^2, 2 Re(conj(alpha) beta)) of a StandardInit.

    Its state is alpha a + beta mirror(a), a the real walk from |left>, so its
    norm^2 is the first times ||a||^2 plus the last times <a, mirror(a)>.  That
    inner product is <U^t left, U^t right> = <left, right> = 0 by unitarity.
    """
    alpha2, beta2 = abs(init.alpha) ** 2, abs(init.beta) ** 2
    return alpha2 + beta2, alpha2 - beta2, 2.0 * (init.alpha.conjugate() * init.beta).real


def _walk(init: StandardInit, params: WalkParams, t_max: int) -> tuple[np.ndarray, WalkerState]:
    """One walk of the kernel's reused buffers: P(X_t = 0) for t = 1..t_max and the final state.

    The walk is the real walk a from |left>.  Each step stores the origin
    column, the centre of the kernel's block view, and checks the norm from
    it: ||a||^2, one dot over the view's rows and the zero cells between
    them in its flat buffer, times |alpha|^2 + |beta|^2, since the cross term
    <a, mirror(a)> is 0 by unitarity (see ``_mirror_weights``).  P(X_t = 0) is
    ``WalkerState.probabilities()``' arithmetic on those columns, put in
    its (left, right, u) order once, after the walk.  The origin columns
    and the last window are combined as ``evolve`` combines them, so the
    last origin probability and the final state are ``evolve``'s bit for
    bit.  StandardInit only, as ``verification_suite`` is.
    """
    total = _mirror_weights(init)[0]
    columns = np.empty((3, t_max))
    width = 2 * t_max + 1  # a kernel buffer's row
    spans = [(None,)] * 2  # per buffer: the block's view and its flat span
    for t, a in core._evolution_buffers(core._LEFT, params, t_max):
        if spans[t % 2][0] is not a:  # a new block: site 0 is column s, s its last step
            s = a.shape[1] // 2
            spans[t % 2] = a, a.base[t_max - s:2 * width + t_max + s + 1]
        if t:
            columns[:, t - 1] = a[:, s]
        flat = spans[t % 2][1]
        core._check_norm(total * np.dot(flat, flat))
    # mirror(a) maps n = 0 to itself: its origin column is a's, rows reversed
    origin = core._column_weights(core._superpose(init, columns, columns[::-1]))
    return origin, core._mirror_state(init, params, t_max, a)


def _window_mean(origin: np.ndarray) -> float:
    """Mean of the origin series over its last ceil(t_max/10) steps."""
    return float(np.mean(origin[-math.ceil(len(origin) / 10):]))


def localization_series(init: InitialCondition, tau: int, t_max: int) -> ExperimentReport:
    """P(X_t = 0) for t = 1..t_max against the theoretical limit.

    Convergence is judged on the mean over the last ceil(t_max/10) steps,
    since the pointwise sequence keeps oscillating around the limit.  No
    verdict is emitted when the window covers the whole series.

    A StandardInit takes the origin column of the real walk from |left> from
    its exact recurrences (``core._origin_recurrence``), in O(t) time and
    memory at any tau, and combines it as ``_walk`` does.  Once the
    recurrence runs past its seeds (t_max >= 3), ``recurrence_vs_kernel`` is
    the largest difference of the combined origin amplitudes from the
    ``iter_evolution`` states over the first ``probe_steps`` =
    min(t_max, 256) steps, and where t_max exceeds those,
    ``recurrence_vs_closed_form`` is their difference at t_max from the
    spectral origin (``spectral._closed_form_origin``).  A GeneralInit reads
    the origin column of every ``iter_evolution`` state.
    """
    t_max = _check_int("t_max", t_max, 1)
    params = WalkParams(tau)
    # the odd-step limit has the same probability as the even one
    reference = analytics.localization_probability_origin(init, tau)
    checks, probe = [], min(t_max, _KERNEL_PROBE_STEPS)
    if isinstance(init, StandardInit):
        columns = core._origin_recurrence(params, t_max)[:, 1:]
        # mirror(a) maps n = 0 to itself: its origin column is a's, rows reversed
        amplitudes = core._superpose(init, columns, columns[::-1])
        origin = core._column_weights(amplitudes)
        if t_max >= 3:
            kernel, _ = _origin_columns(init, params, probe)
            checks.append(Verdict.judge(
                "recurrence_vs_kernel", np.max(np.abs(amplitudes[:, :probe] - kernel.T)),
                _RECURRENCE_VS_KERNEL))
        if t_max > probe:
            closed = spectral._closed_form_origin(
                core._reduced_start(init, params)[0], params, t_max)
            checks.append(Verdict.judge(
                "recurrence_vs_closed_form", np.max(np.abs(amplitudes[:, -1] - closed)),
                _RECURRENCE_VS_CLOSED_FORM))
    else:
        columns, state = _origin_columns(init, params, t_max)
        # d only flips sign, so the last state's |d|^2 is every state's
        origin = np.sum(np.abs(columns) ** 2, axis=1) + np.sum(np.abs(state.loop_diff) ** 2)

    window = math.ceil(t_max / 10)
    metrics = {"reference": reference, "window": window}
    verdicts = []
    if window < t_max:
        metrics["window_mean"] = _window_mean(origin)
        verdicts.append(Verdict.judge(
            "window_mean_deviation", abs(metrics["window_mean"] - reference), 1e-2))
    if checks:
        metrics["probe_steps"] = probe
    return ExperimentReport(
        experiment="localization_series",
        config=_config_echo(init, tau, steps=t_max),
        columns=("t", "origin_probability", "reference"),
        table=(np.arange(1, t_max + 1), origin, np.full(t_max, reference)),
        metrics=metrics,
        verdicts=verdicts + checks,
    )


def _origin_columns(
    init: InitialCondition, params: WalkParams, t_max: int
) -> tuple[np.ndarray, WalkerState]:
    """The origin columns (left, right, u) of the ``iter_evolution`` states t = 1..t_max, and the last state.

    Row t - 1 holds state t's column.
    """
    columns = np.empty((t_max, 3), dtype=np.complex128)
    for state in iter_evolution(init, params, t_max):
        if state.t:
            columns[state.t - 1] = state.moving[:, state.t]
    return columns, state


def _argmax_peak(positions: np.ndarray, probs: np.ndarray, side: int) -> int:
    """argmax of probs on one travelling-peak flank; ties go to larger |n|."""
    best = np.flatnonzero(probs == probs.max())
    pick = best.max() if side > 0 else best.min()
    return int(positions[pick])


def distribution_snapshot(init: InitialCondition, tau: int, t_max: int) -> ExperimentReport:
    """Full distribution at t_max with measured vs theoretical peak positions.

    The travelling peaks are located by argmax over n > t_max/2 and
    n < -t_max/2, excluding the central localization peak.  Their theory
    positions trail the fronts +-v*t by the Airy-edge lag
    |a'_1| (v (1 - v^2) t / 8)^(1/3), which comes from the cubic term of the
    phase phi(k) = pi - theta(k) = v k - v (1 - v^2) k^3 / 24 + O(k^5).
    """
    t_max = _check_int("t_max", t_max, 10)
    state = evolve(init, WalkParams(tau), t_max)
    positions = state.positions
    probs = state.probabilities()

    v = analytics.peak_velocities(tau)[1]
    lag = _AIRY_PRIME_ZERO * (v * (1.0 - v * v) * t_max / 8.0) ** (1.0 / 3.0)
    right_theory = v * t_max - lag
    left_theory = -right_theory
    right_mask = positions > t_max / 2
    left_mask = positions < -t_max / 2
    right_peak = _argmax_peak(positions[right_mask], probs[right_mask], +1)
    left_peak = _argmax_peak(positions[left_mask], probs[left_mask], -1)

    return ExperimentReport(
        experiment="distribution_snapshot",
        config=_config_echo(init, tau, steps=t_max),
        columns=("n", "probability"),
        table=(positions, probs),
        metrics={
            "right_peak": right_peak,
            "left_peak": left_peak,
            "right_peak_theory": right_theory,
            "left_peak_theory": left_theory,
        },
        verdicts=[
            Verdict.judge("right_peak_offset", abs(right_peak - round(right_theory)), 2.0),
            Verdict.judge("left_peak_offset", abs(left_peak - round(left_theory)), 2.0),
        ],
    )


def _closure_verdict(p_hat: float, body: float) -> Verdict:
    """The atom and the density's mass make up the whole weak limit."""
    return Verdict.judge("weak_limit_closure", abs(p_hat + body - 1.0), 1e-6)


def density_table(init: StandardInit, tau: int, grid: int) -> ExperimentReport:
    """The weak-limit density f at the midpoints of grid equal cells of (-Omega, Omega).

    f is ``analytics.weak_limit_density``; the midpoints stay clear of the edges, where it
    diverges.  The verdict checks that the atom P_hat and the quadrature of f add up to 1.
    """
    grid = _check_int("grid", grid, 1)
    model = analytics.WeakLimitModel(init, tau)
    omega = model.omega
    xs = -omega + (np.arange(grid) + 0.5) * (2.0 * omega / grid)
    body = model.continuous_mass()
    return ExperimentReport(
        experiment="weak_limit_density",
        config=_config_echo(init, tau, grid=grid),
        columns=("x", "density"),
        table=(xs, analytics.weak_limit_density(init, tau, xs)),
        metrics={"p_hat": model.p_hat, "omega": omega, "continuous_mass": body,
                 "spread_coefficient": analytics.spread_coefficient(init, tau)},
        verdicts=[_closure_verdict(model.p_hat, body)],
    )


def _variances(init: InitialCondition, params: WalkParams,
               t_max: int) -> tuple[np.ndarray, float | None]:
    """sigma^2(t) for t = 0..t_max from one walk of the kernel's reused buffers, and its drift.

    The coin is real, so a complex window is two real walks, its real and
    its imaginary part, and the float64 view of a window interleaves them:
    every sum below runs over floats, each site's n once per float.  With
    A(n) = sum_r a_r(n)^2 and C(n) the row sum of a * mirror(a),
    a_L(n) a_R(-n) + a_R(n) a_L(-n) + a_u(n) a_u(-n), which is even in n, so
    sum n C(n) = 0: with m1 = sum n A(n), m2 = sum n^2 A(n) and
    c2 = sum n^2 C(n), sigma^2 = total m2 + cross c2 - (skew m1)^2.  A
    StandardInit walks the real walk a from |left>, whose state is
    alpha a + beta mirror(a), so its weights are ``_mirror_weights``'; a
    GeneralInit walks its own complex state, (total, skew, cross) = (1, 1, 0),
    and its c2 is unused.  The moments are telescoped through the steps: the
    coin is orthogonal and commutes with the mirror, so it keeps A(n) and
    C(n) at every site, and only the shift moves weight, the left row from
    n + 1 to n and the right row from n - 1 to n.  So with step t's rows L
    and R, exactly, m1 += sum R^2 - sum L^2,
    m2 += sum (2n - 1) R^2 - sum (2n + 1) L^2 and
    c2 -= 2 sum (2n + 1) L(n) R(-n).  Each step forms L^2, R^2 and, for a
    StandardInit, L * reversed R from the kernel's contiguous block view into
    work rows and sums step t's 2t+1 sites against 1 and n in one product.  The
    norm check is total (sum L^2 + sum R^2 + u . u) + |d|^2: for a
    StandardInit <a, mirror(a)> is 0 by unitarity (as ``_walk``'s) and d = 0,
    and a GeneralInit's loop differences d only flip sign.  The drift, for a
    StandardInit only (None for a GeneralInit), is the largest difference of
    m1, m2 and c2 at t_max from the direct sums of the last window against n
    and n^2, relative to m2.
    """
    mirror = isinstance(init, StandardInit)
    if mirror:
        total, skew, cross = _mirror_weights(init)
        start, loop_weight, floats = core._LEFT, 0.0, 1
    else:
        total, skew, cross = 1.0, 1.0, 0.0
        start, diff = core._reduced_start(init, params)
        loop_weight, floats = np.sum(np.abs(diff) ** 2), 2
    variances = np.empty(t_max + 1)
    # the weights 1 and n at every step are slices of these rows, n once per float
    weights = np.ones((2, floats * (2 * t_max + 1)))
    weights[1].reshape(-1, floats)[:] = np.arange(-t_max, t_max + 1)[:, None]
    # a GeneralInit's c2 is never read: it forms no L * reversed R row, and its lr sums read 0
    work = np.empty((3 if mirror else 2, floats * (2 * t_max + 1)))
    m1 = m2 = c2 = 0.0
    held = [(None,)] * 2  # per buffer: the block's view and its rows L, u, R, reversed R
    steps = core._evolution_buffers(start, params, t_max)
    next(steps)  # t 0: the start at the origin, every moment 0
    variances[0] = 0.0
    for t, window in steps:
        if held[t % 2][0] is not window:  # a new block: site 0 is column s, s its last step
            s = window.shape[1] // 2
            products = work[:, :floats * (2 * s + 1)]
            rows = window.view(np.float64)
            # R(-n) under L(n): the right row reversed, site 0 in the centre of both
            held[t % 2] = window, *rows, rows[2, ::-1]
        _, left, u, right, mirrored = held[t % 2]
        np.multiply(left, left, out=products[0])
        np.multiply(right, right, out=products[1])
        if mirror:
            np.multiply(left, mirrored, out=products[2])
        sums = (weights[:, floats * (t_max - t):floats * (t_max + t + 1)]
                @ work[:, floats * (s - t):floats * (s + t + 1)].T).tolist()
        (l2, r2, lr), (nl2, nr2, nlr) = sums if mirror else (row + [0.0] for row in sums)
        core._check_norm(total * (l2 + r2 + np.dot(u, u)) + loop_weight)
        m1 += r2 - l2
        m2 += (2.0 * nr2 - r2) - (2.0 * nl2 + l2)
        c2 -= 2.0 * (2.0 * nlr + lr)
        mean = skew * m1
        variances[t] = total * m2 + cross * c2 - mean * mean
    if not mirror:
        return variances, None
    # the direct sums of the last window, (3, 2t_max + 1), in the same work rows
    np.multiply(weights[1], weights[1], out=weights[0])  # the weights n^2 and n
    for row, r in zip(work, window):
        np.multiply(r, r, out=row)
    second, first = (weights @ work.T).sum(axis=1).tolist()
    for row, r, q in zip(work, window, window[::-1, ::-1]):
        np.multiply(r, q, out=row)
    crossed = float(np.sum(weights[0] @ work.T))
    drift = max(abs(m1 - first), abs(m2 - second), abs(c2 - crossed)) / second
    return variances, drift


def variance_series(init: InitialCondition, tau: int, t_max: int) -> ExperimentReport:
    """sigma^2(t) for t = 0..t_max, from moments telescoped through one walk (``_variances``).

    For a StandardInit, ``fit_power_law`` of the two table columns is judged
    against sigma^2 ~ c t^2, c the closed-form spread coefficient, and
    ``moments_telescoped_vs_direct`` judges the telescoped moments behind the
    series against direct sums at t_max.  A GeneralInit
    gets the bare series: no closed form covers it (its variance can be 0 at every t).
    sigma^2 is the second moment less the squared mean, so the column is
    accurate relative to the second moment m2(t), not to sigma^2, which is
    far smaller where the walk drifts more than it spreads: |left> at
    tau 10^6 measured 3.1e-11 off relative to sigma^2 and 2.4e-15 relative
    to m2 against the exact walk, t <= 128.
    """
    t_max = _check_int("t_max", t_max, 10)
    variances, drift = _variances(init, WalkParams(tau), t_max)
    ts = np.arange(t_max + 1)
    metrics, verdicts = {}, []
    if isinstance(init, StandardInit):
        c_fit, alpha_fit = fit_power_law(ts, variances)
        c_theory = analytics.spread_coefficient(init, tau)
        metrics = {"c_fit": c_fit, "alpha_fit": alpha_fit, "c_theory": c_theory}
        verdicts = [
            Verdict.judge("spread_exponent_offset", abs(alpha_fit - 2.0), 0.05),
            Verdict.judge("spread_coefficient_relative_error",
                          abs(c_fit - c_theory) / c_theory, 0.10),
            Verdict.judge("moments_telescoped_vs_direct", drift, _TELESCOPED_VS_DIRECT),
        ]
    return ExperimentReport(
        experiment="variance_series",
        config=_config_echo(init, tau, steps=t_max),
        columns=("t", "variance"),
        table=(ts, variances),
        metrics=metrics,
        verdicts=verdicts,
    )


def fit_power_law(t, values) -> tuple[float, float]:
    """(c_fit, alpha_fit) of a c * t^alpha law, fit on the tail of 1-D arrays t and values.

    Least squares of log(value) on log(t) over t in [t_max/2, t_max];
    earlier entries are transient and excluded.
    """
    t, v = np.asarray(t, dtype=float), np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape:
        raise ValueError(f"t and values must be 1-D of one length; got {t.shape} and {v.shape}")
    if t.size < 10:
        raise ValueError("series must have at least 10 entries")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise ValueError("t and values must be finite")
    mask = (t >= t.max() / 2) & (t > 0)
    t, v = t[mask], v[mask]
    if np.all(v == v[0]):
        raise DegenerateSeriesError("all values equal; no power law to fit")
    if np.any(v <= 0):
        raise ValueError("power-law fit requires positive values in the fit window")
    slope, intercept = np.polyfit(np.log(t), np.log(v), 1)
    return float(np.exp(intercept)), float(slope)


def empirical_vs_weak_limit(init: InitialCondition, tau: int, t_max: int) -> ExperimentReport:
    """Distribution of X_t/t at t_max against the limiting law.

    Compares empirical and limiting CDFs on |x| > 0.05 (outside the
    delta-atom's neighborhood) and the total mass inside |x| <= 0.05
    against the atom plus the density's share.  The closed-form limiting
    CDF is itself checked against quadrature of the density on 33 points
    spanning [-Omega, Omega].

    The state at t_max comes from the spectrum of U_k in closed form
    (O(t log t)), not from the O(t^2) kernel walk.  The kernel judges that
    route: ``closed_form_vs_kernel`` is the largest difference of the
    reduced amplitudes (left, right, u and the loop differences) between
    the two after min(t_max, 256) steps.
    """
    model = analytics.WeakLimitModel(init, tau)
    t_max = _check_int("t_max", t_max, 100)

    params = WalkParams(tau)
    state = spectral._closed_form_state(init, params, t_max)
    probs = state.probabilities()
    xs = state.positions / t_max
    del state  # the CDF sweep need not overlap its (3, 2t+1) complex rows
    emp_cdf = np.cumsum(probs)

    outside = np.abs(xs) > _NEAR_ORIGIN
    sup_distance = float(np.max(np.abs(emp_cdf[outside] - model.cdf(xs[outside]))))

    near_mass = float(np.sum(probs[~outside]))
    near_theory = model.cdf(_NEAR_ORIGIN) - model.cdf(-_NEAR_ORIGIN)

    sweep = np.linspace(-model.omega, model.omega, 33)
    quadrature_cdf = np.where(sweep >= 0.0, model.p_hat, 0.0) + model.continuous_mass(hi=sweep)
    cdf_error = float(np.max(np.abs(model.cdf(sweep) - quadrature_cdf)))

    probe = min(t_max, _KERNEL_PROBE_STEPS)
    kernel = evolve(init, params, probe)
    closed = spectral._closed_form_state(init, params, probe)
    route_error = max(float(np.max(np.abs(closed.moving - kernel.moving))),
                      float(np.max(np.abs(closed.loop_diff - kernel.loop_diff))))

    return ExperimentReport(
        experiment="empirical_vs_weak_limit",
        config=_config_echo(init, tau, steps=t_max, epsilon=_NEAR_ORIGIN),
        columns=("x", "empirical_cdf"),
        table=(xs, emp_cdf),
        metrics={
            "sup_distance": sup_distance,
            "near_origin_mass": near_mass,
            "near_origin_mass_theory": near_theory,
            "p_hat": model.p_hat,
            "omega": model.omega,
        },
        verdicts=[
            Verdict.judge("sup_distance", sup_distance, 0.05),
            Verdict.judge("near_origin_mass_deviation", abs(near_mass - near_theory), 0.05),
            Verdict.judge("cdf_closed_vs_quadrature", cdf_error, 1e-10),
            Verdict.judge("closed_form_vs_kernel", route_error, 1e-12),
        ],
    )


def verification_suite(init: StandardInit, tau: int, t_max: int) -> ExperimentReport:
    """Cross-check battery: every closed form against an independent route.

    StandardInit only: a GeneralInit raises UnsupportedInitialStateError
    from ``analytics.WeakLimitModel`` before any walk.
    """
    t_max = _check_int("t_max", t_max, 1)
    params = WalkParams(tau)
    model = analytics.WeakLimitModel(init, tau)
    verdicts: list[Verdict] = []

    g = grover_coin(params)
    verdicts.append(Verdict.judge(
        "grover_involution", np.max(np.abs(g @ g - np.eye(params.delta))), 1e-12))
    verdicts.append(Verdict.judge(
        "grover_unitarity", np.max(np.abs(g.T @ g - np.eye(params.delta))), 1e-12))

    origin, state = _walk(init, params, t_max)
    verdicts.append(Verdict.judge(
        "norm_conservation", abs(float(np.sum(state.probabilities())) - 1.0), 1e-12))

    fourier = propagate_fourier(init, params, t_max)
    direct = state.amplitudes
    # in blocks of 64 KiB of rows: a max of the blocks' maxima is the max, bit for bit
    rows = max(1, 2**16 // (16 * params.delta))
    verdicts.append(Verdict.judge("direct_vs_fourier", np.max([
        np.max(np.abs(direct[lo:lo + rows] - fourier[lo:lo + rows]))
        for lo in range(0, len(direct), rows)]), 1e-10))
    # the final state, with its cached amplitudes, and the oracle's array are read no more
    del state, direct, fourier
    verdicts.append(Verdict.judge(
        "light_cone_tail", spectral._light_cone_tail(init, params, min(t_max, 64)), 1e-12))

    residual = 0.0
    for k in (-2.6, -1.3, 0.7, 1.9, math.pi):
        system = eigen_system(params, k)
        vecs = system.eigenvectors
        gap = momentum_operator(params, k) @ vecs - vecs * np.exp(1j * system.omegas)
        residual = max(residual, float(np.max(np.linalg.norm(gap, axis=0))))
    verdicts.append(Verdict.judge("eigen_equation_residual", residual, 1e-10))

    lam = np.linalg.eigvals(momentum_operator(params, 1.234))
    mult_err = abs(int(np.sum(np.abs(lam + 1.0) < 1e-8)) - (tau - 1))
    mult_err += abs(int(np.sum(np.abs(lam - 1.0) < 1e-8)) - 1)
    verdicts.append(Verdict.judge("pi_and_zero_phase_multiplicities", mult_err, 0.0))

    verdicts.append(Verdict.judge("theta_vs_quadrature", _theta_quadrature_error(tau), 1e-8))
    verdicts.append(Verdict.judge("f3_vs_projector_integral", _f3_projector_error(tau), 1e-8))

    omega = analytics.peak_velocities(tau)[1]
    verdicts.append(Verdict.judge("v_right_equals_support_bound", abs(omega - model.omega), 0.0))

    taus = range(1, max(tau, 20) + 1)
    v_seq = [analytics.peak_velocities(t)[1] for t in taus]
    p_seq = [analytics.localization_probability_origin(StandardInit(1, 0), t) for t in taus]
    mono_ok = all(b > a for a, b in zip(v_seq, v_seq[1:])) and all(
        b < a for a, b in zip(p_seq, p_seq[1:]))
    verdicts.append(Verdict.judge("velocity_localization_monotonicity", 0.0 if mono_ok else 1.0, 0.0))

    verdicts.append(_closure_verdict(model.p_hat, model.continuous_mass()))

    moments = analytics.limit_moment(init, tau, 2) - analytics.limit_moment(init, tau, 1) ** 2
    verdicts.append(Verdict.judge(
        "spread_coefficient_consistency",
        abs(analytics.spread_coefficient(init, tau) - moments), 1e-6))

    if t_max >= 100:
        reference = analytics.localization_probability_origin(init, tau)
        verdicts.append(Verdict.judge(
            "localization_window_mean", abs(_window_mean(origin) - reference), 1e-2))

    return ExperimentReport(
        experiment="verification_suite",
        config=_config_echo(init, tau, steps=t_max),
        columns=("check", "measured", "tolerance", "passed"),
        table=([v.name for v in verdicts], np.array([v.measured for v in verdicts]),
               np.array([v.tolerance for v in verdicts]), [v.passed for v in verdicts]),
        verdicts=verdicts,
    )


def _theta_quadrature_error(tau: int) -> float:
    """Closed-form Thetas vs midpoint quadrature of their defining integrals."""
    ks, w = midpoint_rule(4096, -math.pi, math.pi)
    c = np.cos(ks)
    n3 = (1.0 + c) / (tau + 4.0 + tau * c)
    kap1 = 2.0 / (1.0 + np.exp(-1j * ks))
    kap2 = 2.0 / (1.0 + np.exp(1j * ks))
    th = analytics.theta_constants(tau)
    err1 = abs(float(np.sum(w * n3)) / (2 * math.pi) - th.theta1)
    err2 = abs(float(np.sum(w * (n3 * kap1 * kap2).real)) / (2 * math.pi) - th.theta2)
    err3 = abs(float(np.sum(w * (n3 * kap1 * kap1).real)) / (2 * math.pi) - th.theta3)
    return max(err1, err2, err3)


def _f3_projector_error(tau: int) -> float:
    """F_3 vs the momentum integral of the omega = 0 projector.

    Both are taken on (left, right, one loop); each of the nine entries is a dense F_3 entry.
    """
    ks, w = midpoint_rule(1024, -math.pi, math.pi)
    vec = np.stack(spectral._zero_phase_vector(tau, ks))
    acc = np.einsum("m,im,jm->ij", w, vec, vec.conj()) / (2 * math.pi)
    return float(np.max(np.abs(acc - analytics._f3_block(tau))))
