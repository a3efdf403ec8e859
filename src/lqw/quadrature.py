"""Quadrature rules shared by the analytic evaluators, built with numpy alone.

The weak-limit density has inverse-square-root singularities at the edges of
its support; callers remove them with the substitution x = Omega sin(u).  What
is left is smooth but, at large tau, has near-poles of width
s = sqrt(2 / (tau + 2)) at u = +-pi/2.  ``graded_edges`` lays out panels that
halve toward both ends down to a width below s, and ``legendre_rule`` puts a
fixed, low-order Gauss-Legendre rule on every panel, so the composite rule
stays near machine precision at any tau for a node count that grows only with
log(tau).  The midpoint rule serves as a second opinion for periodic momentum
integrals (its nodes avoid k = +-pi, where raw integrand factors are 0*inf
forms in floating point).
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["graded_edges", "legendre_rule", "midpoint_rule"]


@functools.lru_cache(maxsize=8)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on [-1, 1].

    The nodes are those of numpy's ``leggauss``, bit for bit, by its own
    steps: the eigenvalues of the symmetric tridiagonal companion matrix of
    P_n, one Newton step with P_n and P_n' from ``_legval``, then the two
    halves symmetrized.  Taking those steps here keeps numpy's polynomial
    package (0.57 MB of modules) out of the process.  numpy's weights,
    rescaled to sum to 2, miss the moments by ~3e-15 at n = 20;
    2 / ((1 - x^2) P_n'(x)^2), with P_n' from the three-term recurrence, is
    accurate to rounding.
    """
    scale = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scale[:-1] * scale[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    # P_n in the Legendre basis, and its derivative: 2j + 1 at degrees j = n - 1, n - 3, ...
    j = np.arange(n + 1.0)
    x -= _legval(x, j == n) / _legval(x, (2 * j[:-1] + 1) * ((n - 1 - j[:-1]) % 2 == 0))
    x = (x - x[::-1]) / 2
    p_prev, p = np.ones_like(x), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    slope = n * (p_prev - x * p) / (1.0 - x * x)
    w = 2.0 / ((1.0 - x * x) * slope * slope)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _legval(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c[k] P_k(x) by Clenshaw's recurrence, operation for operation as numpy's ``legval``.

    Each step multiplies by the ratios (nd - 1) / nd and (2 nd - 1) / nd,
    as numpy 2.4's ``legval`` does; the tests hold the nodes to numpy's
    ``leggauss`` bit for bit.
    """
    c = np.asarray(c, dtype=np.float64)
    if len(c) == 1:
        return c[0] + 0 * x
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def legendre_rule(
    n: int, a: float | np.ndarray, b: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights mapped to [a, b].

    ``a`` and ``b`` may be arrays of panel edges: the result then has one row
    of n nodes (and weights) per panel, shape ``a.shape + (n,)``.
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    x, w = _leggauss(int(n))
    a = np.asarray(a, dtype=np.float64)[..., None]
    half = 0.5 * (np.asarray(b, dtype=np.float64)[..., None] - a)
    return a + half * (x + 1.0), half * w


def graded_edges(a: float, b: float, panels: int, finest: float) -> np.ndarray:
    """Edges of ``panels`` equal panels on [a, b], the two end panels graded.

    Each end panel is halved toward its end of the interval until the panel
    that touches a (and b) is at most ``finest`` wide.
    """
    if panels < 2:
        raise ValueError("panel count must be >= 2")
    width = (b - a) / panels
    halvings = max(0, math.ceil(math.log2(width / finest)))
    steps = width / 2.0 ** np.arange(halvings, 0, -1)  # finest first
    return np.concatenate(
        ([a], a + steps, np.linspace(a, b, panels + 1)[1:-1], b - steps[::-1], [b]))


def midpoint_rule(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite midpoint nodes and weights on [a, b]; spectral for periodic f."""
    if n < 1:
        raise ValueError("node count must be >= 1")
    h = (b - a) / n
    return a + h * (np.arange(n) + 0.5), np.full(n, h)
