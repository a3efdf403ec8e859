"""Fixed-order quadrature rules shared by the analytic evaluators.

The weak-limit density has inverse-square-root singularities at the edges of
its support; callers remove them with the substitution x = Omega sin(u) and
then integrate a smooth function, so fixed-order Gauss-Legendre is accurate
to near machine precision at the default order.  The midpoint rule serves as
a second opinion for periodic momentum integrals (its nodes avoid k = +-pi,
where raw integrand factors are 0*inf forms in floating point).
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.special import roots_legendre

__all__ = ["DEFAULT_NODES", "MAX_NODES", "legendre_rule", "midpoint_rule"]

DEFAULT_NODES = 2048
# The largest node count the CLI accepts.  A cold rule grows roughly as n^2:
# about 0.2 s at 2048 nodes, 2.5 s at 8192 and 35 s at 32768 on a 2-core
# Xeon, and limit_moment builds one with twice the count it is given.
MAX_NODES = 8192


@functools.lru_cache(maxsize=16)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_legendre(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def legendre_rule(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to the interval [a, b]."""
    if n < 1:
        raise ValueError("node count must be >= 1")
    x, w = _leggauss(int(n))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def midpoint_rule(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite midpoint nodes and weights on [a, b]; spectral for periodic f."""
    if n < 1:
        raise ValueError("node count must be >= 1")
    h = (b - a) / n
    return a + h * (np.arange(n) + 0.5), np.full(n, h)
