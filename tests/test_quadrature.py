"""Quadrature rules: exactness of the panel rule and layout of the graded panels."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lqw
from lqw.quadrature import _leggauss, graded_edges, legendre_rule, midpoint_rule

# the panels of the weak-limit density quadrature at tau 10^12: s / 32 = 4.4e-8
DENSITY_EDGES = graded_edges(-0.5 * math.pi, 0.5 * math.pi, 8, math.sqrt(2.0 / (1e12 + 2)) / 32)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 20])
@pytest.mark.parametrize("edges", [np.array([-1.0, 1.0]), graded_edges(-1.0, 1.0, 8, 1e-3)],
                         ids=["one-panel", "graded"])
def test_panel_rule_is_exact_to_degree_2m_minus_1(m, edges):
    a, b = edges[:-1], edges[1:]
    x, w = legendre_rule(m, a, b)
    assert x.shape == w.shape == (a.size, m)
    for k in range(2 * m):
        exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        assert np.max(np.abs(np.sum(w * x**k, axis=-1) - exact)) <= 1e-15


@pytest.mark.parametrize("m", [2, 20])
def test_panel_rule_is_exact_on_the_density_panels(m):
    # x^k in each panel's own coordinate: the density panels span 4.4e-8 to pi/8
    a, b = DENSITY_EDGES[:-1], DENSITY_EDGES[1:]
    x, w = legendre_rule(m, a, b)
    centre, half = 0.5 * (a + b)[:, None], 0.5 * (b - a)[:, None]
    for k in range(2 * m):
        exact = (b - a) * (k % 2 == 0) / (k + 1)
        assert np.max(np.abs(np.sum(w * ((x - centre) / half) ** k, axis=-1) - exact)) <= 1e-15


def test_panel_rule_is_not_exact_beyond_degree_2m_minus_1():
    x, w = legendre_rule(3, -1.0, 1.0)
    assert abs(np.sum(w * x**6) - 2.0 / 7.0) > 1e-3


def test_scalar_edges_give_one_rule():
    x, w = legendre_rule(20, 0.0, 2.0)
    assert x.shape == w.shape == (20,)
    assert np.sum(w) == pytest.approx(2.0, abs=1e-15)


def test_graded_edges_layout():
    edges = DENSITY_EDGES
    widths = np.diff(edges)
    assert edges[0] == -0.5 * math.pi and edges[-1] == 0.5 * math.pi
    assert np.all(widths > 0.0)
    # 6 untouched panels plus 25 on each end: the end panels halve 24 times
    assert widths.size == 56
    assert widths[0] <= math.sqrt(2.0 / (1e12 + 2)) / 32 < 2 * widths[0]
    assert widths[-1] == pytest.approx(widths[0], rel=1e-6)
    assert np.allclose(widths[25:31], math.pi / 8, rtol=1e-12, atol=0)
    assert np.allclose(widths[1:25] / widths[:24], [1] + [2] * 23, rtol=1e-6)


def test_graded_edges_need_no_halving_when_panels_are_fine():
    assert np.array_equal(graded_edges(0.0, 1.0, 4, 0.5), np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize("rule", [legendre_rule, midpoint_rule])
def test_nonpositive_node_count_rejected(rule):
    with pytest.raises(ValueError):
        rule(0, 0.0, 1.0)


def numpy_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Gauss-Legendre nodes, and the weights _leggauss derives from them."""
    from numpy.polynomial.legendre import leggauss

    x, _ = leggauss(n)
    p_prev, p = np.ones_like(x), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    slope = n * (p_prev - x * p) / (1.0 - x * x)
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


@pytest.mark.parametrize("n", range(1, 101))
def test_nodes_and_weights_are_numpys_bit_for_bit(n):
    x, w = _leggauss.__wrapped__(n)
    expected_x, expected_w = numpy_rule(n)
    assert x.tobytes() == expected_x.tobytes()
    assert w.tobytes() == expected_w.tobytes()
    assert not (x.flags.writeable or w.flags.writeable)


def test_no_run_imports_numpys_polynomial_package(tmp_path):
    # a fresh interpreter: density and verify through the CLI, and the weak-limit check
    script = (
        "import sys\n"
        "from lqw import StandardInit\n"
        "from lqw.cli import main\n"
        "from lqw.harness import empirical_vs_weak_limit\n"
        f"out = {str(tmp_path)!r}\n"
        "for argv in (['density', '--grid', '201'], ['verify', '--steps', '20']):\n"
        "    assert main([*argv, '--tau', '3', '--out', out]) == 0, argv\n"
        "assert empirical_vs_weak_limit(StandardInit(0.6, 0.8j), 3, 300).passed\n"
        "assert 'numpy.polynomial' not in sys.modules, sorted(sys.modules)\n"
    )
    src = Path(lqw.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
