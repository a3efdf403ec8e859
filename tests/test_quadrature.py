"""Quadrature rules: exactness of the panel rule and layout of the graded panels."""

import math

import numpy as np
import pytest

from lqw.quadrature import graded_edges, legendre_rule, midpoint_rule

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
