import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

from maxwelldg.quadrature import (
    MAX_EXACTNESS,
    _gauss_jacobi_10,
    segment_rule,
    triangle_rule,
)


def tri_monomial_integral(a, b):
    """int over the reference triangle of x^a y^b, in closed form."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


class TestSegment:
    @pytest.mark.parametrize("degree", range(0, MAX_EXACTNESS + 1))
    def test_monomial_exactness(self, degree):
        rule = segment_rule(degree)
        for k in range(degree + 1):
            val = np.sum(rule.weights * rule.points ** k)
            assert val == pytest.approx(1.0 / (k + 1), rel=1e-14)

    def test_points_inside(self):
        rule = segment_rule(11)
        assert np.all((rule.points > 0) & (rule.points < 1))
        assert np.all(rule.weights > 0)

    def test_total_weight(self):
        assert segment_rule(7).weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            segment_rule(MAX_EXACTNESS + 1)
        with pytest.raises(ValueError):
            segment_rule(-1)

    def test_cached_arrays_frozen(self):
        rule = segment_rule(5)
        with pytest.raises(ValueError):
            rule.points[0] = 0.5


class TestTriangle:
    @pytest.mark.parametrize("degree", range(0, MAX_EXACTNESS + 1))
    def test_monomial_exactness(self, degree):
        rule = triangle_rule(degree)
        x, y = rule.points[:, 0], rule.points[:, 1]
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                val = np.sum(rule.weights * x ** a * y ** b)
                assert val == pytest.approx(tri_monomial_integral(a, b),
                                            rel=1e-13, abs=1e-16)

    def test_points_inside(self):
        rule = triangle_rule(12)
        x, y = rule.points[:, 0], rule.points[:, 1]
        assert np.all((x >= 0) & (y >= 0) & (x + y <= 1 + 1e-15))
        assert np.all(rule.weights > 0)

    def test_total_weight_is_area(self):
        assert triangle_rule(9).weights.sum() == pytest.approx(0.5, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(degree=st.integers(2, 10), data=st.data())
    def test_random_polynomial(self, degree, data):
        coeff = {}
        exact = 0.0
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                c = data.draw(st.floats(-5, 5))
                coeff[(a, b)] = c
                exact += c * tri_monomial_integral(a, b)
        rule = triangle_rule(degree)
        x, y = rule.points[:, 0], rule.points[:, 1]
        val = sum(c * np.sum(rule.weights * x ** a * y ** b)
                  for (a, b), c in coeff.items())
        assert val == pytest.approx(exact, rel=1e-12, abs=1e-12)


class TestGaussJacobi:
    """The Golub-Welsch rule for the weight 1 - t against scipy's, at every
    point count that triangle_rule reaches."""

    @pytest.mark.parametrize("n", range(1, MAX_EXACTNESS // 2 + 2))
    def test_matches_scipy(self, n):
        nodes, weights = _gauss_jacobi_10(n)
        expect_nodes, expect_weights = roots_jacobi(n, 1.0, 0.0)
        assert np.abs(nodes - expect_nodes).max() <= 1e-14
        assert np.abs(weights - expect_weights).max() <= 1e-14

    @pytest.mark.parametrize("degree", range(0, MAX_EXACTNESS + 1))
    def test_product_is_the_double_loop(self, degree):
        """The outer-product rule is bitwise the rule of the double loop,
        point i * n + j pairing Gauss-Legendre node i with Gauss-Jacobi
        node j."""
        n = degree // 2 + 1
        ga, wa = np.polynomial.legendre.leggauss(n)
        ga, wa = 0.5 * (ga + 1.0), 0.5 * wa
        gb, wb = _gauss_jacobi_10(n)
        gb, wb = 0.5 * (gb + 1.0), 0.25 * wb
        pts = np.empty((n * n, 2))
        wts = np.empty(n * n)
        for i in range(n):
            for j in range(n):
                pts[i * n + j] = ga[i] * (1.0 - gb[j]), gb[j]
                wts[i * n + j] = wa[i] * wb[j]
        rule = triangle_rule(degree)
        assert np.array_equal(rule.points, pts)
        assert np.array_equal(rule.weights, wts)
