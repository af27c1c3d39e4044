import numpy as np
import pytest
from numpy.polynomial import legendre as npleg
from scipy.special import eval_legendre

from maxwelldg.basis import (
    CurlBasis,
    ScalarBasis,
    face_modes,
)
from maxwelldg.quadrature import segment_rule, triangle_rule


def monomial_exponents(degree):
    return [(d - q, q) for d in range(degree + 1) for q in range(d + 1)]


def poly_fit(pts, vals, degree):
    """Monomial coefficients of sampled polynomials, one column per function."""
    expo = monomial_exponents(degree)
    vand = np.column_stack([pts[:, 0] ** p * pts[:, 1] ** q for p, q in expo])
    coeff = np.linalg.lstsq(vand, vals, rcond=None)[0]
    return expo, coeff


def poly_grad(expo, coeff, pts):
    """Gradients of fitted polynomials, shape (npts, nfun, 2)."""
    out = np.zeros((len(pts), coeff.shape[1], 2))
    for (p, q), c in zip(expo, coeff):
        if p > 0:
            out[:, :, 0] += np.outer(p * pts[:, 0] ** (p - 1) * pts[:, 1] ** q, c)
        if q > 0:
            out[:, :, 1] += np.outer(q * pts[:, 0] ** p * pts[:, 1] ** (q - 1), c)
    return out


@pytest.fixture
def tri_pts():
    return triangle_rule(12).points


class TestScalarBasis:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_dimension(self, degree):
        assert ScalarBasis(degree).dim == (degree + 1) * (degree + 2) // 2

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_orthonormal(self, degree):
        basis = ScalarBasis(degree)
        rule = triangle_rule(2 * degree)
        vals = basis.eval(rule.points)
        gram = np.einsum("p,pi,pj->ij", rule.weights, vals, vals)
        # monomial Gram conditioning grows with degree; 1e-12 covers degree 3
        assert np.abs(gram - np.eye(basis.dim)).max() < 1e-12

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_spans_monomials(self, degree, tri_pts):
        # every monomial of degree <= m is reproduced by L^2 projection
        basis = ScalarBasis(degree)
        rule = triangle_rule(2 * degree)
        vals_q = basis.eval(rule.points)
        vals_t = basis.eval(tri_pts)
        for a, b in monomial_exponents(degree):
            mono_q = rule.points[:, 0] ** a * rule.points[:, 1] ** b
            proj = np.einsum("p,p,pi->i", rule.weights, mono_q, vals_q)
            mono_t = tri_pts[:, 0] ** a * tri_pts[:, 1] ** b
            assert np.abs(vals_t @ proj - mono_t).max() < 1e-12

    def test_hierarchical(self, tri_pts):
        lo = ScalarBasis(1).eval(tri_pts)
        hi = ScalarBasis(2).eval(tri_pts)
        assert np.abs(hi[:, : lo.shape[1]] - lo).max() < 1e-14

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_grad(self, degree, tri_pts):
        basis = ScalarBasis(degree)
        expo, coeff = poly_fit(tri_pts, basis.eval(tri_pts), degree)
        check = triangle_rule(7).points
        assert np.abs(basis.grad(check) - poly_grad(expo, coeff, check)).max() < 1e-11

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            ScalarBasis(-1)


EDGES = [
    ((0.0, 0.0), (1.0, 0.0)),
    ((1.0, 0.0), (0.0, 1.0)),
    ((0.0, 0.0), (0.0, 1.0)),
]


class TestCurlBasis:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_dimension(self, degree):
        basis = CurlBasis(degree)
        assert basis.dim == degree * (degree + 2)
        assert basis.eval(triangle_rule(2).points).shape[1] == basis.dim

    @pytest.mark.parametrize("degree", [1, 2])
    def test_linearly_independent(self, degree):
        basis = CurlBasis(degree)
        rule = triangle_rule(2 * degree)
        vals = basis.eval(rule.points)
        gram = np.einsum("p,pic,pjc->ij", rule.weights, vals, vals)
        assert np.linalg.matrix_rank(gram, tol=1e-10) == basis.dim

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_curl(self, degree, tri_pts):
        # fit each Cartesian component, differentiate the fit
        basis = CurlBasis(degree)
        vals = basis.eval(tri_pts)
        expo, c1 = poly_fit(tri_pts, vals[:, :, 0], degree)
        _, c2 = poly_fit(tri_pts, vals[:, :, 1], degree)
        check = triangle_rule(7).points
        g1 = poly_grad(expo, c1, check)
        g2 = poly_grad(expo, c2, check)
        oracle = g2[:, :, 0] - g1[:, :, 1]
        assert np.abs(basis.curl(check) - oracle).max() < 1e-11

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("edge", EDGES)
    def test_tangential_trace_degree(self, degree, edge):
        # t . v restricted to any straight edge lies in P_{degree-1}(edge)
        a, b = np.asarray(edge[0]), np.asarray(edge[1])
        tangent = (b - a) / np.linalg.norm(b - a)
        s = np.linspace(0.0, 1.0, 24)
        pts = a[None, :] + np.outer(s, b - a)
        trace = CurlBasis(degree).eval(pts) @ tangent
        for k in range(trace.shape[1]):
            coeff = np.polynomial.polynomial.polyfit(s, trace[:, k], degree - 1)
            fit = np.polynomial.polynomial.polyval(s, coeff)
            assert np.abs(fit - trace[:, k]).max() < 1e-10

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_contains_scalar_gradients(self, degree, tri_pts):
        # grad P_degree is a subspace: each gradient fits exactly
        grads = ScalarBasis(degree).grad(tri_pts)
        vals = CurlBasis(degree).eval(tri_pts)
        design = np.vstack([vals[:, :, 0], vals[:, :, 1]])
        for k in range(grads.shape[1]):
            rhs = np.concatenate([grads[:, k, 0], grads[:, k, 1]])
            sol = np.linalg.lstsq(design, rhs, rcond=None)[0]
            assert np.abs(design @ sol - rhs).max() < 1e-10

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            CurlBasis(0)


class TestFaceModes:
    @pytest.mark.parametrize("degree", [0, 1, 2, 5])
    def test_orthonormal(self, degree):
        rule = segment_rule(2 * degree)
        vals = face_modes(degree, rule.points)
        gram = np.einsum("p,pi,pj->ij", rule.weights, vals, vals)
        assert np.abs(gram - np.eye(degree + 1)).max() < 1e-13

    @pytest.mark.parametrize("degree", [0, 1, 3, 6])
    def test_matches_legendre(self, degree):
        s = np.linspace(0.0, 1.0, 17)
        vals = face_modes(degree, s)
        for m in range(degree + 1):
            unit = np.zeros(m + 1)
            unit[m] = 1.0
            oracle = np.sqrt(2 * m + 1) * npleg.legval(2.0 * s - 1.0, unit)
            assert np.abs(vals[:, m] - oracle).max() < 1e-13

    # the degrees of the face data: 0 to 2, for degree-1 and -2 spaces
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_matches_scipy_legendre(self, degree):
        s = np.concatenate([np.linspace(0.0, 1.0, 33),
                            segment_rule(2 * degree + 8).points])
        vals = face_modes(degree, s)
        for m in range(degree + 1):
            oracle = np.sqrt(2 * m + 1) * eval_legendre(m, 2.0 * s - 1.0)
            assert np.abs(vals[:, m] - oracle).max() <= 1e-14
