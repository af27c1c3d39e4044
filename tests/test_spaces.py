import numpy as np
import pytest

from maxwelldg.assembly import Discretization
from maxwelldg.basis import face_modes
from maxwelldg.materials import Coefficients
from maxwelldg.quadrature import segment_rule, triangle_rule
from maxwelldg.spaces import Spaces

import reference_assembly as refasm


def monomial_exponents(degree):
    return [(d - q, q) for d in range(degree + 1) for q in range(d + 1)]


def poly_fit(pts, vals, degree):
    expo = monomial_exponents(degree)
    vand = np.column_stack([pts[:, 0] ** p * pts[:, 1] ** q for p, q in expo])
    coeff = np.linalg.lstsq(vand, vals, rcond=None)[0]
    return expo, coeff


def poly_grad(expo, coeff, pts):
    out = np.zeros((len(pts), coeff.shape[1], 2))
    for (p, q), c in zip(expo, coeff):
        if p > 0:
            out[:, :, 0] += np.outer(p * pts[:, 0] ** (p - 1) * pts[:, 1] ** q, c)
        if q > 0:
            out[:, :, 1] += np.outer(q * pts[:, 0] ** p * pts[:, 1] ** (q - 1), c)
    return out


def in_space_vector(degree):
    """Global field whose restriction to any triangle is in the local space."""
    if degree == 1:
        return lambda x, y: np.stack(
            [2.0 - 0.7 * y + 0.0 * x, -1.0 + 0.7 * x + 0.0 * y], axis=-1)
    return lambda x, y: np.stack(
        [1.0 + 0.5 * x - y - (0.3 * x + 0.2 * y) * y,
         -2.0 + x + 0.25 * y + (0.3 * x + 0.2 * y) * x], axis=-1)


def in_space_scalar(degree):
    if degree == 1:
        return lambda x, y: 1.0 + 2.0 * x - 3.0 * y
    return lambda x, y: 1.0 + 2.0 * x - 3.0 * y + x * x - x * y + 0.5 * y * y


@pytest.fixture
def spaces(square2, degree):
    return Spaces(square2, degree)


class TestDimensions:
    def test_counts(self, spaces, degree):
        ne = spaces.mesh.num_elements
        nf = spaces.mesh.num_faces
        assert spaces.ndof_v == degree * (degree + 2)
        assert spaces.ndof_q == (degree + 1) * (degree + 2) // 2
        assert spaces.ndof_m == 2 * (degree + 1)
        assert spaces.dim_V == ne * spaces.ndof_v
        assert spaces.dim_Q == ne * spaces.ndof_q
        assert spaces.dim_M == nf * spaces.ndof_m

    def test_degree_guard(self, square2):
        with pytest.raises(ValueError):
            Spaces(square2, 0)
        with pytest.raises(ValueError):
            Spaces(square2, 3)


class TestGeometry:
    def test_ref_phys_round_trip(self, spaces):
        pts = triangle_rule(5).points
        phys = spaces.phys_points(pts)
        for e in range(spaces.mesh.num_elements):
            back = spaces.ref_coords(e, phys[e])
            assert np.abs(back - pts).max() < 1e-13

    def test_jacobian_determinant_is_twice_area(self, spaces):
        areas = refasm.element_areas(spaces.mesh)
        assert np.abs(spaces.det_jac - 2 * areas).max() < 1e-14


class TestEvaluation:
    def test_piola_curl(self, spaces, degree):
        # fit the physical components, differentiate the fit
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(spaces.dim_V)
        rule = triangle_rule(10)
        vals = spaces.eval_v(coeffs, rule.points)
        curls = spaces.eval_v_curl(coeffs, rule.points)
        for e in (0, spaces.mesh.num_elements - 1):
            phys = spaces.phys_points(rule.points)[e]
            expo, cf = poly_fit(phys, vals[e], degree)
            g = poly_grad(expo, cf, phys)
            oracle = g[:, 1, 0] - g[:, 0, 1]
            assert np.abs(curls[e] - oracle).max() < 1e-9

    def test_grad_q(self, spaces, degree):
        rng = np.random.default_rng(4)
        coeffs = rng.standard_normal(spaces.dim_Q)
        rule = triangle_rule(10)
        vals = refasm.eval_q(spaces, coeffs, rule.points)
        grads = spaces.eval_q_grad(coeffs, rule.points)
        for e in (0, 1):
            phys = spaces.phys_points(rule.points)[e]
            expo, cf = poly_fit(phys, vals[e][:, None], degree)
            g = poly_grad(expo, cf, phys)
            assert np.abs(grads[e] - g[:, 0, :]).max() < 1e-10

    def test_lift_vector_layout(self, spaces):
        # component-minor layout: coeffs reshape to (ne, ndof_q, 2)
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal(2 * spaces.dim_Q)
        pts = triangle_rule(4).points
        vals = refasm.eval_lift_vector(spaces, coeffs, pts)
        comp0 = coeffs.reshape(-1, spaces.ndof_q, 2)[:, :, 0].ravel()
        scalar0 = refasm.eval_q(spaces, comp0, pts)
        assert np.abs(vals[:, :, 0] - scalar0).max() < 1e-14


class TestProjection:
    def test_project_v_exact(self, spaces, degree):
        func = in_space_vector(degree)
        coeffs = refasm.project_v(spaces, func)
        pts = triangle_rule(8).points
        phys = spaces.phys_points(pts)
        target = func(phys[..., 0], phys[..., 1])
        assert np.abs(spaces.eval_v(coeffs, pts) - target).max() < 1e-12

    def test_project_q_exact(self, spaces, degree):
        func = in_space_scalar(degree)
        coeffs = refasm.project_q(spaces, func)
        pts = triangle_rule(8).points
        phys = spaces.phys_points(pts)
        target = func(phys[..., 0], phys[..., 1])
        assert np.abs(refasm.eval_q(spaces, coeffs, pts) - target).max() < 1e-12

    def test_project_v_is_orthogonal_projection(self, spaces):
        # residual of a non-polynomial target is L^2-orthogonal to the space
        func = lambda x, y: np.stack([np.sin(x + y), np.cos(x - y)], axis=-1)
        coeffs = refasm.project_v(spaces, func, degree=16)
        rule = triangle_rule(16)
        phys = spaces.phys_points(rule.points)
        resid = spaces.eval_v(coeffs, rule.points) - func(phys[..., 0], phys[..., 1])
        ref = spaces.vbasis.eval(rule.points)
        mapped = np.einsum("edk,pnk->epnd", spaces.inv_jac_t, ref)
        inner = np.einsum("p,epnd,epd,e->en", rule.weights, mapped, resid,
                          spaces.det_jac)
        assert np.abs(inner).max() < 1e-12


class TestGradientMap:
    def test_matches_pointwise_gradient(self, spaces):
        rng = np.random.default_rng(6)
        qc = rng.standard_normal(spaces.dim_Q)
        gmap = spaces.gradient_map()
        vc = np.einsum("enj,ej->en", gmap,
                       qc.reshape(-1, spaces.ndof_q)).ravel()
        pts = triangle_rule(8).points
        assert np.abs(spaces.eval_v(vc, pts)
                      - spaces.eval_q_grad(qc, pts)).max() < 1e-11


class TestDofMoments:
    def test_edge_moments(self, spaces, degree):
        # independent quadrature of h * int (t . v) mode_m ds along each face
        mesh = spaces.mesh
        dmats = refasm.v_dof_matrices(spaces)
        rule = segment_rule(2 * degree + 6)
        modes = face_modes(degree - 1, rule.points)
        for e in (0, mesh.num_elements - 1):
            unit = np.zeros(spaces.dim_V)
            for n in range(spaces.ndof_v):
                unit[:] = 0.0
                unit[refasm.v_dofs(spaces, e)[n]] = 1.0
                for k in range(3):
                    f = int(mesh.element_faces[e, k])
                    phys = spaces.face_points(f, rule.points)
                    ref = spaces.ref_coords(e, phys)
                    tang = spaces.eval_v(unit, ref)[e] @ mesh.face_tangents[f]
                    h = mesh.face_lengths[f]
                    for m in range(degree):
                        oracle = h * np.sum(rule.weights * modes[:, m] * tang)
                        assert dmats[e][k * degree + m, n] == pytest.approx(
                            oracle, abs=1e-12)

    def test_unisolvent(self, spaces):
        dmats = refasm.v_dof_matrices(spaces)
        dinv = refasm.v_dof_inverses(spaces)
        eye = np.eye(spaces.ndof_v)
        for e in range(spaces.mesh.num_elements):
            assert np.abs(dmats[e] @ dinv[e] - eye).max() < 1e-10


class TestConformingSubspaces:
    def test_v_columns_have_no_tangential_jump(self, square2, degree):
        disc = Discretization(square2, degree, Coefficients())
        cmap = refasm.conforming_v_basis(disc.spaces)
        gap = np.abs(refasm.jump_t(disc) @ cmap.toarray()).max()
        assert gap < 1e-10

    def test_v_dimension(self, spaces, degree):
        mesh = spaces.mesh
        n_interior = int(np.sum(~mesh.boundary))
        n_int = spaces.ndof_v - 3 * degree
        cmap = refasm.conforming_v_basis(spaces)
        assert cmap.shape[1] == degree * n_interior + n_int * mesh.num_elements
        assert np.linalg.matrix_rank(cmap.toarray()) == cmap.shape[1]

    def test_q_continuity_and_boundary_trace(self, spaces):
        mesh = spaces.mesh
        cmap = spaces.conforming_q_basis()
        dense = cmap.toarray()
        s = np.linspace(0.1, 0.9, 5)
        for col in range(cmap.shape[1]):
            coeffs = dense[:, col]
            for f in range(mesh.num_faces):
                phys = spaces.face_points(f, s)
                ep, em = mesh.face_elements[f]
                vp = refasm.eval_q(spaces, coeffs,
                                   spaces.ref_coords(ep, phys))[ep]
                if em < 0:
                    assert np.abs(vp).max() < 1e-12
                else:
                    vm = refasm.eval_q(spaces, coeffs,
                                       spaces.ref_coords(em, phys))[em]
                    assert np.abs(vp - vm).max() < 1e-12

    def test_q_dimension(self, spaces, degree):
        mesh = spaces.mesh
        boundary_vertices = np.zeros(mesh.num_vertices, dtype=bool)
        for f in np.flatnonzero(mesh.boundary):
            boundary_vertices[mesh.faces[f]] = True
        expected = int(np.sum(~boundary_vertices))
        if degree == 2:
            expected += int(np.sum(~mesh.boundary))
        assert spaces.conforming_q_basis().shape[1] == expected

