import numpy as np
import pytest
from scipy.linalg import eigvalsh, solve

from maxwelldg.basis import face_modes
from maxwelldg.lifting import Lifting
from maxwelldg.quadrature import segment_rule, triangle_rule
from maxwelldg.spaces import Spaces

from conftest import random_spd
import reference_assembly as refasm


@pytest.fixture
def lifting(square2, degree):
    return Lifting(Spaces(square2, degree))


def volume_integral(spaces, vals_a, vals_b, wts, weight=None):
    """int of a*b over the mesh from elementwise reference-point values."""
    scale = spaces.det_jac if weight is None else spaces.det_jac * weight
    return np.einsum("p,ep,ep,e->", wts, vals_a, vals_b, scale)


def face_samples(spaces, coeffs, f, s, evaluate):
    """Per-side values of a broken field along face f."""
    phys = spaces.face_points(f, s)
    out = []
    for e in spaces.mesh.face_elements[f]:
        if e < 0:
            continue
        ref = spaces.ref_coords(int(e), phys)
        out.append(evaluate(spaces, coeffs, ref)[int(e)])
    return out


class TestScalarLifting:
    def test_defining_relation(self, lifting, degree):
        # (r_F eta, w) = int_F eta {{w}} for modal eta and random broken w
        sp = lifting.spaces
        mesh = sp.mesh
        nm = lifting.n_modes
        tri = triangle_rule(2 * degree + 2)
        seg = segment_rule(2 * degree + 6)
        modes = face_modes(degree, seg.points)
        rng = np.random.default_rng(11)
        for f in range(mesh.num_faces):
            h = mesh.face_lengths[f]
            for m in range(nm):
                data = np.zeros(refasm.dim_scalar_data(lifting))
                data[f * nm + m] = 1.0
                rvals = refasm.eval_q(sp, refasm.lift_scalar_matrix(lifting) @ data,
                                  tri.points)
                for _ in range(2):
                    w = rng.standard_normal(sp.dim_Q)
                    wvals = refasm.eval_q(sp, w, tri.points)
                    lhs = volume_integral(sp, rvals, wvals, tri.weights)
                    sides = face_samples(sp, w, f, seg.points, refasm.eval_q)
                    avg = np.mean(sides, axis=0)
                    rhs = h * np.sum(seg.weights * modes[:, m] * avg)
                    assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_support(self, lifting):
        sp = lifting.spaces
        mesh = sp.mesh
        nm = lifting.n_modes
        for f in (0, mesh.num_faces - 1):
            data = np.zeros(refasm.dim_scalar_data(lifting))
            data[f * nm] = 1.0
            r = (refasm.lift_scalar_matrix(lifting) @ data).reshape(-1, sp.ndof_q)
            adjacent = {int(e) for e in mesh.face_elements[f] if e >= 0}
            for e in range(mesh.num_elements):
                if e not in adjacent:
                    assert np.abs(r[e]).max() == 0.0

    def test_matches_dense_mass_solve(self, lifting, degree):
        # independent route: local mass by quadrature, solve per element
        sp = lifting.spaces
        mesh = sp.mesh
        nm = lifting.n_modes
        tri = triangle_rule(2 * degree)
        qv = sp.qbasis.eval(tri.points)
        ref_mass = np.einsum("p,pi,pj->ij", tri.weights, qv, qv)
        seg = segment_rule(2 * degree + 4)
        modes = face_modes(degree, seg.points)
        lift = refasm.lift_scalar_matrix(lifting)
        for f in range(mesh.num_faces):
            h = mesh.face_lengths[f]
            elems = [int(e) for e in mesh.face_elements[f] if e >= 0]
            avg = 1.0 if mesh.boundary[f] else 0.5
            phys = sp.face_points(f, seg.points)
            for m in range(nm):
                col = np.asarray(
                    lift[:, f * nm + m].todense()).ravel().reshape(-1, sp.ndof_q)
                for e in elems:
                    trace = sp.qbasis.eval(sp.ref_coords(e, phys))
                    rhs = avg * h * np.einsum(
                        "p,p,pi->i", seg.weights, modes[:, m], trace)
                    dense = solve(sp.det_jac[e] * ref_mass, rhs, assume_a="pos")
                    assert np.abs(col[e] - dense).max() < 1e-12


class TestVectorLifting:
    def test_defining_relation(self, lifting, degree):
        # (R_F lam, w) = int_F lam . {{w}} for broken vector w
        sp = lifting.spaces
        mesh = sp.mesh
        nm = lifting.n_modes
        tri = triangle_rule(2 * degree + 2)
        seg = segment_rule(2 * degree + 6)
        modes = face_modes(degree, seg.points)
        rng = np.random.default_rng(12)
        for f in range(mesh.num_faces):
            h = mesh.face_lengths[f]
            for m in range(nm):
                for c in range(2):
                    data = np.zeros(refasm.dim_vector_data(lifting))
                    data[f * 2 * nm + 2 * m + c] = 1.0
                    rvals = refasm.eval_lift_vector(sp,
                        refasm.lift_vector_matrix(lifting) @ data, tri.points)
                    w = rng.standard_normal(2 * sp.dim_Q)
                    wvals = refasm.eval_lift_vector(sp, w, tri.points)
                    lhs = sum(
                        volume_integral(sp, rvals[..., d], wvals[..., d],
                                        tri.weights) for d in range(2))
                    sides = face_samples(sp, w, f, seg.points,
                                         refasm.eval_lift_vector)
                    avg = np.mean(sides, axis=0)      # (np, 2)
                    rhs = h * np.sum(seg.weights * modes[:, m] * avg[:, c])
                    assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_component_decoupling(self, lifting):
        # lifting a pure component-c datum produces a pure component-c field
        sp = lifting.spaces
        nm = lifting.n_modes
        data = np.zeros(refasm.dim_vector_data(lifting))
        data[0 * 2 * nm + 2 * 0 + 1] = 1.0
        r = (refasm.lift_vector_matrix(lifting) @ data).reshape(-1, sp.ndof_q, 2)
        assert np.abs(r[:, :, 0]).max() == 0.0
        assert np.abs(r[:, :, 1]).max() > 0.0


class TestJumpMaps:
    def test_tangential_jump(self, lifting, degree):
        # modal coefficients of n+ x u+ - n+ x u- in the unit parameter
        sp = lifting.spaces
        mesh = sp.mesh
        nm = lifting.n_modes
        seg = segment_rule(2 * degree + 6)
        modes = face_modes(degree, seg.points)
        rng = np.random.default_rng(13)
        u = rng.standard_normal(sp.dim_V)
        data = refasm.jump_tangential(lifting) @ u
        for f in range(mesh.num_faces):
            n = mesh.face_normals[f]
            sides = face_samples(sp, u, f, seg.points, Spaces.eval_v)
            cross = [n[0] * v[:, 1] - n[1] * v[:, 0] for v in sides]
            jump = cross[0] if len(cross) == 1 else cross[0] - cross[1]
            for m in range(nm):
                oracle = np.sum(seg.weights * modes[:, m] * jump)
                assert data[f * nm + m] == pytest.approx(oracle, abs=1e-12)

    def test_normal_jump(self, lifting, degree):
        # vector-valued jump [q n]: n (q+ - q-), q n on the boundary
        sp = lifting.spaces
        mesh = sp.mesh
        nm = lifting.n_modes
        seg = segment_rule(2 * degree + 6)
        modes = face_modes(degree, seg.points)
        rng = np.random.default_rng(14)
        q = rng.standard_normal(sp.dim_Q)
        data = refasm.jump_normal(lifting) @ q
        for f in range(mesh.num_faces):
            n = mesh.face_normals[f]
            sides = face_samples(sp, q, f, seg.points, refasm.eval_q)
            jump = sides[0] if len(sides) == 1 else sides[0] - sides[1]
            for m in range(nm):
                for c in range(2):
                    oracle = n[c] * np.sum(seg.weights * modes[:, m] * jump)
                    assert data[f * 2 * nm + 2 * m + c] == pytest.approx(
                        oracle, abs=1e-12)


class TestFaceGrams:
    def test_scalar_brute_force(self, lifting, degree):
        sp = lifting.spaces
        mesh = sp.mesh
        nm = lifting.n_modes
        rng = np.random.default_rng(15)
        weight = rng.uniform(0.5, 2.0, mesh.num_elements)
        grams = lifting.face_grams_scalar(weight)
        tri = triangle_rule(2 * degree + 2)
        for f in (0, mesh.num_faces // 2, mesh.num_faces - 1):
            fields = []
            for m in range(nm):
                data = np.zeros(refasm.dim_scalar_data(lifting))
                data[f * nm + m] = 1.0
                fields.append(refasm.eval_q(sp,
                    refasm.lift_scalar_matrix(lifting) @ data, tri.points))
            for i in range(nm):
                for j in range(nm):
                    oracle = volume_integral(sp, fields[i], fields[j],
                                             tri.weights, weight)
                    assert grams[f][i, j] == pytest.approx(
                        oracle, rel=1e-12, abs=1e-12)

    def test_vector_brute_force(self, lifting, degree):
        sp = lifting.spaces
        mesh = sp.mesh
        nm = lifting.n_modes
        rng = np.random.default_rng(16)
        eps = np.stack([random_spd(rng) for _ in range(mesh.num_elements)])
        grams = lifting.face_grams_vector(eps)
        tri = triangle_rule(2 * degree + 2)
        for f in (0, mesh.num_faces - 1):
            fields = []
            for m in range(nm):
                for c in range(2):
                    data = np.zeros(refasm.dim_vector_data(lifting))
                    data[f * 2 * nm + 2 * m + c] = 1.0
                    fields.append(refasm.eval_lift_vector(sp,
                        refasm.lift_vector_matrix(lifting) @ data, tri.points))
            for i in range(2 * nm):
                for j in range(2 * nm):
                    weighted = np.einsum("ecd,epd->epc", eps, fields[j])
                    oracle = sum(
                        volume_integral(sp, fields[i][..., d],
                                        weighted[..., d], tri.weights)
                        for d in range(2))
                    assert grams[f][i, j] == pytest.approx(
                        oracle, rel=1e-12, abs=1e-12)


class TestPairings:
    def test_curl_pair(self, lifting, degree):
        # row (f, m) against u: int r_F(mode_m) * weight * curl u
        sp = lifting.spaces
        mesh = sp.mesh
        nm = lifting.n_modes
        rng = np.random.default_rng(17)
        weight = rng.uniform(0.5, 2.0, mesh.num_elements)
        u = rng.standard_normal(sp.dim_V)
        pairing = refasm.curl_pair(lifting, weight) @ u
        tri = triangle_rule(2 * degree + 2)
        curls = sp.eval_v_curl(u, tri.points)
        for f in range(0, mesh.num_faces, 3):
            for m in range(nm):
                data = np.zeros(refasm.dim_scalar_data(lifting))
                data[f * nm + m] = 1.0
                rvals = refasm.eval_q(sp,
                    refasm.lift_scalar_matrix(lifting) @ data, tri.points)
                oracle = volume_integral(sp, rvals, curls, tri.weights, weight)
                assert pairing[f * nm + m] == pytest.approx(oracle, abs=1e-12)

    def test_vector_value_pair(self, lifting, degree):
        # row (f, m, c) against u: int (eps u) . R_F(mode_m e_c)
        sp = lifting.spaces
        mesh = sp.mesh
        nm = lifting.n_modes
        rng = np.random.default_rng(18)
        eps = np.stack([random_spd(rng) for _ in range(mesh.num_elements)])
        u = rng.standard_normal(sp.dim_V)
        pairing = refasm.vector_value_pair(lifting, eps) @ u
        tri = triangle_rule(2 * degree + 2)
        uvals = sp.eval_v(u, tri.points)
        weighted = np.einsum("ecd,epd->epc", eps, uvals)
        for f in range(0, mesh.num_faces, 3):
            for m in range(nm):
                for c in range(2):
                    data = np.zeros(refasm.dim_vector_data(lifting))
                    data[f * 2 * nm + 2 * m + c] = 1.0
                    rvals = refasm.eval_lift_vector(sp,
                        refasm.lift_vector_matrix(lifting) @ data, tri.points)
                    oracle = sum(
                        volume_integral(sp, weighted[..., d], rvals[..., d],
                                        tri.weights) for d in range(2))
                    assert pairing[f * 2 * nm + 2 * m + c] == pytest.approx(
                        oracle, abs=1e-12)


class TestFaceData:
    def test_project_scalar_polynomial(self, lifting):
        sp = lifting.spaces
        func = lambda x, y: 0.3 + x - 2.0 * y
        data = refasm.project_scalar_data(lifting, func)
        s = np.linspace(0.0, 1.0, 7)
        modes = face_modes(sp.degree, s)
        for f in range(sp.mesh.num_faces):
            phys = sp.face_points(f, s)
            recon = modes @ data[refasm.scalar_data_dofs(lifting, f)]
            assert np.abs(recon - func(phys[:, 0], phys[:, 1])).max() < 1e-13

    def test_project_boundary_only(self, lifting):
        sp = lifting.spaces
        data = refasm.project_scalar_data(lifting, lambda x, y: 1.0 + 0.0 * x,
                                           boundary_only=True)
        for f in range(sp.mesh.num_faces):
            block = data[refasm.scalar_data_dofs(lifting, f)]
            if sp.mesh.boundary[f]:
                assert np.abs(block).max() > 0.5
            else:
                assert np.abs(block).max() == 0.0

    def test_tangential_boundary_linear_field(self, lifting):
        sp = lifting.spaces
        func = lambda x, y: np.stack(
            [1.0 + 0.5 * y + 0.0 * x, -2.0 + x + 0.0 * y], axis=-1)
        data = lifting.tangential_boundary_data(func)
        s = np.linspace(0.0, 1.0, 5)
        modes = face_modes(sp.degree, s)
        for f in range(sp.mesh.num_faces):
            block = data[refasm.scalar_data_dofs(lifting, f)]
            if not sp.mesh.boundary[f]:
                assert np.abs(block).max() == 0.0
                continue
            n = sp.mesh.face_normals[f]
            phys = sp.face_points(f, s)
            vals = func(phys[:, 0], phys[:, 1])
            cross = n[0] * vals[:, 1] - n[1] * vals[:, 0]
            assert np.abs(modes @ block - cross).max() < 1e-13

    def test_tangential_boundary_sine_vanishes(self, lifting):
        data = lifting.tangential_boundary_data(
            lambda x, y: np.stack([np.sin(np.pi * y), np.sin(np.pi * x)],
                                  axis=-1))
        assert np.abs(data).max() < 1e-13


class TestStability:
    def test_constants_positive(self, lifting):
        c1, c2 = lifting.stability_constants()
        assert np.all(c1 > 0)
        assert np.all(c2 >= c1)

    def test_constants_match_dense_route(self, lifting, degree):
        # rebuild the extreme quotients from quadrature mass matrices
        sp = lifting.spaces
        mesh = sp.mesh
        njump = degree
        tri = triangle_rule(2 * degree)
        qv = sp.qbasis.eval(tri.points)
        ref_mass = np.einsum("p,pi,pj->ij", tri.weights, qv, qv)
        seg = segment_rule(2 * degree + 4)
        modes = face_modes(degree, seg.points)
        c1, c2 = lifting.stability_constants()
        for f in range(mesh.num_faces):
            h = mesh.face_lengths[f]
            elems = [int(e) for e in mesh.face_elements[f] if e >= 0]
            avg = 1.0 if mesh.boundary[f] else 0.5
            phys = sp.face_points(f, seg.points)
            lifted = {e: np.zeros((njump, sp.ndof_q)) for e in elems}
            for e in elems:
                trace = sp.qbasis.eval(sp.ref_coords(e, phys))
                mass = sp.det_jac[e] * ref_mass
                for m in range(njump):
                    rhs = avg * h * np.einsum(
                        "p,p,pi->i", seg.weights, modes[:, m], trace)
                    lifted[e][m] = solve(mass, rhs, assume_a="pos")
            gram = np.zeros((njump, njump))
            for e in elems:
                gram += lifted[e] @ (sp.det_jac[e] * ref_mass) @ lifted[e].T
            ev = eigvalsh(gram)
            assert np.sqrt(max(ev[0], 0.0)) == pytest.approx(c1[f], abs=1e-9)
            assert np.sqrt(ev[-1]) == pytest.approx(c2[f], abs=1e-9)
