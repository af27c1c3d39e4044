import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from maxwelldg.assembly import Discretization
from maxwelldg.materials import Coefficients
from maxwelldg.quadrature import segment_rule, triangle_rule
from maxwelldg.spaces import element_block_diag

from conftest import random_materials, two_tag_mesh
from reference_lifting import assemble_a_face_integral, assemble_b_face_integral


def rel_frobenius(a, b):
    diff = np.sqrt(((a - b).power(2)).sum())
    scale = np.sqrt((a.power(2)).sum())
    return diff / scale


def quad_volume(disc, integrand_efn, degree=None):
    """Integrate an elementwise callable ref_pts -> (ne, np) over the mesh."""
    sp = disc.spaces
    rule = triangle_rule(sp.deg_stiff if degree is None else degree)
    vals = integrand_efn(rule.points)
    return np.einsum("p,ep,e->", rule.weights, vals, sp.det_jac)


def lifted_scalar_energy(disc, data, weight):
    """Sum over faces of int weight * r_F(data_F)^2 dx, by quadrature."""
    sp = disc.spaces
    lifting = disc.lifting
    nm = lifting.n_modes
    rule = triangle_rule(sp.deg_stiff)
    total = 0.0
    for f in range(disc.mesh.num_faces):
        d = np.zeros(lifting.dim_scalar_data)
        d[f * nm:(f + 1) * nm] = data[f * nm:(f + 1) * nm]
        rv = sp.eval_lift_scalar(lifting.lift_scalar(d).coeffs, rule.points)
        total += np.einsum("p,ep,ep,e->", rule.weights, rv, rv,
                           sp.det_jac * weight)
    return total


def lifted_vector_energy(disc, data, eps):
    """Sum over faces of int (eps R_F(data_F)) . R_F(data_F) dx."""
    sp = disc.spaces
    lifting = disc.lifting
    nm = lifting.n_modes
    rule = triangle_rule(sp.deg_stiff)
    total = 0.0
    for f in range(disc.mesh.num_faces):
        d = np.zeros(lifting.dim_vector_data)
        d[f * 2 * nm:(f + 1) * 2 * nm] = data[f * 2 * nm:(f + 1) * 2 * nm]
        rv = sp.eval_lift_vector(lifting.lift_vector(d).coeffs, rule.points)
        weighted = np.einsum("ecd,epd->epc", eps, rv)
        total += sum(np.einsum("p,ep,ep,e->", rule.weights, rv[..., c],
                               weighted[..., c], sp.det_jac) for c in range(2))
    return total


class TestTwoPathAgreement:
    """Lifted forms against the face-integral oracles of reference_lifting."""

    def test_vacuum(self, disc2):
        other = assemble_a_face_integral(disc2)
        assert rel_frobenius(disc2.a_matrix, other) < 1e-12

    @pytest.mark.parametrize("degree", [1, 2])
    def test_heterogeneous(self, degree):
        disc = Discretization(two_tag_mesh(), degree, random_materials(7))
        other = assemble_a_face_integral(disc)
        assert rel_frobenius(disc.a_matrix, other) < 1e-12

    def test_b_crosscheck_heterogeneous(self, degree):
        disc = Discretization(two_tag_mesh(), degree, random_materials(8))
        other = assemble_b_face_integral(disc)
        assert disc.b_matrix.shape == (disc.spaces.dim_Q, disc.spaces.dim_V)
        assert rel_frobenius(disc.b_matrix, other) < 1e-12


class TestVolumeOperators:
    def test_curl_stiffness(self, disc2):
        rng = np.random.default_rng(21)
        u = rng.standard_normal(disc2.spaces.dim_V)
        mbi = disc2.materials.mu_bar_inv
        oracle = quad_volume(disc2, lambda pts: mbi[:, None]
                             * disc2.spaces.eval_v_curl(u, pts) ** 2)
        assert u @ (disc2.curl_stiffness @ u) == pytest.approx(oracle, rel=1e-12)

    def test_mass_eps(self, degree):
        disc = Discretization(two_tag_mesh(), degree, random_materials(9))
        rng = np.random.default_rng(22)
        u = rng.standard_normal(disc.spaces.dim_V)

        def integrand(pts):
            vals = disc.spaces.eval_v(u, pts)
            weighted = np.einsum("ecd,epd->epc", disc.materials.eps, vals)
            return np.einsum("epc,epc->ep", vals, weighted)

        oracle = quad_volume(disc, integrand)
        assert u @ (disc.mass_eps @ u) == pytest.approx(oracle, rel=1e-12)

    def test_mass_plain_identity_weight(self, disc2):
        rng = np.random.default_rng(23)
        u = rng.standard_normal(disc2.spaces.dim_V)
        oracle = quad_volume(disc2, lambda pts: np.einsum(
            "epc,epc->ep", disc2.spaces.eval_v(u, pts),
            disc2.spaces.eval_v(u, pts)))
        assert u @ (disc2.mass_plain @ u) == pytest.approx(oracle, rel=1e-12)

    def test_mass_q(self, disc2):
        rng = np.random.default_rng(24)
        q = rng.standard_normal(disc2.spaces.dim_Q)
        oracle = quad_volume(disc2, lambda pts: disc2.spaces.eval_q(q, pts) ** 2)
        assert q @ (disc2.mass_q @ q) == pytest.approx(oracle, rel=1e-12)

    def test_grad_pair(self, degree):
        disc = Discretization(two_tag_mesh(), degree, random_materials(10))
        rng = np.random.default_rng(25)
        u = rng.standard_normal(disc.spaces.dim_V)
        q = rng.standard_normal(disc.spaces.dim_Q)

        def integrand(pts):
            vals = disc.spaces.eval_v(u, pts)
            grads = disc.spaces.eval_q_grad(q, pts)
            weighted = np.einsum("ecd,epd->epc", disc.materials.eps, vals)
            return np.einsum("epc,epc->ep", weighted, grads)

        oracle = quad_volume(disc, integrand)
        assert u @ (disc.grad_pair @ q) == pytest.approx(oracle, rel=1e-12)

    def test_q_grad_gram(self, degree):
        disc = Discretization(two_tag_mesh(), degree, random_materials(11))
        rng = np.random.default_rng(26)
        q = rng.standard_normal(disc.spaces.dim_Q)

        def integrand(pts):
            grads = disc.spaces.eval_q_grad(q, pts)
            weighted = np.einsum("ecd,epd->epc", disc.materials.eps, grads)
            return np.einsum("epc,epc->ep", weighted, grads)

        oracle = quad_volume(disc, integrand)
        assert q @ (disc.q_grad_gram @ q) == pytest.approx(oracle, rel=1e-12)


class TestConstraintOperators:
    def test_b_constant_scalar(self, degree):
        # q = 1: volume term drops, only the boundary normal flux remains
        disc = Discretization(two_tag_mesh(), degree, random_materials(12))
        sp = disc.spaces
        one = sp.project_q(lambda x, y: np.ones_like(x))
        rng = np.random.default_rng(27)
        u = rng.standard_normal(sp.dim_V)
        seg = segment_rule(2 * degree + 6)
        oracle = 0.0
        for f in np.flatnonzero(disc.mesh.boundary):
            e = int(disc.mesh.face_elements[f, 0])
            n = disc.mesh.face_normals[f]
            h = disc.mesh.face_lengths[f]
            phys = sp.face_points(f, seg.points)
            vals = sp.eval_v(u, sp.ref_coords(e, phys))[e]
            flux = (disc.materials.eps[e] @ vals.T).T @ n
            oracle += h * np.sum(seg.weights * flux)
        assert one @ (disc.b_matrix @ u) == pytest.approx(oracle, rel=1e-11)

    def test_b_conforming_scalar(self, degree):
        # zero-trace continuous q: pure volume integral -(eps u) . grad q
        disc = Discretization(two_tag_mesh(4), degree, random_materials(13))
        sp = disc.spaces
        cmap = sp.conforming_q_basis()
        rng = np.random.default_rng(28)
        q = cmap.matrix @ rng.standard_normal(cmap.dim)
        u = rng.standard_normal(sp.dim_V)

        def integrand(pts):
            vals = sp.eval_v(u, pts)
            grads = sp.eval_q_grad(q, pts)
            weighted = np.einsum("ecd,epd->epc", disc.materials.eps, vals)
            return -np.einsum("epc,epc->ep", weighted, grads)

        oracle = quad_volume(disc, integrand)
        assert q @ (disc.b_matrix @ u) == pytest.approx(oracle, rel=1e-10)

    def test_c_matrix_identity(self, disc2):
        expected = disc2.jump_n.T @ disc2.gamma_gram @ disc2.jump_n
        assert rel_frobenius(disc2.c_matrix, csr(expected)) < 1e-14

    def test_b_lambda_identity(self, disc2):
        expected = -disc2.jump_n.T @ disc2.gamma_gram
        assert rel_frobenius(disc2.b_lambda, csr(expected)) < 1e-14

    def test_constraint_w_layout(self, disc2):
        sp = disc2.spaces
        cw = disc2.constraint_w
        assert cw.shape == (sp.dim_Q, sp.dim_V + sp.dim_M)
        assert rel_frobenius(csr(cw[:, :sp.dim_V]), disc2.b_matrix) < 1e-15
        assert rel_frobenius(csr(cw[:, sp.dim_V:]), disc2.b_lambda) < 1e-15


def csr(mat):
    return sparse.csr_matrix(mat)


class TestSymmetryAndSign:
    def test_a_symmetric(self, disc2):
        assert rel_frobenius(disc2.a_matrix, csr(disc2.a_matrix.T)) < 1e-13

    def test_c_symmetric_psd(self, disc2):
        c = disc2.c_matrix
        assert rel_frobenius(c, csr(c.T)) < 1e-13
        rng = np.random.default_rng(29)
        for _ in range(20):
            q = rng.standard_normal(c.shape[0])
            assert q @ (c @ q) >= -1e-12

    def test_primal_symmetric(self, disc2):
        sys = disc2.primal_system(1.0)
        assert rel_frobenius(sys, csr(sys.T)) < 1e-13

    def test_auxiliary_symmetric(self, disc2):
        sys = disc2.auxiliary_system(1.0)
        assert rel_frobenius(sys, csr(sys.T)) < 1e-13

    def test_norm_grams_positive(self, disc2):
        rng = np.random.default_rng(30)
        u = rng.standard_normal(disc2.spaces.dim_V)
        q = rng.standard_normal(disc2.spaces.dim_Q)
        m = rng.standard_normal(disc2.spaces.dim_M)
        assert disc2.norm_v(u) > 0
        assert disc2.norm_q(q) > 0
        assert disc2.norm_m(m) > 0
        assert disc2.seminorm_v(u) >= 0


class TestNorms:
    def test_seminorm_brute_force(self, disc2):
        rng = np.random.default_rng(31)
        u = rng.standard_normal(disc2.spaces.dim_V)
        curl_part = u @ (disc2.curl_stiffness @ u)
        jumps = disc2.jump_t @ u
        lift_part = lifted_scalar_energy(disc2, jumps,
                                         disc2.materials.mu_bar_inv)
        assert disc2.seminorm_v(u) ** 2 == pytest.approx(
            curl_part + lift_part, rel=1e-11)

    def test_norm_v_brute_force(self, disc2):
        rng = np.random.default_rng(32)
        u = rng.standard_normal(disc2.spaces.dim_V)
        assert disc2.norm_v(u) ** 2 == pytest.approx(
            disc2.seminorm_v(u) ** 2 + u @ (disc2.mass_eps @ u), rel=1e-12)

    def test_norm_q_brute_force(self, degree):
        disc = Discretization(two_tag_mesh(), degree, random_materials(14))
        rng = np.random.default_rng(33)
        q = rng.standard_normal(disc.spaces.dim_Q)
        grad_part = q @ (disc.q_grad_gram @ q)
        jumps = disc.jump_n @ q
        lift_part = lifted_vector_energy(disc, jumps, disc.materials.eps)
        assert disc.norm_q(q) ** 2 == pytest.approx(
            grad_part + lift_part, rel=1e-11)

    def test_norm_m_brute_force(self, disc2):
        rng = np.random.default_rng(34)
        lam = rng.standard_normal(disc2.spaces.dim_M)
        oracle = lifted_vector_energy(disc2, lam, disc2.materials.eps)
        assert disc2.norm_m(lam) ** 2 == pytest.approx(oracle, rel=1e-11)

    def test_norm_w_block_structure(self, disc2):
        sp = disc2.spaces
        rng = np.random.default_rng(35)
        w = rng.standard_normal(sp.dim_V + sp.dim_M)
        split = (disc2.norm_v(w[:sp.dim_V]) ** 2
                 + disc2.norm_m(w[sp.dim_V:]) ** 2)
        assert w @ (disc2.norm_w_gram @ w) == pytest.approx(split, rel=1e-12)


class TestCoercivity:
    def test_margin_at_default_alpha(self, disc4):
        rng = np.random.default_rng(36)
        sgram = disc4.seminorm_gram
        a = disc4.a_matrix
        for _ in range(100):
            u = rng.standard_normal(disc4.spaces.dim_V)
            s = u @ (sgram @ u)
            assert u @ (a @ u) - 0.5 * s >= -1e-10 * s

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1))
    def test_margin_property(self, disc2, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(disc2.spaces.dim_V)
        s = u @ (disc2.seminorm_gram @ u)
        assert u @ (disc2.a_matrix @ u) - 0.5 * s >= -1e-10 * s

    def test_continuity_rayleigh_stable(self, square2, square4):
        # sup a(u, u) / |u|^2 stays bounded under one refinement
        rng = np.random.default_rng(37)
        ratios = []
        for mesh in (square2, square4):
            disc = Discretization(mesh, 1)
            top = 0.0
            for _ in range(200):
                u = rng.standard_normal(disc.spaces.dim_V)
                top = max(top, abs(u @ (disc.a_matrix @ u))
                          / (u @ (disc.seminorm_gram @ u)))
            ratios.append(top)
        assert ratios[1] < 1.5 * ratios[0] + 1e-12


class TestLoads:
    def test_load_volume_polynomial(self, disc2, degree):
        # an in-space source makes the load exactly mass_plain @ coefficients
        sp = disc2.spaces
        if degree == 1:
            func = lambda x, y: np.stack(
                [2.0 - 0.7 * y + 0.0 * x, -1.0 + 0.7 * x + 0.0 * y], axis=-1)
        else:
            func = lambda x, y: np.stack(
                [1.0 + 0.5 * x - y - (0.3 * x + 0.2 * y) * y,
                 -2.0 + x + 0.25 * y + (0.3 * x + 0.2 * y) * x], axis=-1)
        coeffs = sp.project_v(func)
        load = disc2.load_volume(func)
        assert load.shape == (sp.dim_V + sp.dim_Q,)
        assert np.abs(load[sp.dim_V:]).max() == 0.0
        assert np.abs(load[:sp.dim_V]
                      - disc2.mass_plain @ coeffs).max() < 1e-12

    def test_load_boundary_zero_data(self, disc2):
        g = np.zeros(disc2.lifting.dim_scalar_data)
        assert np.abs(disc2.load_boundary(g)).max() == 0.0

    def test_load_boundary_linear(self, disc2):
        rng = np.random.default_rng(38)
        g1 = rng.standard_normal(disc2.lifting.dim_scalar_data)
        g2 = rng.standard_normal(disc2.lifting.dim_scalar_data)
        combined = disc2.load_boundary(g1 + 2.0 * g2)
        split = disc2.load_boundary(g1) + 2.0 * disc2.load_boundary(g2)
        assert np.abs(combined - split).max() < 1e-12


class TestPenaltyWeights:
    def test_per_face_alpha(self, square2):
        nf = square2.num_faces
        alpha = np.full(nf, 7.0)
        alpha[0] = 9.0
        disc = Discretization(square2, 1, alpha=alpha)
        assert disc.alpha[0] == 9.0
        assert disc.alpha[1] == 7.0

    def test_nonpositive_array_rejected(self, square2):
        with pytest.raises(ValueError):
            Discretization(square2, 1, alpha=0.0)


class TestBlockDiag:
    def test_matches_scipy(self):
        rng = np.random.default_rng(39)
        blocks = rng.standard_normal((5, 3, 4))
        mine = element_block_diag(blocks)
        oracle = sparse.block_diag(list(blocks), format="csr")
        assert rel_frobenius(mine, oracle) < 1e-15
