import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from maxwelldg.analysis import _constraint_w, _norm_w_gram
from maxwelldg.assembly import Discretization
from maxwelldg.materials import Coefficients
from maxwelldg.mesh import Mesh, unit_square
from maxwelldg.quadrature import segment_rule, triangle_rule
from maxwelldg.problems import gradient_null_data
from maxwelldg.solver import _constraint_gap, solve_mixed

from conftest import delaunay_mesh, random_materials, random_spd, two_tag_mesh
from reference_lifting import assemble_a_face_integral, assemble_b_face_integral
import reference_assembly as refasm

# the sparse Grams and jump maps that evaluating a norm does not build
NORM_OPERATORS = ("mass_eps", "lift_gram_vector", "seminorm_gram",
                  "norm_q_gram")


def rel_frobenius(a, b):
    diff = np.sqrt(((a - b).power(2)).sum())
    scale = np.sqrt((a.power(2)).sum())
    return diff / scale


def assert_grams_match_oracles(disc):
    """The norm Grams and the multiplier block, assembled from element and
    face blocks, against their sparse products."""
    for name in ("seminorm_gram", "norm_q_gram", "b_lambda"):
        oracle = getattr(refasm, name)(disc)
        assert rel_frobenius(oracle, csr(getattr(disc, name))) <= 1e-13, name


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
        d = np.zeros(refasm.dim_scalar_data(lifting))
        d[f * nm:(f + 1) * nm] = data[f * nm:(f + 1) * nm]
        rv = refasm.eval_q(sp, refasm.lift_scalar_matrix(lifting) @ d,
                           rule.points)
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
        d = np.zeros(refasm.dim_vector_data(lifting))
        d[f * 2 * nm:(f + 1) * 2 * nm] = data[f * 2 * nm:(f + 1) * 2 * nm]
        rv = refasm.eval_lift_vector(
            sp, refasm.lift_vector_matrix(lifting) @ d, rule.points)
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
        assert u @ (refasm.curl_stiffness(disc2) @ u) == pytest.approx(
            oracle, rel=1e-12)

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
        mass = refasm.element_block_diag(refasm.local_v_grams(disc2.spaces))
        assert u @ (mass @ u) == pytest.approx(oracle, rel=1e-12)

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
        assert u @ (refasm.grad_pair(disc) @ q) == pytest.approx(oracle, rel=1e-12)

    def test_q_grad_gram(self, degree):
        disc = Discretization(two_tag_mesh(), degree, random_materials(11))
        rng = np.random.default_rng(26)
        q = rng.standard_normal(disc.spaces.dim_Q)

        def integrand(pts):
            grads = disc.spaces.eval_q_grad(q, pts)
            weighted = np.einsum("ecd,epd->epc", disc.materials.eps, grads)
            return np.einsum("epc,epc->ep", weighted, grads)

        oracle = quad_volume(disc, integrand)
        assert q @ (refasm.q_grad_gram(disc) @ q) == pytest.approx(oracle, rel=1e-12)


class TestConstraintOperators:
    def test_b_constant_scalar(self, degree):
        # q = 1: volume term drops, only the boundary normal flux remains
        disc = Discretization(two_tag_mesh(), degree, random_materials(12))
        sp = disc.spaces
        one = refasm.project_q(sp, lambda x, y: np.ones_like(x))
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
        q = cmap @ rng.standard_normal(cmap.shape[1])
        u = rng.standard_normal(sp.dim_V)

        def integrand(pts):
            vals = sp.eval_v(u, pts)
            grads = sp.eval_q_grad(q, pts)
            weighted = np.einsum("ecd,epd->epc", disc.materials.eps, vals)
            return -np.einsum("epc,epc->ep", weighted, grads)

        oracle = quad_volume(disc, integrand)
        assert q @ (disc.b_matrix @ u) == pytest.approx(oracle, rel=1e-10)

    def test_c_matrix_identity(self, disc2):
        jn = refasm.jump_n(disc2)
        expected = jn.T @ (disc2.gamma * disc2.lift_gram_vector) @ jn
        assert rel_frobenius(disc2.c_matrix, csr(expected)) < 1e-14

    def test_b_lambda_identity(self, disc2):
        expected = -refasm.jump_n(disc2).T @ (disc2.gamma * disc2.lift_gram_vector)
        assert rel_frobenius(disc2.b_lambda, csr(expected)) < 1e-14

    def test_constraint_w_layout(self, disc2):
        sp = disc2.spaces
        cw = _constraint_w(disc2)
        assert cw.shape == (sp.dim_Q, sp.dim_V + sp.dim_M)
        assert rel_frobenius(csr(cw[:, :sp.dim_V]), disc2.b_matrix) < 1e-15
        assert rel_frobenius(csr(cw[:, sp.dim_V:]), disc2.b_lambda) < 1e-15


def csr(mat):
    return sparse.csr_matrix(mat)


class TestBlockAssembly:
    """The system assembled face by face into element blocks, and the
    (V, M, Q) system composed of the package's blocks, against the
    sparse-product route, and the primal system's fixed block pattern."""

    @pytest.mark.parametrize("multiplier", [False, True],
                             ids=["primal", "auxiliary"])
    def test_matches_sparse_products(self, degree, multiplier):
        rng = np.random.default_rng(17)
        base = unit_square(4)
        mesh = Mesh(base.vertices, base.elements,
                    rng.integers(0, 3, base.num_elements))
        coeffs = Coefficients(mu={t: random_spd(rng) for t in range(3)},
                              eps={t: random_spd(rng) for t in range(3)})
        for alpha, gamma in ((None, None), (rng.uniform(7.0, 9.0),
                                            rng.uniform(0.5, 2.0))):
            disc = Discretization(mesh, degree, coeffs, alpha=alpha,
                                  gamma=gamma)
            for ksq in (0.0, 1.3):
                gaps = refasm.system_gaps(disc, ksq, multiplier)
                assert max(gaps.values()) <= 1e-13, gaps

    def test_forms_are_their_element_blocks(self, degree):
        """Each form is a BSR array whose data are its element blocks, as
        scipy reads them back from its CSR copy."""
        disc = Discretization(two_tag_mesh(2), degree, random_materials(3))
        for form in (disc.a_matrix, disc.b_matrix, disc.c_matrix):
            assert isinstance(form, sparse.bsr_array)
            assert np.array_equal(form.data, refasm.form_blocks(disc, form))

    # the layout, named in the test ids
    @pytest.mark.parametrize("layout", ["primal"])
    def test_system_caches_no_form(self, degree, layout, monkeypatch):
        """A system builds the forms for itself and caches none of them,
        so a solve holds each element block once; where a reader cached
        a form, the system reads that copy.  Either way its blocks are
        the same bits."""
        mesh, coeffs = two_tag_mesh(3), random_materials(12)
        forms = ("a_matrix", "b_matrix", "c_matrix")

        fresh = Discretization(mesh, degree, coeffs)
        system = fresh.primal_system(0.9)
        assert not set(forms) & set(vars(fresh))
        cached = Discretization(mesh, degree, coeffs)
        for name in forms:
            getattr(cached, name)
            # a form built again would call None
            monkeypatch.setattr(getattr(Discretization, name), "func", None)
        again = cached.primal_system(0.9)
        for key in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(again, key), getattr(system, key))

    def test_system_nnz_is_structural(self, degree):
        # one dense block per element and two per interior face, whatever
        # the wavenumber and the materials
        mesh = two_tag_mesh(4)
        nb = {1: 6, 2: 14}[degree]
        expect = (mesh.num_elements + 2 * (~mesh.boundary).sum()) * nb * nb
        for coeffs in (random_materials(5), random_materials(6)):
            disc = Discretization(mesh, degree, coeffs)
            for ksq in (0.0, 1.0, 2.5):
                assert disc.primal_system(ksq).nnz == expect

    def test_system_nnz_square32(self):
        assert Discretization(unit_square(32), 2).primal_system(1.0).nnz == (
            1_580_544)

    def test_constraint_gap_definition(self, disc2):
        # ||B u - C p|| / (||B||_F ||u|| + ||C||_F ||p||), read from the
        # blocks of the primal system
        rng = np.random.default_rng(8)
        sp = disc2.spaces
        u, p = rng.standard_normal(sp.dim_V), rng.standard_normal(sp.dim_Q)
        b, c = refasm.b_matrix(disc2), refasm.c_matrix(disc2)
        expect = np.linalg.norm(b @ u - c @ p) / (
            np.linalg.norm(b.toarray()) * np.linalg.norm(u)
            + np.linalg.norm(c.toarray()) * np.linalg.norm(p))
        system = disc2.primal_system(0.7)
        w = np.concatenate([u, p])[refasm.dof_blocks(disc2).element_dofs.ravel()]
        gap = _constraint_gap(system, sp.ndof_v, w, system @ w)
        assert gap == pytest.approx(expect, rel=1e-12)


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
        sys = csr(disc2.primal_system(1.0))
        assert rel_frobenius(sys, csr(sys.T)) < 1e-13

    def test_auxiliary_symmetric(self, disc2):
        # the (V, M, Q) system AC5 solves is symmetric, and eliminating
        # its face multiplier leaves the primal system the package factors
        sp = disc2.spaces
        sys = refasm.auxiliary_system(disc2, 1.0)
        assert rel_frobenius(csr(sys), csr(sys.T)) < 1e-13
        dense = sys.toarray()
        m = np.arange(sp.dim_V, sp.dim_V + sp.dim_M)
        w = np.setdiff1d(np.arange(sys.shape[0]), m)
        schur = dense[np.ix_(w, w)] - dense[np.ix_(w, m)] @ np.linalg.solve(
            dense[np.ix_(m, m)], dense[np.ix_(m, w)])
        order = refasm.dof_blocks(disc2).element_dofs.ravel()
        primal = disc2.primal_system(1.0).toarray()
        assert (np.abs(schur[np.ix_(order, order)] - primal).max()
                <= 1e-12 * np.abs(primal).max())

    def test_norm_grams_positive(self, disc2):
        rng = np.random.default_rng(30)
        u = rng.standard_normal(disc2.spaces.dim_V)
        q = rng.standard_normal(disc2.spaces.dim_Q)
        m = rng.standard_normal(disc2.spaces.dim_M)
        assert disc2.norm_v(u) > 0
        assert disc2.norm_q(q) > 0
        assert refasm.norm_m(disc2, m) > 0
        assert refasm.seminorm_v(disc2, u) >= 0


class TestNorms:
    def test_seminorm_brute_force(self, disc2):
        rng = np.random.default_rng(31)
        u = rng.standard_normal(disc2.spaces.dim_V)
        curl_part = u @ (refasm.curl_stiffness(disc2) @ u)
        jumps = refasm.jump_t(disc2) @ u
        lift_part = lifted_scalar_energy(disc2, jumps,
                                         disc2.materials.mu_bar_inv)
        assert refasm.seminorm_v(disc2, u) ** 2 == pytest.approx(
            curl_part + lift_part, rel=1e-11)

    def test_norm_v_brute_force(self, disc2):
        rng = np.random.default_rng(32)
        u = rng.standard_normal(disc2.spaces.dim_V)
        assert disc2.norm_v(u) ** 2 == pytest.approx(
            refasm.seminorm_v(disc2, u) ** 2 + u @ (disc2.mass_eps @ u), rel=1e-12)

    def test_norm_q_brute_force(self, degree):
        disc = Discretization(two_tag_mesh(), degree, random_materials(14))
        rng = np.random.default_rng(33)
        q = rng.standard_normal(disc.spaces.dim_Q)
        grad_part = q @ (refasm.q_grad_gram(disc) @ q)
        jumps = refasm.jump_n(disc) @ q
        lift_part = lifted_vector_energy(disc, jumps, disc.materials.eps)
        assert disc.norm_q(q) ** 2 == pytest.approx(
            grad_part + lift_part, rel=1e-11)

    def test_norms_match_their_grams(self, degree):
        # norm_v and norm_q sum the quadratic forms of their parts; the
        # Gram matrices the analysis reads must give the same squares and
        # match their sparse products
        disc = Discretization(two_tag_mesh(4), degree, random_materials(15))
        assert_grams_match_oracles(disc)
        sp = disc.spaces
        rng = np.random.default_rng(37)
        for _ in range(3):
            u = rng.standard_normal(sp.dim_V)
            q = rng.standard_normal(sp.dim_Q)
            assert refasm.seminorm_v(disc, u) ** 2 == pytest.approx(
                u @ (disc.seminorm_gram @ u), rel=1e-12)
            assert disc.norm_v(u) ** 2 == pytest.approx(
                u @ (refasm.norm_v_gram(disc) @ u), rel=1e-12)
            assert disc.norm_q(q) ** 2 == pytest.approx(
                q @ (disc.norm_q_gram @ q), rel=1e-12)

    @pytest.mark.parametrize("make_mesh", [
        lambda: two_tag_mesh(4),
        lambda: delaunay_mesh(np.random.default_rng(2), 30)[0]],
        ids=["square4", "delaunay"])
    def test_norms_match_csr_forms(self, degree, make_mesh):
        # the norms sum element and face blocks; the sparse operators of
        # the same quadratic forms, built only afterwards, give the same
        # squares, and the Grams match their sparse products
        mesh = make_mesh()
        rng = np.random.default_rng(38)
        tags = np.unique(mesh.tags)
        disc = Discretization(mesh, degree, Coefficients(
            mu={t: random_spd(rng) for t in tags},
            eps={t: random_spd(rng) for t in tags}))
        sp = disc.spaces
        u = rng.standard_normal((3, sp.dim_V))
        q = rng.standard_normal((3, sp.dim_Q))
        norms = [(disc.norm_v(a), disc.norm_q(b)) for a, b in zip(u, q)]
        assert not set(NORM_OPERATORS) & set(vars(disc))
        curl, grad = refasm.curl_stiffness(disc), refasm.q_grad_gram(disc)
        lift = refasm.lift_gram_scalar(disc)
        jump_t, jump_n = refasm.jump_t(disc), refasm.jump_n(disc)
        for (norm_v, norm_q), a, b in zip(norms, u, q):
            jt, jn = jump_t @ a, jump_n @ b
            assert norm_v ** 2 == pytest.approx(
                a @ (curl @ a) + a @ (disc.mass_eps @ a) + jt @ (lift @ jt),
                rel=1e-13)
            assert norm_q ** 2 == pytest.approx(
                b @ (grad @ b) + jn @ (disc.lift_gram_vector @ jn), rel=1e-13)
        assert_grams_match_oracles(disc)

    def test_gradient_solve_builds_no_norm_operators(self, degree):
        # a solve of the gradient problem and its printed norms read the
        # forms' blocks only
        disc = Discretization(two_tag_mesh(3), degree, random_materials(16))
        load, q = gradient_null_data(disc)
        sol = solve_mixed(disc, 1.0, load)
        assert disc.norm_v(sol.u) < 1e-9 * disc.norm_q(q)
        assert disc.norm_q(sol.p + q) < 1e-9 * disc.norm_q(q)
        assert not set(NORM_OPERATORS) & set(vars(disc))

    def test_norm_m_brute_force(self, disc2):
        rng = np.random.default_rng(34)
        lam = rng.standard_normal(disc2.spaces.dim_M)
        oracle = lifted_vector_energy(disc2, lam, disc2.materials.eps)
        assert refasm.norm_m(disc2, lam) ** 2 == pytest.approx(oracle, rel=1e-11)

    def test_norm_w_block_structure(self, disc2):
        sp = disc2.spaces
        rng = np.random.default_rng(35)
        w = rng.standard_normal(sp.dim_V + sp.dim_M)
        split = (disc2.norm_v(w[:sp.dim_V]) ** 2
                 + refasm.norm_m(disc2, w[sp.dim_V:]) ** 2)
        gram = _norm_w_gram(disc2)
        assert w @ (gram @ w) == pytest.approx(split, rel=1e-12)
        assert rel_frobenius(refasm.norm_v_gram(disc2),
                             csr(gram[:sp.dim_V, :sp.dim_V])) <= 1e-13


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
        # an in-space source makes the load exactly the V mass matrix times
        # its coefficients
        sp = disc2.spaces
        if degree == 1:
            func = lambda x, y: np.stack(
                [2.0 - 0.7 * y + 0.0 * x, -1.0 + 0.7 * x + 0.0 * y], axis=-1)
        else:
            func = lambda x, y: np.stack(
                [1.0 + 0.5 * x - y - (0.3 * x + 0.2 * y) * y,
                 -2.0 + x + 0.25 * y + (0.3 * x + 0.2 * y) * x], axis=-1)
        coeffs = refasm.project_v(sp, func)
        load = disc2.load_volume(func)
        assert load.shape == (sp.dim_V,)
        mass = refasm.element_block_diag(refasm.local_v_grams(sp))
        assert np.abs(load - mass @ coeffs).max() < 1e-12

    def test_load_boundary_zero_data(self, disc2):
        g = np.zeros(refasm.dim_scalar_data(disc2.lifting))
        assert np.abs(disc2.load_boundary(g)).max() == 0.0

    def test_load_boundary_linear(self, disc2):
        rng = np.random.default_rng(38)
        g1 = rng.standard_normal(refasm.dim_scalar_data(disc2.lifting))
        g2 = rng.standard_normal(refasm.dim_scalar_data(disc2.lifting))
        combined = disc2.load_boundary(g1 + 2.0 * g2)
        split = disc2.load_boundary(g1) + 2.0 * disc2.load_boundary(g2)
        assert np.abs(combined - split).max() < 1e-12


class TestPenaltyWeights:
    def test_per_face_alpha(self, square2):
        # one penalty per form: an array of per-face weights is refused
        with pytest.raises(TypeError):
            Discretization(square2, 1, alpha=np.full(square2.num_faces, 7.0))
        assert Discretization(square2, 1, alpha=9).alpha == 9.0

    def test_nonpositive_array_rejected(self, square2):
        with pytest.raises(ValueError):
            Discretization(square2, 1, alpha=0.0)

    @pytest.mark.parametrize("name", ["alpha", "gamma"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, square2, name, value):
        # refused on construction, not reported later as a resonance
        with pytest.raises(ValueError, match="finite"):
            Discretization(square2, 1, **{name: value})


class TestMaterialValidation:
    @pytest.mark.parametrize("name", ["mu", "eps"])
    @pytest.mark.parametrize("value", [np.inf, np.nan,
                                       [[1.0, np.inf], [np.inf, 1.0]]])
    def test_non_finite_named(self, name, value):
        # named as such, not as an asymmetric or indefinite tensor
        with pytest.raises(ValueError, match="must be finite"):
            Coefficients(**{name: {0: value}})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mu", [1e200, 1e-200, [[1e160, 0.0], [0.0, 1e160]],
                                    [[1e-170, 0.0], [0.0, 1e-170]]])
    def test_curl_weight_must_be_representable(self, mu):
        # the tag is named, and a second tag that is fine is not blamed
        with pytest.raises(ValueError, match="mu of tag 3: .*1/sqrt"):
            Coefficients(mu={0: 1.0, 3: mu})

    @pytest.mark.parametrize("a, b", [(1e154, 1e154), (1e-154, 1e-154),
                                      (1e200, 1e-200)])
    def test_curl_weight_near_the_range_is_kept(self, a, b):
        mu = [[a, 0.0], [0.0, b]]
        weight = Coefficients(mu={0: mu}).expand(unit_square(1)).mu_bar_inv
        expect = 1.0 / (np.sqrt(a) * np.sqrt(b))
        assert weight == pytest.approx(np.full(2, expect), rel=1e-12)


class TestBlockDiag:
    def test_face_grams_from_the_cached_blocks(self, degree):
        # the block diagonals of the per-face Grams, read from the cached
        # blocks, are bitwise those of Grams the lifting builds afresh
        mesh = two_tag_mesh(2)
        gamma = np.random.default_rng(5).uniform(0.5, 2.0)
        disc = Discretization(mesh, degree, random_materials(4), gamma=gamma)
        lift, mats = disc.lifting, disc.materials
        diag = refasm.element_block_diag
        for mine, oracle in (
                (refasm.lift_gram_scalar(disc),
                 diag(lift.face_grams_scalar(mats.mu_bar_inv))),
                (disc.lift_gram_vector, diag(lift.face_grams_vector(mats.eps))),
                # the multiplier penalty's Gram, which the oracles and the
                # kernel eigenvalues read as this product
                (disc.gamma * disc.lift_gram_vector,
                 diag(gamma * lift.face_grams_vector(mats.eps)))):
            assert np.array_equal(mine.toarray(), oracle.toarray())

    def test_matches_scipy(self):
        rng = np.random.default_rng(39)
        blocks = rng.standard_normal((5, 3, 4))
        mine = refasm.element_block_diag(blocks)
        oracle = sparse.block_diag(list(blocks), format="csr")
        assert rel_frobenius(mine, oracle) < 1e-15
