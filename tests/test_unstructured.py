"""Property tests of the mesh incidence, the nested-dissection order and
the factor on its tree, the conforming maps, the element kernels and the
method's form-level invariants on unstructured meshes.

Each example is the Delaunay triangulation of random points in the unit
square, with the elements shuffled, the vertices of every element permuted
(which flips about half of them clockwise) and three random material tags
(`conftest.delaunay_mesh`).  Examples with a sliver (shape quality below
0.03, 1 for an equilateral triangle) are discarded: the conforming maps
invert local dof matrices whose condition grows without bound as an
element flattens.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxwelldg import Coefficients, Discretization, Mesh, refine_uniform
from maxwelldg.analysis import error_norms
from maxwelldg.basis import face_modes
from maxwelldg.mesh import nested_dissection
from maxwelldg.problems import ModelProblem, gradient_null_data
from maxwelldg.quadrature import segment_rule, triangle_rule
from maxwelldg.solver import (BACKWARD_TOL, backward_error, factorize,
                              refined_solve, solve_mixed)

from conftest import delaunay_mesh, finest_blocks, front_entries, random_spd
from reference_analysis import conforming_average
from reference_lifting import assemble_a_face_integral, assemble_b_face_integral
import reference_assembly as refasm

PROPERTY = settings(max_examples=15, deadline=None)
# the face-integral oracles loop over faces in Python
FACE_LOOPS = settings(max_examples=8, deadline=None)
MATERIALS = Coefficients(mu=dict.fromkeys(range(3), 1.0),
                         eps=dict.fromkeys(range(3), 1.0))
MIN_QUALITY = 0.03


def shape_quality(points, simplices) -> float:
    """Smallest 4 sqrt(3) area / (sum of squared edge lengths)."""
    tri = points[simplices]
    d1, d2 = tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    area = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    edges = tri - np.roll(tri, 1, axis=1)
    return float(np.min(4 * np.sqrt(3) * area / np.sum(edges ** 2, axis=(1, 2))))


@st.composite
def delaunay_meshes(draw, min_quality=MIN_QUALITY):
    """(mesh, triangulation) of 3 to 24 random points."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mesh, tri = delaunay_mesh(rng, draw(st.integers(3, 24)))
    assume(len(tri.coplanar) == 0)
    assume(shape_quality(tri.points, tri.simplices) > min_quality)
    return mesh, tri


def face_midpoints(mesh):
    return 0.5 * (mesh.vertices[mesh.faces[:, 0]]
                  + mesh.vertices[mesh.faces[:, 1]])


def centroids(mesh, elements):
    return mesh.vertices[mesh.elements[elements]].mean(axis=1)


class TestIncidence:
    @PROPERTY
    @given(delaunay_meshes())
    def test_element_faces_and_face_elements_are_inverse(self, case):
        mesh, _ = case
        ne = mesh.num_elements
        # each (element, local face) is one side of its face
        sides = mesh.face_elements[mesh.element_faces]         # (ne, 3, 2)
        own = sides == np.arange(ne)[:, None, None]
        assert np.all(own.sum(axis=2) == 1)
        # each side of a face has that face among its local faces
        present = mesh.face_elements >= 0
        face_of_side = np.nonzero(present)[0]
        hits = mesh.element_faces[mesh.face_elements[present]]
        assert np.all((hits == face_of_side[:, None]).sum(axis=1) == 1)
        assert present.sum() == 3 * ne
        # local face k is opposite local vertex k
        opposite = np.sort(mesh.elements[:, [[1, 2], [0, 2], [0, 1]]], axis=2)
        assert np.array_equal(mesh.faces[mesh.element_faces], opposite)
        # with the orderings below, these fix all three arrays: faces are
        # distinct sorted pairs in lexicographic order, the plus element
        # has the lower index
        assert np.all(mesh.faces[:, 0] < mesh.faces[:, 1])
        key = mesh.faces[:, 0] * mesh.num_vertices + mesh.faces[:, 1]
        assert np.all(np.diff(key) > 0)
        inner = ~mesh.boundary
        assert np.all(mesh.face_elements[inner, 0] < mesh.face_elements[inner, 1])

    @PROPERTY
    @given(delaunay_meshes())
    def test_boundary_faces_are_the_hull_edges(self, case):
        mesh, tri = case
        hull = np.sort(tri.convex_hull, axis=1)
        hull = hull[np.lexsort(hull.T[::-1])]
        assert np.array_equal(mesh.faces[mesh.boundary], hull)
        assert np.array_equal(mesh.boundary, mesh.face_elements[:, 1] < 0)

    @PROPERTY
    @given(delaunay_meshes())
    def test_normals_point_out_of_the_plus_element(self, case):
        mesh, _ = case
        mids = face_midpoints(mesh)
        n = mesh.face_normals
        plus = centroids(mesh, mesh.face_elements[:, 0])
        assert np.all(np.einsum("fd,fd->f", n, mids - plus) > 0)
        inner = ~mesh.boundary
        minus = centroids(mesh, mesh.face_elements[inner, 1])
        assert np.all(np.einsum("fd,fd->f", n[inner], mids[inner] - minus) < 0)
        assert np.allclose(np.einsum("fd,fd->f", n, mesh.face_tangents), 0.0,
                           atol=1e-14)

    @PROPERTY
    @given(delaunay_meshes())
    def test_refinement_keeps_area_and_tags(self, case):
        mesh, _ = case
        fine = refine_uniform(mesh)
        assert fine.num_elements == 4 * mesh.num_elements
        assert np.array_equal(fine.tags, np.repeat(mesh.tags, 4))
        assert refasm.element_areas(fine).sum() == pytest.approx(
            refasm.element_areas(mesh).sum(), rel=1e-12)
        # the four children of an element are congruent to it at half size
        edges = np.sort(mesh.face_lengths[mesh.element_faces], axis=1)
        child_edges = np.sort(fine.face_lengths[fine.element_faces], axis=1)
        assert np.allclose(child_edges.reshape(-1, 4, 3),
                           0.5 * edges[:, None], rtol=1e-12, atol=0.0)
        assert fine.boundary.sum() == 2 * mesh.boundary.sum()


class TestDissectionOrder:
    @PROPERTY
    @given(delaunay_meshes())
    def test_order_is_a_deterministic_permutation(self, case):
        mesh, _ = case
        fine = refine_uniform(mesh)
        for m in (mesh, fine):
            order, bounds = m.dissection(4)
            assert np.array_equal(np.sort(order), np.arange(m.num_elements))
            again = Mesh(m.vertices, m.elements, m.tags).dissection(4)
            assert np.array_equal(again[0], order)
            assert np.array_equal(again[1], bounds)
        disc = Discretization(fine, 1, MATERIALS)
        sp = disc.spaces
        for multiplier, n in ((False, sp.dim_V + sp.dim_Q),
                              (True, sp.dim_V + sp.dim_M + sp.dim_Q)):
            blocks = refasm.dof_blocks(disc, multiplier)
            dofs = [blocks.element_dofs.ravel()]
            if multiplier:
                dofs.append(blocks.face_dofs.ravel())
            assert np.array_equal(np.sort(np.concatenate(dofs)), np.arange(n))

    @PROPERTY
    @given(delaunay_meshes())
    def test_separators_cut_every_part(self, case):
        mesh = refine_uniform(refine_uniform(case[0]))
        pairs = mesh.face_elements[~mesh.boundary]
        order, cuts = nested_dissection(centroids(mesh, slice(None)), pairs, 4)
        same, bounds = mesh.dissection(4)
        assert np.array_equal(order, same)
        assert len(cuts) > 0
        # nonempty runs from the first position to the last, each starting
        # at a half or a separator of a cut
        assert bounds[0] == 0 and bounds[-1] == len(order)
        assert np.all(np.diff(bounds) > 0)
        starts = np.concatenate([[0], cuts[:, 0] + cuts[:, 1],
                                 cuts[:, 0] + cuts[:, 1] + cuts[:, 2]])
        assert np.isin(bounds[:-1], starts).all()
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        ends = rank[pairs]
        for start, first, second, separator in cuts:
            assert first + second + separator > 4
            # 1, 2, 3: first half, second half, separator of this part
            half = np.digitize(ends, start + np.array(
                [0, first, first + second, first + second + separator]))
            # no interior face joins the two halves ...
            assert not np.any((half == [1, 2]).all(axis=1)
                              | (half == [2, 1]).all(axis=1))
            # ... and every separator element touches the second half
            touching = np.concatenate([ends[(half == [3, 2]).all(axis=1), 0],
                                       ends[(half == [2, 3]).all(axis=1), 1]])
            assert len(np.unique(touching)) == separator


def dual_graph_updates(mesh, order, bounds):
    """Per run of the order, the later positions joined to it in the
    element dual graph with the fill of the runs before it: a dense
    boolean elimination, run by run."""
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    joined = np.zeros((len(order), len(order)), dtype=bool)
    a, b = rank[mesh.face_elements[~mesh.boundary]].T
    joined[a, b] = joined[b, a] = True
    updates = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        rows = np.flatnonzero(joined[start:stop].any(axis=0))
        rows = rows[rows >= stop]
        joined[np.ix_(rows, rows)] = True
        updates.append(rows)
    return updates


class TestMultifrontalFactor:
    """The factor in the discretization's runs and in the finest runs of
    the nested dissection against the symbolic elimination of the element
    dual graph and a dense solve, with random SPD materials and
    wavenumbers.  The factor guarantees a small backward error; both
    solutions then carry a forward error of order cond * eps, and the
    condition grows as elements flatten (to 1e7 above shape quality 0.1),
    so the gap between them is bounded through the condition estimate
    (at most 7% of that bound in 300 draws)."""

    @PROPERTY
    @given(case=delaunay_meshes(min_quality=0.1),
           degree=st.sampled_from([1, 2]),
           multiplier=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_solve(self, case, degree, multiplier, seed):
        mesh, _ = case
        if degree == 1:
            mesh = refine_uniform(mesh)
        rng = np.random.default_rng(seed)
        coeffs = Coefficients(mu={t: random_spd(rng) for t in range(3)},
                              eps={t: random_spd(rng) for t in range(3)})
        disc = Discretization(mesh, degree, coeffs)
        ksq = rng.uniform(0.25, 2.0)
        assembled = (disc.auxiliary_system(ksq) if multiplier
                     else disc.primal_system(ksq))
        rhs = rng.standard_normal(assembled.shape[0])
        for blocks in (refasm.dof_blocks(disc), finest_blocks(disc)):
            system = refasm.reordered(assembled, refasm.dof_blocks(disc), blocks)
            expect = np.linalg.solve(system @ np.eye(len(rhs)), rhs)
            lu, factor = factorize(system, blocks.bounds)
            assert (factor.ordering, factor.pivoting) == ("nested_dissection",
                                                          "symmetric")
            # the fronts read from the matrix are those of its element graph
            fronts = lu.lu.fronts if multiplier else lu.fronts
            nb = blocks.element_dofs.shape[1]
            expect_updates = dual_graph_updates(
                mesh, blocks.element_dofs[:, 0] // disc.spaces.ndof_v,
                blocks.bounds)
            for (block, at), rows in zip(fronts, expect_updates):
                assert np.array_equal(at[block.shape[0]::nb] // nb, rows)
            # the pivot blocks and panels of the fronts, and the face blocks
            if multiplier:
                stored = front_entries(lu.lu) + system.gram.size
            else:
                stored = front_entries(lu)
            assert factor.lu_nnz == lu.nnz == stored
            x = refined_solve(system, lu, rhs)
            eta = backward_error(system, factor.norm, x, rhs)
            assert eta <= BACKWARD_TOL
            # to first order each solution lies within 2 cond eta of the
            # exact one in the 1-norm, eta its backward error
            eta += backward_error(system, factor.norm, expect, rhs)
            gap = np.abs(x - expect).sum() / np.abs(expect).sum()
            assert gap <= 2.0 * factor.cond_estimate * eta


class TestBlockAssembly:
    """The system assembled face by face into element blocks against the
    sparse-product route, with random SPD materials and wavenumbers."""

    @PROPERTY
    @given(case=delaunay_meshes(), degree=st.sampled_from([1, 2]),
           multiplier=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_sparse_products(self, case, degree, multiplier, seed):
        rng = np.random.default_rng(seed)
        coeffs = Coefficients(mu={t: random_spd(rng) for t in range(3)},
                              eps={t: random_spd(rng) for t in range(3)})
        disc = Discretization(case[0], degree, coeffs)
        gaps = refasm.system_gaps(disc, rng.uniform(0.25, 2.0), multiplier)
        assert max(gaps.values()) <= 1e-13, gaps


class TestConformingMaps:
    @PROPERTY
    @given(case=delaunay_meshes(), degree=st.sampled_from([1, 2]))
    def test_v_basis_has_no_tangential_jump(self, case, degree):
        mesh, _ = case
        disc = Discretization(mesh, degree, MATERIALS)
        basis = refasm.conforming_v_basis(disc.spaces).toarray()
        gap = np.abs(refasm.jump_t(disc) @ basis)
        # relative to the basis entries, which grow as elements flatten
        assert gap.max(initial=0.0) <= 1e-12 * np.abs(basis).max(initial=0.0)

    @PROPERTY
    @given(case=delaunay_meshes(), degree=st.sampled_from([1, 2]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_average_is_idempotent(self, case, degree, seed):
        mesh, _ = case
        disc = Discretization(mesh, degree, MATERIALS)
        v = np.random.default_rng(seed).standard_normal(disc.spaces.dim_V)
        once = conforming_average(disc, v)
        twice = conforming_average(disc, once)
        scale = np.abs(once).max()
        assert np.abs(twice - once).max() <= 1e-12 * scale
        # and the average lies in the conforming zero-trace subspace
        assert np.abs(refasm.jump_t(disc) @ once).max() <= 1e-12 * scale


# ----------------------------------------------------------------------
# element kernels against plain per-element loops

KERNEL_TOL = 1e-13


def vector_field(x, y):
    return np.stack([np.sin(2 * x + y), np.cos(x * y) + x], axis=-1)


def element_geometry(mesh):
    """(origin, J, inv(J)^T, det J) of each element, one at a time."""
    for a, b, c in mesh.vertices[mesh.elements]:
        jac = np.column_stack([b - a, c - a])
        yield a, jac, np.linalg.inv(jac).T, np.linalg.det(jac)


def rel_gap(kernel, loop) -> float:
    return float(np.abs(kernel - loop).max() / np.abs(loop).max())


@st.composite
def kernel_cases(draw):
    """(mesh, coefficients, rng): a random Delaunay mesh with random SPD
    mu and eps on its three tags."""
    mesh, _ = draw(delaunay_meshes())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    coeffs = Coefficients(mu={t: random_spd(rng) for t in range(3)},
                          eps={t: random_spd(rng) for t in range(3)})
    return mesh, coeffs, rng


@pytest.mark.parametrize("degree", [1, 2])
class TestKernelOracles:
    @PROPERTY
    @given(case=kernel_cases())
    def test_points_and_field_values(self, case, degree):
        mesh, coeffs, rng = case
        sp = Discretization(mesh, degree, coeffs).spaces
        pts = triangle_rule(sp.deg_err).points
        vref, cref = sp.vbasis.eval(pts), sp.vbasis.curl(pts)
        gref = sp.qbasis.grad(pts)
        cv = rng.standard_normal((mesh.num_elements, sp.ndof_v))
        cq = rng.standard_normal((mesh.num_elements, sp.ndof_q))
        shape = (mesh.num_elements, len(pts))
        phys, v, grad = (np.empty(shape + (2,)) for _ in range(3))
        curl = np.empty(shape)
        for e, (a, jac, jit, det) in enumerate(element_geometry(mesh)):
            for p, xi in enumerate(pts):
                phys[e, p] = a + jac @ xi
                v[e, p] = jit @ (cv[e] @ vref[p])
                curl[e, p] = cv[e] @ cref[p] / det
                grad[e, p] = jit @ (cq[e] @ gref[p])
        assert rel_gap(sp.phys_points(pts), phys) <= KERNEL_TOL
        assert rel_gap(sp.eval_v(cv.ravel(), pts), v) <= KERNEL_TOL
        assert rel_gap(sp.eval_v_curl(cv.ravel(), pts), curl) <= KERNEL_TOL
        assert rel_gap(sp.eval_q_grad(cq.ravel(), pts), grad) <= KERNEL_TOL

    @PROPERTY
    @given(case=kernel_cases())
    def test_projection_gradient_map_and_load(self, case, degree):
        mesh, coeffs, _ = case
        disc = Discretization(mesh, degree, coeffs)
        sp = disc.spaces
        stiff, load_rule = triangle_rule(sp.deg_stiff), triangle_rule(sp.deg_load)
        vstiff, gstiff = sp.vbasis.eval(stiff.points), sp.qbasis.grad(stiff.points)
        vload = sp.vbasis.eval(load_rule.points)
        ne = mesh.num_elements
        mass = np.zeros((ne, sp.ndof_v, sp.ndof_v))
        pair = np.zeros((ne, sp.ndof_v, sp.ndof_q))
        load = np.zeros((ne, sp.ndof_v))
        for e, (a, jac, jit, det) in enumerate(element_geometry(mesh)):
            for p, w in enumerate(stiff.weights):
                v, g = vstiff[p] @ jit.T, gstiff[p] @ jit.T
                mass[e] += w * det * v @ v.T
                pair[e] += w * det * v @ g.T
            for p, (xi, w) in enumerate(zip(load_rule.points, load_rule.weights)):
                load[e] += w * det * (vload[p] @ jit.T) @ vector_field(*(a + jac @ xi))
        # Both maps solve with the local mass, whose condition grows as an
        # element flattens; so the solutions are checked by their residuals
        # against the loop's right-hand sides.
        grams = sp.local_v_grams
        assert rel_gap(grams, mass) <= KERNEL_TOL
        assert rel_gap(grams @ sp.gradient_map(), pair) <= KERNEL_TOL
        proj = refasm.project_v(sp, vector_field).reshape(ne, sp.ndof_v, 1)
        assert rel_gap((grams @ proj)[..., 0], load) <= KERNEL_TOL
        full = disc.load_volume(vector_field)
        assert rel_gap(full[:sp.dim_V], load.ravel()) <= KERNEL_TOL
        assert not np.any(full[sp.dim_V:])

    @PROPERTY
    @given(case=kernel_cases())
    def test_lifting_trace_tables(self, case, degree):
        mesh, coeffs, _ = case
        disc = Discretization(mesh, degree, coeffs)
        sp, lift = disc.spaces, disc.lifting
        eps = disc.materials.eps
        nm = lift.n_modes
        # the tables' rule: the pulled-back points carry roundoff amplified
        # by the element's condition, and other points would not share it
        rule = segment_rule(2 * degree + 2)
        modes = face_modes(degree, rule.points)
        geometry = list(element_geometry(mesh))
        trace_q, trace_v = np.zeros_like(lift.trace_q), np.zeros_like(lift.trace_v)
        pair = np.zeros((refasm.dim_vector_data(lift), sp.dim_V))
        for f, (i, j) in enumerate(mesh.faces):
            start, end = mesh.vertices[i], mesh.vertices[j]
            h = np.linalg.norm(end - start)
            n = mesh.face_normals[f]
            avg = 1.0 if mesh.boundary[f] else 0.5
            for side, e in enumerate(mesh.face_elements[f]):
                if e < 0:
                    continue
                a, _, jit, _ = geometry[e]
                for p, (t, w) in enumerate(zip(rule.points, rule.weights)):
                    xi = jit.T @ (start + t * (end - start) - a)
                    q = sp.qbasis.eval(xi[None])[0]
                    v = sp.vbasis.eval(xi[None])[0] @ jit.T          # (nv, 2)
                    cross = n[0] * v[:, 1] - n[1] * v[:, 0]
                    trace_q[f, side] += w * np.outer(modes[p], q)
                    trace_v[f, side] += w * np.outer(modes[p], cross)
                    # (eps v, R_F(lam)) = int_F lam . {{eps v}}, rows
                    # (mode, component)
                    block = modes[p][:, None, None] * (v @ eps[e].T).T
                    pair[f * 2 * nm:(f + 1) * 2 * nm,
                         e * sp.ndof_v:(e + 1) * sp.ndof_v] += (
                        avg * h * w * block.reshape(2 * nm, sp.ndof_v))
        assert rel_gap(lift.trace_q, trace_q) <= KERNEL_TOL
        assert rel_gap(lift.trace_v, trace_v) <= KERNEL_TOL
        assert rel_gap(refasm.vector_value_pair(lift, eps).toarray(),
                       pair) <= KERNEL_TOL

    @PROPERTY
    @given(case=kernel_cases())
    def test_error_norms(self, case, degree):
        mesh, coeffs, rng = case
        disc = Discretization(mesh, degree, coeffs)
        sp, mats = disc.spaces, disc.materials
        problem = ModelProblem(
            "oracle", 1.0, None, None, exact_u=vector_field,
            exact_curl_u=lambda x, y: np.sin(x - 3 * y),
            exact_grad_p=lambda x, y: vector_field(y, x))
        u = rng.standard_normal(sp.dim_V)
        p_coeffs = rng.standard_normal(sp.dim_Q)
        rule = triangle_rule(sp.deg_err)
        vref, cref = sp.vbasis.eval(rule.points), sp.vbasis.curl(rule.points)
        gref = sp.qbasis.grad(rule.points)
        cu = u.reshape(mesh.num_elements, sp.ndof_v)
        cp = p_coeffs.reshape(mesh.num_elements, sp.ndof_q)
        l2 = curl = pgrad = 0.0
        for e, (a, jac, jit, det) in enumerate(element_geometry(mesh)):
            for p, (xi, w) in enumerate(zip(rule.points, rule.weights)):
                x = a + jac @ xi
                du = jit @ (cu[e] @ vref[p]) - problem.exact_u(*x)
                l2 += w * det * du @ mats.eps[e] @ du
                dcurl = cu[e] @ cref[p] / det - problem.exact_curl_u(*x)
                curl += w * det * mats.mu_bar_inv[e] * dcurl ** 2
                dgp = jit @ (cp[e] @ gref[p]) - problem.exact_grad_p(*x)
                pgrad += w * det * dgp @ mats.eps[e] @ dgp
        jump = refasm.jump_t(disc) @ u
        jump_sq = jump @ (refasm.lift_gram_scalar(disc) @ jump)
        pjump = refasm.jump_n(disc) @ p_coeffs
        pjump_sq = pjump @ (disc.lift_gram_vector @ pjump)
        oracle = {"e_v": np.sqrt(l2 + curl + jump_sq),
                  "e_q": np.sqrt(pgrad + pjump_sq), "e_l2": np.sqrt(l2),
                  "e_curl": np.sqrt(curl), "e_jump": np.sqrt(jump_sq)}
        errs = error_norms(disc, problem, u, p_coeffs)
        for key, value in oracle.items():
            assert errs[key] == pytest.approx(value, rel=KERNEL_TOL, abs=0.0)


# ----------------------------------------------------------------------
# form-level invariants


def frobenius_gap(mine, oracle, scale) -> float:
    """||mine - oracle||_F / ||scale||_F."""
    diff = (mine - oracle).toarray()
    return float(np.linalg.norm(diff) / np.linalg.norm(scale.toarray()))


@pytest.mark.parametrize("degree", [1, 2])
class TestFormInvariants:
    """The method's invariants with random tags, SPD materials, penalties
    and wavenumbers: symmetric systems, the lifted forms against their
    face-integral definitions, the face-by-face boundary load and jump
    errors against the sparse products they replace, and gradient
    sources that leave the field at zero."""

    @FACE_LOOPS
    @given(case=kernel_cases())
    def test_symmetric_systems_and_face_integrals(self, case, degree):
        mesh, coeffs, rng = case
        disc = Discretization(mesh, degree, coeffs)
        ksq = rng.uniform(0.25, 2.0)
        aux = disc.auxiliary_system(ksq)
        for system in (disc.primal_system(ksq).toarray(),
                       aux @ np.eye(aux.shape[0])):
            assert (np.abs(system - system.T).max()
                    <= 1e-13 * np.abs(system).max())
        a = assemble_a_face_integral(disc)
        assert frobenius_gap(disc.a_matrix, a, a) <= 1e-12
        # b of a lone degree-1 element is zero up to roundoff, so its gap
        # is measured against its volume term
        assert frobenius_gap(disc.b_matrix, assemble_b_face_integral(disc),
                             refasm.grad_pair(disc)) <= 1e-12

    @PROPERTY
    @given(case=kernel_cases())
    def test_load_and_jump_errors(self, case, degree):
        mesh, coeffs, rng = case
        disc = Discretization(mesh, degree, coeffs,
                              alpha=rng.uniform(6.5, 9.0))
        sp = disc.spaces
        g = rng.standard_normal(mesh.num_faces * disc.lifting.n_modes)
        assert rel_gap(disc.load_boundary(g),
                       refasm.load_boundary(disc, g)) <= 1e-13
        u, p = rng.standard_normal(sp.dim_V), rng.standard_normal(sp.dim_Q)
        problem = ModelProblem(
            "oracle", 1.0, None, None, exact_u=vector_field,
            exact_curl_u=lambda x, y: np.sin(x - 3 * y),
            exact_grad_p=lambda x, y: vector_field(y, x))
        for data in (None, g):
            jump, pjump = refasm.jump_errors(disc, u, p, data)
            errs = error_norms(disc, problem, u, p, g_data=data)
            assert errs["e_jump"] ** 2 == pytest.approx(jump, rel=1e-13)
            assert disc.tangential_jump_sq(u, data) == pytest.approx(
                jump, rel=1e-13)
        assert disc.normal_jump_sq(p) == pytest.approx(pjump, rel=1e-13)

    @PROPERTY
    @given(case=kernel_cases())
    def test_gradient_sources_are_annihilated(self, case, degree):
        mesh, coeffs, rng = case
        disc = Discretization(refine_uniform(mesh) if degree == 1 else mesh,
                              degree, coeffs)
        assume(disc.spaces.conforming_q_basis().shape[1] > 0)
        load, q = gradient_null_data(disc, seed=int(rng.integers(2 ** 31)))
        sol = solve_mixed(disc, rng.uniform(0.25, 2.0), load)
        assert disc.norm_v(sol.u) <= 1e-9 * disc.norm_q(q)
