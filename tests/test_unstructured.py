"""Property tests of the mesh incidence, the nested-dissection order and
the conforming maps on unstructured meshes.

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
from maxwelldg.analysis import conforming_average
from maxwelldg.mesh import DISSECTION_LEAF, nested_dissection

from conftest import delaunay_mesh

PROPERTY = settings(max_examples=15, deadline=None)
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
def delaunay_meshes(draw):
    """(mesh, triangulation) of 3 to 24 random points."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mesh, tri = delaunay_mesh(rng, draw(st.integers(3, 24)))
    assume(len(tri.coplanar) == 0)
    assume(shape_quality(tri.points, tri.simplices) > MIN_QUALITY)
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
        assert fine.element_areas().sum() == pytest.approx(
            mesh.element_areas().sum(), rel=1e-12)
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
            order = m.dissection_order
            assert np.array_equal(np.sort(order), np.arange(m.num_elements))
            again = Mesh(m.vertices, m.elements, m.tags).dissection_order
            assert np.array_equal(again, order)
        disc = Discretization(fine, 1, MATERIALS)
        sp = disc.spaces
        for multiplier, n in ((False, sp.dim_V + sp.dim_Q),
                              (True, sp.dim_V + sp.dim_M + sp.dim_Q)):
            dofs = disc.dof_order(multiplier)
            assert np.array_equal(np.sort(dofs), np.arange(n))

    @PROPERTY
    @given(delaunay_meshes())
    def test_separators_cut_every_part(self, case):
        mesh = refine_uniform(refine_uniform(case[0]))
        pairs = mesh.face_elements[~mesh.boundary]
        order, cuts = nested_dissection(centroids(mesh, slice(None)), pairs)
        assert np.array_equal(order, mesh.dissection_order)
        assert len(cuts) > 0
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        ends = rank[pairs]
        for start, first, second, separator in cuts:
            assert first + second + separator > DISSECTION_LEAF
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


class TestConformingMaps:
    @PROPERTY
    @given(case=delaunay_meshes(), degree=st.sampled_from([1, 2]))
    def test_v_basis_has_no_tangential_jump(self, case, degree):
        mesh, _ = case
        disc = Discretization(mesh, degree, MATERIALS)
        basis = disc.spaces.conforming_v_basis().toarray()
        gap = np.abs(disc.jump_t @ basis)
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
        assert np.abs(disc.jump_t @ once).max() <= 1e-12 * scale
