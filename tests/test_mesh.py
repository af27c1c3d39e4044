import numpy as np
import pytest

from maxwelldg import (Mesh, MeshFormatError, lshape, read_mesh,
                       refine_uniform, unit_square, write_mesh)

import reference_assembly as refasm


def signed_area(verts):
    d1 = verts[1] - verts[0]
    d2 = verts[2] - verts[0]
    return 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])


class TestConstruction:
    def test_unit_square_counts(self):
        mesh = unit_square(3)
        assert mesh.num_vertices == 16
        assert mesh.num_elements == 18
        # interior + boundary edges: 3 n^2 + 2 n
        assert mesh.num_faces == 33

    def test_unit_square_area(self):
        mesh = unit_square(4)
        assert refasm.element_areas(mesh).sum() == pytest.approx(1.0, abs=1e-14)

    def test_lshape_area(self):
        mesh = lshape(3)
        assert refasm.element_areas(mesh).sum() == pytest.approx(3.0, abs=1e-13)
        assert mesh.num_elements == 6 * 9

    def test_lshape_excludes_fourth_quadrant(self):
        mesh = lshape(2)
        centroids = mesh.vertices[mesh.elements].mean(axis=1)
        assert not np.any((centroids[:, 0] > 0) & (centroids[:, 1] < 0))

    def test_elements_counterclockwise(self):
        mesh = unit_square(3)
        for tri in mesh.elements:
            assert signed_area(mesh.vertices[tri]) > 0

    def test_orientation_normalized_on_input(self):
        # clockwise input triangle gets flipped, not rejected
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        mesh = Mesh(verts, np.array([[0, 2, 1]]), np.zeros(1, dtype=int))
        assert signed_area(mesh.vertices[mesh.elements[0]]) > 0

    def test_degenerate_element_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(MeshFormatError, match="degenerate"):
            Mesh(verts, np.array([[0, 1, 2]]), np.zeros(1, dtype=int))

    def test_duplicate_vertices_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(MeshFormatError, match="duplicate"):
            Mesh(verts, np.array([[0, 1, 2]]), np.zeros(1, dtype=int))

    @pytest.mark.parametrize("scale", [1e-13, 1e-7, 1e7])
    def test_scaled_mesh_accepted(self, scale):
        # the geometric checks are relative to the mesh's own extent
        base = unit_square(4)
        mesh = Mesh(base.vertices * scale, base.elements, base.tags)
        np.testing.assert_array_equal(mesh.faces, base.faces)
        np.testing.assert_array_equal(mesh.face_elements, base.face_elements)
        np.testing.assert_allclose(refasm.element_areas(mesh),
                                   refasm.element_areas(base) * scale ** 2)

    @pytest.mark.parametrize("scale", [1e-13, 1e-7, 1e7])
    def test_scaled_defects_rejected(self, scale):
        base = unit_square(4)
        verts = base.vertices * scale
        with pytest.raises(MeshFormatError, match="duplicate"):
            Mesh(np.vstack([verts, verts[5]]), base.elements, base.tags)
        # vertices 0, 1, 2 lie on the edge x = 0
        elements = np.vstack([base.elements, [0, 1, 2]])
        tags = np.append(base.tags, 0)
        with pytest.raises(MeshFormatError, match="degenerate"):
            Mesh(verts, elements, tags)

    def test_bad_index_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshFormatError, match="out of range"):
            Mesh(verts, np.array([[0, 1, 7]]), np.zeros(1, dtype=int))


class TestFaces:
    def test_faces_sorted(self):
        mesh = unit_square(3)
        pairs = [tuple(f) for f in mesh.faces]
        assert pairs == sorted(pairs)
        assert all(a < b for a, b in pairs)

    def test_plus_element_is_lower_index(self):
        mesh = unit_square(3)
        interior = ~mesh.boundary
        fe = mesh.face_elements[interior]
        assert np.all(fe[:, 0] < fe[:, 1])

    def test_tangent_runs_lower_to_higher_vertex(self):
        mesh = unit_square(2)
        for f in range(mesh.num_faces):
            a, b = mesh.faces[f]
            d = mesh.vertices[b] - mesh.vertices[a]
            d = d / np.linalg.norm(d)
            assert np.allclose(mesh.face_tangents[f], d, atol=1e-14)

    def test_normal_is_rotated_tangent(self):
        mesh = unit_square(3)
        t, n = mesh.face_tangents, mesh.face_normals
        rot = np.stack([t[:, 1], -t[:, 0]], axis=1)
        agree = np.isclose(np.abs(np.einsum("fd,fd->f", n, rot)), 1.0)
        assert np.all(agree)

    def test_normal_outward_from_plus(self):
        mesh = unit_square(3)
        mids = 0.5 * (mesh.vertices[mesh.faces[:, 0]]
                      + mesh.vertices[mesh.faces[:, 1]])
        plus_cent = mesh.vertices[mesh.elements[mesh.face_elements[:, 0]]].mean(axis=1)
        dots = np.einsum("fd,fd->f", mesh.face_normals, mids - plus_cent)
        assert np.all(dots > 0)

    def test_element_faces_opposite_vertex(self):
        mesh = unit_square(2)
        for e, tri in enumerate(mesh.elements):
            for k in range(3):
                f = mesh.element_faces[e, k]
                expected = sorted(v for i, v in enumerate(tri) if i != k)
                assert list(mesh.faces[f]) == expected

    def test_boundary_count(self):
        for n in (1, 2, 4):
            assert unit_square(n).boundary.sum() == 4 * n

    def test_face_lengths(self):
        mesh = unit_square(2)
        lengths = np.linalg.norm(
            mesh.vertices[mesh.faces[:, 1]] - mesh.vertices[mesh.faces[:, 0]],
            axis=1)
        assert np.allclose(mesh.face_lengths, lengths)

    def test_connectivity_invariant_under_vertex_rotation(self):
        mesh = unit_square(2)
        rolled = np.roll(mesh.elements, 1, axis=1)
        other = Mesh(mesh.vertices, rolled, mesh.tags)
        assert np.array_equal(mesh.faces, other.faces)
        assert np.array_equal(mesh.face_normals, other.face_normals)
        assert np.array_equal(mesh.boundary, other.boundary)


class TestSerialization:
    def test_round_trip(self):
        base = lshape(2)
        mesh = Mesh(base.vertices, base.elements, np.full(base.num_elements, 3))
        again = read_mesh(write_mesh(mesh))
        assert np.array_equal(again.vertices, mesh.vertices)
        assert np.array_equal(again.elements, mesh.elements)
        assert np.array_equal(again.tags, mesh.tags)

    def test_comments_and_default_tag(self):
        text = """
        # a comment
        nodes 4
        0 0
        1 0   # trailing comment
        1 1
        0 1
        elements 2
        0 1 2
        0 2 3 5
        """
        mesh = read_mesh(text)
        assert mesh.num_elements == 2
        assert list(mesh.tags) == [0, 5]

    @pytest.mark.parametrize("text,match", [
        ("nodes x\n", "not an integer"),
        ("nodes 3\n0 0\n1 0\n", "unexpected end"),
        # declared counts far past the lines left are refused before any
        # array of that size is allocated
        ("nodes 100000000000000\n0 0\n1 0\n0 1\nelements 1\n0 1 2\n",
         "100000000000000 node lines declared"),
        ("nodes 3\n0 0\n1 0\n0 1\nelements 100000000000000\n0 1 2\n",
         "100000000000000 element lines declared"),
        ("elements 1\n0 1 2\n", "expected 'nodes"),
        ("nodes 3\n0 0\n1 0\n0 1\nelements 1\n0 1\n", "3 indices"),
        ("nodes 3\n0 0\n1 0 9\n0 1\nelements 1\n0 1 2\n", "two coordinates"),
        ("nodes 3\n0 0\n1 0\n0 1\nelements 1\n0 1 2\nleftover\n", "trailing"),
        ("nodes 3\n0 0\nnan 0\n0 1\nelements 1\n0 1 2\n", "must be finite"),
        ("nodes 3\n0 0\n1 0\n0 inf\nelements 1\n0 1 2\n", "must be finite"),
        # vertex 4 halves the diagonal 0-2 of element 0 from the other side
        ("nodes 5\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n"
         "elements 3\n0 1 2\n0 4 3\n4 2 3\n", "hanging node"),
        # three triangles on the edge 0-1
        ("nodes 5\n0 0\n1 0\n0.5 1\n0.5 -1\n0.5 2\n"
         "elements 3\n0 1 2\n0 1 3\n0 1 4\n",
         "face shared by more than two elements"),
    ])
    def test_malformed_inputs(self, text, match):
        with pytest.raises(MeshFormatError, match=match):
            read_mesh(text)


class TestRefinement:
    def test_refine_counts(self):
        mesh = unit_square(2)
        fine = refine_uniform(mesh)
        assert fine.num_elements == 4 * mesh.num_elements
        assert fine.num_vertices == mesh.num_vertices + mesh.num_faces

    def test_refine_preserves_area_and_tags(self):
        base = unit_square(2)
        mesh = Mesh(base.vertices, base.elements, np.full(base.num_elements, 7))
        fine = refine_uniform(mesh)
        assert refasm.element_areas(fine).sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(fine.tags == 7)

    def test_refine_halves_mesh_size(self):
        mesh = lshape(1)
        fine = refine_uniform(mesh)
        assert fine.mesh_size() == pytest.approx(0.5 * mesh.mesh_size())
