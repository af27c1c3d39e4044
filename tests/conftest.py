import numpy as np
import pytest
from scipy.spatial import Delaunay

from maxwelldg import Coefficients, Discretization, Mesh, unit_square

import reference_assembly as refasm


@pytest.fixture(scope="session")
def square2():
    return unit_square(2)


@pytest.fixture(scope="session")
def square4():
    return unit_square(4)


@pytest.fixture(scope="session", params=[1, 2])
def degree(request):
    return request.param


@pytest.fixture(scope="session")
def disc2(square2, degree):
    return Discretization(square2, degree)


@pytest.fixture(scope="session")
def disc4(square4, degree):
    return Discretization(square4, degree)


def random_spd(rng, spread=2.0):
    """Random symmetric positive definite 2x2 matrix."""
    ang = rng.uniform(0.0, np.pi)
    q = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    d = np.diag(rng.uniform(1.0 / spread, spread, size=2))
    return q @ d @ q.T


def two_tag_mesh(n=2):
    """Unit square mesh with the left half tagged 0 and the right half 1."""
    base = unit_square(n)
    cx = base.vertices[base.elements].mean(axis=1)[:, 0]
    tags = (cx > 0.5).astype(np.int64)
    from maxwelldg import Mesh
    return Mesh(base.vertices, base.elements, tags)


def holed_square(n=6):
    """unit_square(n) without the cells of its middle third: a square
    hole, so the first Betti number is 1.  The vertices no element keeps
    are dropped."""
    base = unit_square(n)
    centroids = base.vertices[base.elements].mean(axis=1)
    keep = ~np.all(np.abs(centroids - 0.5) < 1.0 / 6.0, axis=1)
    used, elements = np.unique(base.elements[keep], return_inverse=True)
    return Mesh(base.vertices[used], elements.reshape(-1, 3),
                np.zeros(int(keep.sum()), dtype=np.int64))


def square_ring():
    """Eight triangles around a square hole, every vertex on the
    boundary: no conforming node, so every eigenvalue of the Friedrichs
    pencil is above zero but the harmonic field's."""
    outer = [[0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [0.0, 3.0]]
    inner = [[1.0, 1.0], [2.0, 1.0], [2.0, 2.0], [1.0, 2.0]]
    elements = [[k, (k + 1) % 4, 4 + (k + 1) % 4] for k in range(4)]
    elements += [[k, 4 + (k + 1) % 4, 4 + k] for k in range(4)]
    return Mesh(np.array(outer + inner), np.array(elements),
                np.zeros(8, dtype=np.int64))


def two_squares(n=3):
    """Two disjoint copies of unit_square(n), side by side: two connected
    components and no hole."""
    base = unit_square(n)
    vertices = np.vstack([base.vertices, base.vertices + [2.0, 0.0]])
    elements = np.vstack([base.elements, base.elements + base.num_vertices])
    return Mesh(vertices, elements, np.zeros(len(elements), dtype=np.int64))


def random_materials(seed=0):
    """Random SPD piecewise-constant coefficients on tags {0, 1}."""
    rng = np.random.default_rng(seed)
    return Coefficients(
        mu={0: random_spd(rng), 1: random_spd(rng)},
        eps={0: random_spd(rng), 1: random_spd(rng)})


def delaunay_mesh(rng, npoints):
    """(mesh, triangulation): the Delaunay triangulation of random points
    in the unit square, with the elements shuffled, the vertices of every
    element permuted (which flips about half of them clockwise) and three
    random material tags."""
    points = rng.uniform(0.0, 1.0, (npoints, 2))
    tri = Delaunay(points)
    elements = tri.simplices[rng.permutation(len(tri.simplices))]
    elements = rng.permuted(elements, axis=1)
    return Mesh(points, elements, rng.integers(0, 3, len(elements))), tri


def finest_blocks(disc):
    """The (V, Q) unknowns in blocks on the finest nested dissection of
    the mesh, whose parts of at most 4 elements stay whole."""
    blocks = refasm.dof_blocks(disc)
    # element e holds the e-th run of V dofs, so its first dof sorts it
    elements = blocks.element_dofs
    elements = elements[np.argsort(elements[:, 0])]
    order, bounds = disc.mesh.dissection(4)
    return blocks._replace(element_dofs=elements[order], bounds=bounds)


def front_entries(lu):
    """Checks the fronts of a multifrontal factor against its elimination
    tree: each front eliminates its own unknowns, its parent is the front
    of its first update unknown, and its update unknowns lie in its
    parent's front; an inner node keeps [X, -V], p x (p + u), a leaf its
    pivot block X alone, p x p.  Returns the entries of L and U, p^2 + p u
    for a front of p own and u update unknowns."""
    offsets, entries = lu.offsets, 0
    inner = set(lu.parent[lu.parent >= 0].tolist())
    for j, (block, at) in enumerate(lu.fronts):
        p = offsets[j + 1] - offsets[j]
        assert np.array_equal(at[:p], np.arange(offsets[j], offsets[j + 1]))
        update = at[p:]
        assert block.shape == (p, p + update.size if j in inner else p)
        entries += p * p + p * update.size
        if update.size:
            parent = np.searchsorted(offsets, update[0], side="right") - 1
            assert parent > j
            assert np.isin(update, lu.fronts[parent][1]).all()
    return entries
