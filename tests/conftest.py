import numpy as np
import pytest
from scipy.spatial import Delaunay

from maxwelldg import Coefficients, Discretization, Mesh, unit_square


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
