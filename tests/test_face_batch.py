"""The batched (face, side) face layer against its per-face loop oracle.

Runs on a perturbed-vertex grid with three material tags and random
full-tensor SPD mu and eps, so no face is axis-aligned by construction
and no two elements share a Jacobian.  Every comparison is relative, in
the Frobenius norm, at 1e-13.
"""

import numpy as np
import pytest
from scipy import sparse

from maxwelldg import Coefficients, Discretization, Mesh, unit_square

import reference_assembly
import reference_lifting
from conftest import random_spd

RTOL = 1e-13


def perturbed_mesh(seed: int, n: int = 4, tags: int = 3) -> Mesh:
    """unit_square(n) with interior vertices moved up to h/5 per axis and
    the element tags a random permutation of 0..tags-1 repeated."""
    rng = np.random.default_rng(seed)
    base = unit_square(n)
    verts = base.vertices.copy()
    interior = np.all((verts > 0.0) & (verts < 1.0), axis=1)
    verts[interior] += rng.uniform(-0.2, 0.2, (interior.sum(), 2)) / n
    tag = rng.permutation(np.arange(base.num_elements) % tags)
    return Mesh(verts, base.elements, tag)


@pytest.fixture(scope="module", params=[1, 2])
def pair(request):
    rng = np.random.default_rng(31 + request.param)
    mesh = perturbed_mesh(7)
    coeffs = Coefficients(mu={t: random_spd(rng) for t in range(3)},
                          eps={t: random_spd(rng) for t in range(3)})
    disc = Discretization(mesh, request.param, coeffs)
    return disc, reference_lifting.ReferenceLifting(disc.spaces)


def rel_diff(mine, oracle) -> float:
    diff = mine - oracle
    if sparse.issparse(diff):
        return sparse.linalg.norm(diff) / sparse.linalg.norm(oracle)
    return np.linalg.norm(diff) / np.linalg.norm(oracle)


def test_mesh_is_unstructured(pair):
    disc, _ = pair
    mesh = disc.mesh
    assert set(np.unique(mesh.tags)) == {0, 1, 2}
    # only the two corner triangles with all vertices on the boundary keep
    # the grid's Jacobian; every other element has its own
    dets = np.unique(np.round(disc.spaces.det_jac, 12))
    assert len(dets) == mesh.num_elements - 1


def test_trace_tables(pair):
    disc, ref = pair
    lifting = disc.lifting
    for name in ("trace_q", "trace_v", "weight"):
        mine = getattr(lifting, name)
        for f, sides in enumerate(getattr(ref, name)):
            assert lifting.side_mask[f].sum() == len(sides)
            for s, table in enumerate(sides):
                assert rel_diff(mine[f, s], table) < RTOL
            # the missing side of a boundary face holds zeros
            assert np.all(mine[f, len(sides):] == 0.0)
    for f, sides in enumerate(ref.sides):
        for s, (e, avg, sign) in enumerate(sides):
            assert lifting.side_elements[f, s] == e
            assert lifting.avg[f] == avg
            assert [1.0, -1.0][s] == sign


@pytest.mark.parametrize("name", [
    "jump_tangential", "jump_normal", "lift_scalar_matrix",
    "lift_vector_matrix", "curl_pair", "vector_value_pair"])
def test_sparse_builders(pair, name):
    disc, ref = pair
    # the two pairings take a material; all six maps are test builders
    # over the lifting's per-(face, side) blocks
    args = {"curl_pair": (disc.materials.mu_bar_inv,),
            "vector_value_pair": (disc.materials.eps,)}.get(name, ())
    mine = getattr(reference_assembly, name)(disc.lifting, *args)
    oracle = getattr(ref, name)(*args)
    assert rel_diff(mine, oracle) < RTOL
    # same stored entries: masked sides dropped, nothing else
    assert np.array_equal(mine.indptr, oracle.indptr)
    assert np.array_equal(mine.indices, oracle.indices)


@pytest.mark.parametrize("weighted", [False, True])
def test_face_grams(pair, weighted):
    disc, ref = pair
    mu_w = (disc.materials.mu_bar_inv if weighted
            else np.ones(disc.spaces.mesh.num_elements))
    eps = (disc.materials.eps if weighted
           else np.broadcast_to(np.eye(2), disc.materials.eps.shape))
    scalar = disc.lifting.face_grams_scalar(mu_w)
    vector = disc.lifting.face_grams_vector(eps)
    assert rel_diff(scalar, np.array(ref.face_grams_scalar(mu_w))) < RTOL
    assert rel_diff(vector, np.array(ref.face_grams_vector(eps))) < RTOL


def test_face_data(pair):
    disc, ref = pair
    func = lambda x, y: np.exp(x) * np.cos(2.0 * y)
    u_func = lambda x, y: np.stack([np.sin(x + y), x * y * y], axis=-1)
    for boundary_only in (False, True):
        assert rel_diff(
            reference_assembly.project_scalar_data(
                disc.lifting, func, boundary_only=boundary_only),
            ref.project_scalar_data(func, boundary_only=boundary_only)) < RTOL
    assert rel_diff(disc.lifting.tangential_boundary_data(u_func),
                    ref.tangential_boundary_data(u_func)) < RTOL


def test_b_face_integral(pair):
    disc, _ = pair
    oracle = reference_lifting.assemble_b_face_integral(disc)
    assert rel_diff(disc.b_matrix, oracle) < 1e-12
