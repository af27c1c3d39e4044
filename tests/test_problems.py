import numpy as np
import pytest

from maxwelldg.problems import (
    get_problem,
    gradient_null_data,
    lshape_problem,
    sine_problem,
)

import reference_assembly as refasm


def fd_curl(func, x, y, h=1e-6):
    """Centered-difference scalar curl of a vector callable."""
    d2x = func(x + h, y)[..., 1] - func(x - h, y)[..., 1]
    d1y = func(x, y + h)[..., 0] - func(x, y - h)[..., 0]
    return (d2x - d1y) / (2.0 * h)


def fd_div(func, x, y, h=1e-6):
    d1x = func(x + h, y)[..., 0] - func(x - h, y)[..., 0]
    d2y = func(x, y + h)[..., 1] - func(x, y - h)[..., 1]
    return (d1x + d2y) / (2.0 * h)


class TestSine:
    def test_curl_matches_fd(self):
        problem = sine_problem()
        rng = np.random.default_rng(51)
        x = rng.uniform(0.1, 0.9, 30)
        y = rng.uniform(0.1, 0.9, 30)
        oracle = fd_curl(problem.exact_u, x, y)
        assert np.abs(problem.exact_curl_u(x, y) - oracle).max() < 1e-6

    def test_divergence_free(self):
        problem = sine_problem()
        rng = np.random.default_rng(52)
        x = rng.uniform(0.1, 0.9, 30)
        y = rng.uniform(0.1, 0.9, 30)
        assert np.abs(fd_div(problem.exact_u, x, y)).max() < 1e-6

    def test_source_closes_the_equations(self):
        # curl curl u - ksq u = source when p = 0 and mu = eps = 1
        problem = sine_problem(ksq=2.5)
        rng = np.random.default_rng(53)
        x = rng.uniform(0.1, 0.9, 20)
        y = rng.uniform(0.1, 0.9, 20)
        h = 1e-4
        # rot of the scalar curl: (d/dy, -d/dx)
        curl_curl = np.stack([
            (problem.exact_curl_u(x, y + h)
             - problem.exact_curl_u(x, y - h)) / (2.0 * h),
            -(problem.exact_curl_u(x + h, y)
              - problem.exact_curl_u(x - h, y)) / (2.0 * h)], axis=-1)
        residual = curl_curl - 2.5 * problem.exact_u(x, y) - problem.source(x, y)
        assert np.abs(residual).max() < 1e-6

    def test_boundary_trace_vanishes(self):
        problem = sine_problem()
        s = np.linspace(0.0, 1.0, 9)
        # n x u on each side of the unit square
        bottom = problem.exact_u(s, np.zeros_like(s))
        top = problem.exact_u(s, np.ones_like(s))
        left = problem.exact_u(np.zeros_like(s), s)
        right = problem.exact_u(np.ones_like(s), s)
        assert np.abs(bottom[:, 0]).max() < 1e-15
        assert np.abs(top[:, 0]).max() < 1e-15
        assert np.abs(left[:, 1]).max() < 1e-15
        assert np.abs(right[:, 1]).max() < 1e-15

    def test_mesh_family(self):
        problem = sine_problem()
        assert problem.mesh_factory(0).num_elements == 2 * 4 ** 2
        assert problem.mesh_factory(1).num_elements == 2 * 8 ** 2


class TestLshape:
    def test_curl_free(self):
        problem = lshape_problem()
        rng = np.random.default_rng(54)
        # stay away from the corner singularity at the origin
        x = rng.uniform(0.2, 0.9, 30)
        y = rng.uniform(0.2, 0.9, 30)
        assert np.abs(fd_curl(problem.exact_u, x, y)).max() < 1e-5

    def test_divergence_free_away_from_corner(self):
        problem = lshape_problem()
        rng = np.random.default_rng(55)
        x = rng.uniform(0.2, 0.9, 30)
        y = rng.uniform(0.2, 0.9, 30)
        assert np.abs(fd_div(problem.exact_u, x, y)).max() < 1e-5

    def test_zero_trace_on_reentrant_legs(self):
        # the legs through the corner: positive x axis and negative y axis
        problem = lshape_problem()
        s = np.linspace(0.05, 0.95, 9)
        on_x_axis = problem.exact_u(s, np.zeros_like(s))
        assert np.abs(on_x_axis[:, 0]).max() < 1e-12
        below = problem.exact_u(np.zeros_like(s), -s)
        assert np.abs(below[:, 1]).max() < 1e-12

    def test_source_is_scaled_field(self):
        problem = lshape_problem(ksq=3.0)
        x, y = np.array([0.4, -0.3]), np.array([0.6, 0.5])
        assert np.abs(problem.source(x, y)
                      + 3.0 * problem.exact_u(x, y)).max() < 1e-14

    def test_mesh_family_excludes_quadrant(self):
        mesh = lshape_problem().mesh_factory(0)
        centroids = mesh.vertices[mesh.elements].mean(axis=1)
        assert not np.any((centroids[:, 0] > 0) & (centroids[:, 1] < 0))


class TestRegistry:
    def test_lookup(self):
        assert get_problem("sine", ksq=2.0).ksq == 2.0
        assert get_problem("lshape").name == "lshape"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("plane_wave")


class TestGradientNullData:
    def test_load_is_gradient_pairing(self, disc2):
        load, q = gradient_null_data(disc2, seed=3)
        sp = disc2.spaces
        assert np.abs(load[sp.dim_V:]).max() == 0.0
        assert np.abs(load[:sp.dim_V] - refasm.grad_pair(disc2) @ q).max() < 1e-14

    def test_q_is_conforming(self, disc2):
        _, q = gradient_null_data(disc2, seed=4)
        jumps = refasm.jump_n(disc2) @ q
        assert np.abs(jumps).max() < 1e-10
