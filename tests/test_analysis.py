import csv
import io
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eigh

from maxwelldg import analysis
from maxwelldg.analysis import (
    DENSE_GUARD,
    coercivity_margin,
    convergence_study,
    error_norms,
    friedrichs_constant,
    indefinite_infsup,
    infsup_constant_B,
    kernel_ellipticity,
    setup_problem,
    constants_sweep,
)
from maxwelldg.assembly import Discretization
from maxwelldg.blocks import BlockMatrix
from maxwelldg.materials import Coefficients
from maxwelldg.mesh import Mesh, MeshFormatError, lshape, unit_square
from maxwelldg.problems import ModelProblem, sine_problem
from maxwelldg.quadrature import triangle_rule
from maxwelldg.solver import solve_mixed

from conftest import (delaunay_mesh, holed_square, random_materials,
                      random_spd, square_ring, two_squares, two_tag_mesh)
from reference_analysis import (
    averaging_defect_ratio,
    best_approximation_error,
    conforming_average,
    consistency_check_R1,
    continuity_bound,
    friedrichs_on_complement,
    infsup_composed,
    infsup_without_multiplier,
    kernel_eigenvalues_composed,
    residual_R2,
    self_adjointness_gap,
)
import reference_assembly as refasm


def rotation_problem(ksq=1.0):
    """Exact solution inside the degree-1 space: constants plus rotation."""

    def exact_u(x, y):
        return np.stack([1.0 - 0.8 * y + 0.0 * x, -0.5 + 0.8 * x + 0.0 * y],
                        axis=-1)

    return ModelProblem(
        name="rotation",
        ksq=ksq,
        mesh_factory=lambda level: unit_square(2 ** (level + 1)),
        source=lambda x, y: -ksq * exact_u(x, y),
        exact_u=exact_u,
        exact_curl_u=lambda x, y: 1.6 * np.ones_like(np.asarray(x, float)),
        exact_grad_p=lambda x, y: np.zeros(np.shape(x) + (2,)),
    )


class TestConformingAverage:
    def test_idempotent(self, disc2):
        rng = np.random.default_rng(61)
        v = rng.standard_normal(disc2.spaces.dim_V)
        once = conforming_average(disc2, v)
        twice = conforming_average(disc2, once)
        assert np.abs(twice - once).max() < 1e-11 * np.abs(once).max()

    def test_result_is_conforming(self, disc2):
        rng = np.random.default_rng(62)
        v = rng.standard_normal(disc2.spaces.dim_V)
        avg = conforming_average(disc2, v)
        jumps = refasm.jump_t(disc2) @ avg
        assert np.abs(jumps).max() < 1e-10

    def test_fixes_conforming_fields(self, disc2):
        cmap = refasm.conforming_v_basis(disc2.spaces)
        rng = np.random.default_rng(63)
        v = cmap @ rng.standard_normal(cmap.shape[1])
        avg = conforming_average(disc2, v)
        assert np.abs(avg - v).max() < 1e-10 * np.abs(v).max()

    def test_defect_ratio_bounded_under_refinement(self, square2, square4):
        # the defect over lifted-jump quotient must not grow with 1/h
        ratios = []
        for mesh in (square2, square4):
            disc = Discretization(mesh, 1)
            rng = np.random.default_rng(64)
            worst = max(averaging_defect_ratio(
                disc, rng.standard_normal(disc.spaces.dim_V))
                for _ in range(10))
            ratios.append(worst)
        assert ratios[1] < 2.0 * ratios[0]


class TestResidualR2:
    def test_polynomial_field_is_constraint_free(self, degree):
        problem = rotation_problem()
        disc = Discretization(unit_square(2), degree)
        assert residual_R2(disc, problem) < 1e-10

    def test_scales_linearly(self):
        disc = Discretization(unit_square(4), 1)
        base = sine_problem()
        scaled = ModelProblem(
            name="scaled", ksq=base.ksq, mesh_factory=base.mesh_factory,
            source=base.source,
            exact_u=lambda x, y: 2.0 * base.exact_u(x, y),
            exact_curl_u=base.exact_curl_u)
        r1 = residual_R2(disc, base)
        r2 = residual_R2(disc, scaled)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-10)

    def test_decreases_under_refinement(self):
        problem = sine_problem()
        vals = [residual_R2(Discretization(unit_square(n), 1), problem)
                for n in (4, 8)]
        assert vals[1] < 0.7 * vals[0]


class TestConsistencyR1:
    def test_decreases_under_refinement(self):
        problem = sine_problem()
        vals = [consistency_check_R1(Discretization(unit_square(n), 1), problem)
                for n in (2, 4)]
        assert vals[1] < 0.5 * vals[0]

    def test_nonconforming_negative_control(self):
        # random broken probes see the full flux jumps; conforming ones don't
        problem = sine_problem()
        disc = Discretization(unit_square(4), 1)
        conforming = consistency_check_R1(disc, problem)
        rng = np.random.default_rng(65)
        probes = rng.standard_normal((disc.spaces.dim_V, 8))
        control = consistency_check_R1(disc, problem, probes=probes)
        assert control > 1e4 * conforming


class TestSampledBounds:
    def test_coercivity_margin_nonnegative(self, disc4):
        assert coercivity_margin(disc4, nsamples=200) >= -1e-10

    def test_continuity_bound_stable(self, square2, square4):
        vals = [continuity_bound(Discretization(m, 1), nsamples=100)
                for m in (square2, square4)]
        assert 0 < vals[1] < 1.5 * vals[0]


class TestStabilityConstants:
    def test_friedrichs_positive_and_stable(self, square2, square4):
        vals = [friedrichs_constant(Discretization(m, 1))
                for m in (square2, square4)]
        assert vals[0] > 0
        assert abs(vals[1] - vals[0]) < 0.3 * vals[0]

    def test_gradients_defeat_the_seminorm(self, disc2):
        # conforming gradients are invisible to |.|_V: the reason the
        # Friedrichs quotient excludes them
        sp = disc2.spaces
        conf = sp.conforming_q_basis()
        rng = np.random.default_rng(66)
        q = conf @ rng.standard_normal(conf.shape[1])
        gmap = refasm.element_block_diag(refasm.gradient_map(sp))
        v = gmap @ q
        # the squared seminorm cancels to roundoff; sqrt halves the exponent
        assert refasm.seminorm_v(disc2, v) < 1e-6 * disc2.norm_v(v)

    def test_infsup_positive_with_multiplier(self, square2):
        disc = Discretization(square2, 1)
        assert infsup_constant_B(disc) > 0.05

    def test_infsup_collapses_without_multiplier(self, square2):
        # checkerboard multipliers are only controlled through M_h
        disc = Discretization(square2, 1)
        with_m = infsup_constant_B(disc)
        without = infsup_without_multiplier(disc)
        assert without < 1e-7
        assert without <= with_m

    def test_kernel_ellipticity_is_gamma(self, square2):
        disc = Discretization(square2, 1)
        assert kernel_ellipticity(disc) == pytest.approx(0.5, rel=1e-8)

    def test_indefinite_infsup_at_default_wavenumber(self, square2):
        disc = Discretization(square2, 1)
        assert indefinite_infsup(disc, 1.0) == pytest.approx(0.5, rel=1e-8)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_probes_match_the_composed_route(self, degree):
        # the norm applied part by part and the pencil projected form by
        # form, against N_w and C_w composed whole; gamma = 2, so the
        # kernel constants are not gamma itself
        disc = Discretization(two_tag_mesh(3), degree, random_materials(7),
                              gamma=2.0)
        ksq = 3.0
        shifted = kernel_eigenvalues_composed(
            disc, disc.a_matrix.tobsr() - ksq * disc.mass_eps.tobsr())
        for value, oracle in [
                (infsup_constant_B(disc), infsup_composed(disc)),
                (kernel_ellipticity(disc),
                 kernel_eigenvalues_composed(disc, disc.a_matrix.tobsr())[0]),
                (indefinite_infsup(disc, ksq), np.abs(shifted).min())]:
            assert value == pytest.approx(oracle, rel=1e-10)
        assert abs(kernel_ellipticity(disc) - 2.0) > 0.1

    def test_sweep_projects_each_form_once(self, monkeypatch):
        # both kernel constants read one projected pencil: a level of the
        # sweep multiplies each form by the kernel basis once
        forms = ("a_matrix", "seminorm_gram", "mass_eps", "lift_gram_vector")
        widths, products = [], Counter()

        class Recorded(BlockMatrix):
            def __matmul__(self, other):
                products[getattr(self, "form", None), np.shape(other)[-1]] += 1
                return super().__matmul__(other)

        def recording(*args, **kwargs):
            disc = Discretization(*args, **kwargs)
            for name in forms:
                form = getattr(disc, name)
                vars(disc)[name] = Recorded(form.data, form.indices,
                                            form.indptr, form.shape)
                vars(disc)[name].form = name
            return disc

        def null_space(mat):
            z = real_null_space(mat)
            widths.append(z.shape[1])
            return z

        real_null_space = scipy.linalg.null_space
        monkeypatch.setattr(analysis, "Discretization", recording)
        monkeypatch.setattr(scipy.linalg, "null_space", null_space)
        constants_sweep([two_tag_mesh(2)], 2, random_materials(3))
        # one kernel basis; the sampled margin's 200 columns are none
        assert len(widths) == 1 and widths[0] != 200
        width = widths[0]
        assert {name: products[name, width] for name in forms} == dict.fromkeys(
            forms, 1)

    def test_probes_build_no_jump_maps(self, square2, degree):
        # the margin and the dense probes read the norm Grams and the
        # multiplier block, assembled from element and face blocks; the
        # package has no CSR jump maps to build (see test_exports)
        disc = Discretization(square2, degree)
        values = [coercivity_margin(disc), friedrichs_constant(disc),
                  infsup_constant_B(disc), infsup_without_multiplier(disc),
                  kernel_ellipticity(disc), indefinite_infsup(disc, 1.0)]
        assert np.all(np.isfinite(values))

    def test_dense_guard(self):
        disc = Discretization(unit_square(24), 1)
        assert disc.spaces.dim_V > DENSE_GUARD
        with pytest.raises(ValueError, match="guard"):
            friedrichs_constant(disc)

    def test_constants_sweep_schema(self, square2, square4):
        rows = constants_sweep([square2, square4], 1)
        keys = {"h", "dofs", "lift_c1", "lift_c2", "coercivity_margin",
                "friedrichs", "infsup_b", "kernel_ellipticity",
                "indefinite_infsup"}
        assert set(rows[0]) == keys
        assert rows[1]["h"] == pytest.approx(rows[0]["h"] / 2.0)
        for row in rows:
            for key in keys - {"coercivity_margin"}:
                assert row[key] > 0 or key == "h"
            assert row["coercivity_margin"] >= -1e-10


PENCIL_MESHES = {
    "square2": lambda rng: unit_square(2),
    "square4": lambda rng: unit_square(4),
    "square8": lambda rng: unit_square(8),
    "lshape4": lambda rng: lshape(4),
    "delaunay": lambda rng: delaunay_mesh(rng, 30)[0],
}


def random_tagged(mesh, rng):
    """The mesh with three random material tags and random SPD mu and
    eps on them."""
    tagged = Mesh(mesh.vertices, mesh.elements,
                  rng.integers(0, 3, mesh.num_elements))
    coeffs = Coefficients(mu={t: random_spd(rng) for t in range(3)},
                          eps={t: random_spd(rng) for t in range(3)})
    return tagged, coeffs


class TestFriedrichsPencil:
    @pytest.mark.parametrize("name", list(PENCIL_MESHES))
    def test_pencil_matches_complement(self, name, degree):
        rng = np.random.default_rng(190 + degree)
        mesh, coeffs = random_tagged(PENCIL_MESHES[name](rng), rng)
        disc = Discretization(mesh, degree, coeffs)
        oracle = friedrichs_on_complement(disc)
        assert friedrichs_constant(disc) == pytest.approx(oracle, rel=1e-11)

    def test_zero_eigenspace_is_the_gradients(self, degree):
        # one zero eigenvalue per conforming node, then a gap of many
        # orders; the zeros are roundoff of a mass matrix whose condition
        # reaches 1e6 on the slivers of a random Delaunay mesh
        rng = np.random.default_rng(191)
        mesh, coeffs = random_tagged(delaunay_mesh(rng, 30)[0], rng)
        disc = Discretization(mesh, degree, coeffs)
        ev = eigh(disc.seminorm_gram.toarray(), disc.mass_eps.toarray(),
                  eigvals_only=True)
        ngrad = disc.spaces.conforming_q_basis().shape[1]
        assert np.abs(ev[:ngrad]).max() < 1e-6 * ev[ngrad]

    @pytest.mark.parametrize("holed", [holed_square, square_ring])
    def test_hole_is_refused(self, holed, degree):
        disc = Discretization(holed(), degree)
        with pytest.raises(ValueError, match="hole"):
            friedrichs_constant(disc)

    def test_two_components_without_a_hole(self):
        disc = Discretization(two_squares(), 1)
        value = friedrichs_constant(disc)
        assert value == pytest.approx(friedrichs_on_complement(disc),
                                      rel=1e-11)
        assert value == pytest.approx(0.46170615905430, rel=1e-12)

    def test_vertex_of_no_element_is_refused(self):
        # it would give the conforming basis an empty column and the pencil
        # no zero eigenvalue, so the probe could not count the gradients by
        # the basis' columns
        base = unit_square(3)
        with pytest.raises(MeshFormatError,
                           match=f"vertex {base.num_vertices} belongs to no"):
            Mesh(np.vstack([base.vertices, [[0.4, 0.3]]]), base.elements,
                 base.tags)


class TestErrorNorms:
    def test_in_space_solution_has_zero_error(self, degree):
        problem = rotation_problem()
        disc = Discretization(unit_square(2), degree)
        u = refasm.project_v(disc.spaces, problem.exact_u)
        p = np.zeros(disc.spaces.dim_Q)
        g = disc.lifting.tangential_boundary_data(problem.exact_u)
        errs = error_norms(disc, problem, u, p, g_data=g)
        assert errs["e_v"] < 1e-11
        assert errs["e_q"] < 1e-14

    def test_brute_force_oracle(self, disc2):
        problem = sine_problem()
        rng = np.random.default_rng(67)
        u = rng.standard_normal(disc2.spaces.dim_V)
        p = rng.standard_normal(disc2.spaces.dim_Q)
        errs = error_norms(disc2, problem, u, p)
        sp = disc2.spaces
        rule = triangle_rule(sp.deg_err)
        phys = sp.phys_points(rule.points)
        x, y = phys[..., 0], phys[..., 1]
        du = sp.eval_v(u, rule.points) - problem.exact_u(x, y)
        l2 = np.einsum("p,epc,epc,e->", rule.weights, du, du, sp.det_jac)
        dc = sp.eval_v_curl(u, rule.points) - problem.exact_curl_u(x, y)
        curl = np.einsum("p,ep,ep,e->", rule.weights, dc, dc, sp.det_jac)
        jump = refasm.jump_t(disc2) @ u
        jterm = jump @ (refasm.lift_gram_scalar(disc2) @ jump)
        assert errs["e_l2"] == pytest.approx(np.sqrt(l2), rel=1e-10)
        assert errs["e_curl"] == pytest.approx(np.sqrt(curl), rel=1e-10)
        assert errs["e_jump"] == pytest.approx(np.sqrt(jterm), rel=1e-10)
        assert errs["e_v"] == pytest.approx(
            np.sqrt(l2 + curl + jterm), rel=1e-10)
        dg = sp.eval_q_grad(p, rule.points)
        gterm = np.einsum("p,epc,epc,e->", rule.weights, dg, dg, sp.det_jac)
        pjump = refasm.jump_n(disc2) @ p
        pjterm = pjump @ (disc2.lift_gram_vector @ pjump)
        assert errs["e_q"] == pytest.approx(
            np.sqrt(gterm + pjterm), rel=1e-10)

    def test_boundary_data_enters_jump(self, disc2):
        problem = rotation_problem()
        g = disc2.lifting.tangential_boundary_data(problem.exact_u)
        errs = error_norms(disc2, problem, np.zeros(disc2.spaces.dim_V),
                           np.zeros(disc2.spaces.dim_Q), g_data=g)
        expected = np.sqrt(g @ (refasm.lift_gram_scalar(disc2) @ g))
        assert errs["e_jump"] == pytest.approx(expected, rel=1e-12)


class TestBestApproximation:
    def test_in_space_field(self, disc2):
        problem = rotation_problem()
        g = disc2.lifting.tangential_boundary_data(problem.exact_u)
        # distance enters as a cancelling difference of quadratic forms
        assert best_approximation_error(disc2, problem, g_data=g) < 1e-6

    def test_solution_is_quasi_optimal(self):
        problem = sine_problem()
        mesh = unit_square(4)
        disc, load, g_data = setup_problem(problem, mesh, 1)
        sol = solve_mixed(disc, problem.ksq, load)
        errs = error_norms(disc, problem, sol.u, sol.p, g_data=g_data)
        best = best_approximation_error(disc, problem, g_data=g_data)
        assert best > 0
        assert best <= errs["e_v"] * (1 + 1e-8)
        assert errs["e_v"] < 10.0 * best


class TestSelfAdjointness:
    def test_gap_small(self, disc2):
        assert self_adjointness_gap(disc2) < 1e-10


class TestSetupProblem:
    def test_sine_has_no_boundary_data(self, square4):
        disc, load, g_data = setup_problem(sine_problem(), square4, 1)
        assert g_data is None
        assert disc.alpha == 6.5
        assert disc.gamma == 0.5
        assert load.shape == (disc.spaces.dim_V,)

    def test_rotation_has_boundary_data(self, square2):
        problem = rotation_problem()
        disc, load, g_data = setup_problem(problem, square2, 1)
        assert g_data is not None
        volume_only = disc.load_volume(problem.source)
        assert np.abs(load - volume_only).max() > 0

    def test_penalty_overrides(self, square2):
        disc, _, _ = setup_problem(sine_problem(), square2, 1,
                                   alpha=8.0, gamma=1.5)
        assert disc.alpha == 8.0
        assert disc.gamma == 1.5


@pytest.fixture(scope="module")
def report():
    return convergence_study(sine_problem(), 1, 2, margin_samples=10)


class TestConvergenceReport:
    def test_record_fields(self, report):
        assert len(report.records) == 2
        first, second = report.records
        assert first.eoc_v is None and first.eoc_q is None
        assert second.eoc_v is not None
        assert second.h == pytest.approx(first.h / 2.0)
        assert second.e_v < first.e_v
        assert refasm.terminal_eoc(report) == (second.eoc_v, second.eoc_q)

    def test_csv_schema(self, report):
        text = report.to_csv()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == report.CSV_COLUMNS
        assert len(rows) == 3
        assert rows[1][5] == ""                      # no EOC on level 0
        assert float(rows[2][5]) == pytest.approx(report.records[1].eoc_v)
        # repr round trip keeps full precision
        assert float(rows[1][4]) == report.records[0].e_v

    def test_markdown_table(self, report):
        text = report.to_markdown()
        assert "| level | h |" in text
        assert text.count("\n") >= 7

    def test_diagnostics_keys(self, report):
        diag = report.diagnostics()
        assert diag["problem"] == "sine"
        assert len(diag["levels"]) == 2
        level = diag["levels"][0]
        assert {"level", "h", "solver_residual", "cond_estimate", "ordering",
                "backward_error", "constraint_residual", "time_s"} <= set(level)
        assert "r2" not in level
        assert all(np.isfinite(r["backward_error"]) for r in diag["levels"])

    def test_validation(self):
        with pytest.raises(ValueError):
            convergence_study(sine_problem(), 1, 0)
