"""End-to-end acceptance checks at desk scale.

Each test covers one headline claim of the method: coercivity at the
default penalty, dual-route assembly agreement, the lifting defining
relation, mesh-independence of the lifting constants, equivalence of the
two formulations, a priori convergence rates, gradient-source
annihilation, stability-constant flatness, constraint-residual decay,
and the singular-corner rate.  One test, one pass/fail line.
"""

import time

import numpy as np
import pytest

from maxwelldg.analysis import (
    constants_sweep,
    convergence_study,
    residual_R2,
)
from maxwelldg.assembly import Discretization
from maxwelldg.lifting import Lifting
from maxwelldg.mesh import unit_square
from maxwelldg.problems import (
    gradient_null_data,
    lshape_problem,
    sine_problem,
)
from maxwelldg.quadrature import segment_rule, triangle_rule
from maxwelldg.solver import solve_auxiliary, solve_mixed
from maxwelldg.spaces import Spaces
from maxwelldg.basis import face_modes

from conftest import random_materials, two_tag_mesh
from reference_lifting import assemble_a_face_integral, assemble_b_face_integral


def report(line):
    print(line, flush=True)


def test_01_coercivity_at_default_penalty():
    # a(v, v) >= 1/2 |v|^2 within roundoff for 1000 random vectors per case
    t0 = time.perf_counter()
    worst = np.inf
    rng = np.random.default_rng(101)
    for n in (4, 8):
        for degree in (1, 2):
            disc = Discretization(unit_square(n), degree, alpha=6.5)
            x = rng.standard_normal((disc.spaces.dim_V, 1000))
            av = np.einsum("in,in->n", x, disc.a_matrix @ x)
            sv = np.einsum("in,in->n", x, disc.seminorm_gram @ x)
            margin = ((av - 0.5 * sv) / sv).min()
            worst = min(worst, margin)
            assert margin >= -1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(f"AC1 coercivity margin: PASS (min margin {worst:.2e}, "
           f"{elapsed:.1f}s)")


def test_02_dual_route_assembly_agreement():
    # lifted assemblies of both forms against the loop-based face-integral
    # oracles of tests/reference_lifting.py, heterogeneous SPD
    t0 = time.perf_counter()
    worst = 0.0
    for degree in (1, 2):
        disc = Discretization(two_tag_mesh(2), degree, random_materials(202))
        a1 = disc.a_matrix
        a2 = assemble_a_face_integral(disc)
        rel_a = (np.sqrt(((a1 - a2).power(2)).sum())
                 / np.sqrt((a1.power(2)).sum()))
        b1 = disc.b_matrix
        b2 = assemble_b_face_integral(disc)
        rel_b = (np.sqrt(((b1 - b2).power(2)).sum())
                 / np.sqrt((b1.power(2)).sum()))
        worst = max(worst, rel_a, rel_b)
        assert rel_a < 1e-12
        assert rel_b < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(f"AC2 dual-route assembly: PASS (max rel diff {worst:.2e}, "
           f"{elapsed:.1f}s)")


def test_03_lifting_defining_relation():
    # (R_F lam, w) = int_F lam . {{w}} for every face and every face datum,
    # with both sides rebuilt by independent quadrature
    worst = 0.0
    for degree in (1, 2):
        spaces = Spaces(unit_square(4), degree)
        lifting = Lifting(spaces)
        mesh = spaces.mesh
        nm = lifting.n_modes
        tri = triangle_rule(2 * degree + 2)
        qref = spaces.qbasis.eval(tri.points)
        seg = segment_rule(2 * degree + 6)
        modes = face_modes(degree, seg.points)
        lift = lifting.lift_vector_matrix()
        for f in range(mesh.num_faces):
            elems = [int(e) for e in mesh.face_elements[f] if e >= 0]
            avg = 1.0 if mesh.boundary[f] else 0.5
            h = mesh.face_lengths[f]
            phys = spaces.face_points(f, seg.points)
            traces = {e: spaces.qbasis.eval(spaces.ref_coords(e, phys))
                      for e in elems}
            for m in range(nm):
                for c in range(2):
                    col = lift[:, f * 2 * nm + 2 * m + c]
                    r = np.asarray(col.todense()).ravel().reshape(
                        mesh.num_elements, spaces.ndof_q, 2)
                    for e in range(mesh.num_elements):
                        lhs = spaces.det_jac[e] * np.einsum(
                            "p,pi,pc->ic", tri.weights, qref,
                            qref @ r[e])
                        if e in elems:
                            rhs = np.zeros((spaces.ndof_q, 2))
                            rhs[:, c] = avg * h * np.einsum(
                                "p,p,pi->i", seg.weights, modes[:, m],
                                traces[e])
                        else:
                            rhs = np.zeros((spaces.ndof_q, 2))
                        resid = np.abs(lhs - rhs).max()
                        worst = max(worst, resid)
                        assert resid < 1e-12
    report(f"AC3 lifting defining relation: PASS (max residual {worst:.2e})")


def test_04_lifting_constants_mesh_independent():
    # per geometry class of faces, the two-sided constants move by less
    # than a factor of 2 from n=4 to n=16
    classes = {}
    for n in (4, 16):
        lifting = Lifting(Spaces(unit_square(n), 1))
        mesh = lifting.spaces.mesh
        c1, c2 = lifting.stability_constants()
        for f in range(mesh.num_faces):
            t = np.abs(mesh.face_tangents[f])
            key = (round(float(t[0]), 6), round(float(t[1]), 6),
                   bool(mesh.boundary[f]))
            classes.setdefault(key, []).append((c1[f], c2[f]))
    spread = 0.0
    for key, pairs in classes.items():
        arr = np.asarray(pairs)
        for j in (0, 1):
            ratio = arr[:, j].max() / arr[:, j].min()
            spread = max(spread, ratio)
            assert ratio < 2.0, (key, j, ratio)
    report(f"AC4 lifting constants: PASS (max class spread x{spread:.3f})")


def test_05_formulations_agree():
    # primal two-field and auxiliary three-field produce the same fields,
    # and the multiplier is the normal jump of p
    problem_of = sine_problem
    disc = Discretization(unit_square(4), 1)
    worst = 0.0
    for k in (0.0, 1.0):
        ksq = k * k
        problem = problem_of(ksq)
        load = disc.load_volume(problem.source)
        primal = solve_mixed(disc, ksq, load)
        aux = solve_auxiliary(disc, ksq, load)
        du = disc.norm_v(aux.u.coeffs - primal.u.coeffs)
        du /= disc.norm_v(primal.u.coeffs)
        jump = disc.jump_n @ aux.p.coeffs
        pscale = max(disc.norm_q(primal.p.coeffs), disc.norm_q(aux.p.coeffs))
        dp = disc.norm_q(aux.p.coeffs - primal.p.coeffs) / pscale
        dlam = (disc.norm_m(aux.lam.coeffs - jump)
                / max(disc.norm_m(jump), 1e-300))
        worst = max(worst, du, dp, dlam)
        assert du <= 1e-8
        assert dp <= 1e-8
        assert dlam <= 1e-8
    report(f"AC5 formulation agreement: PASS (max rel diff {worst:.2e})")


@pytest.mark.parametrize("degree,levels,band", [
    (1, 4, (0.9, 1.3)),
    (2, 3, (1.8, 2.4)),
])
def test_06_convergence_rates(degree, levels, band):
    # smooth field: terminal orders for e_V and e_Q inside the expected
    # bands, exact constraint satisfaction on every level
    t0 = time.perf_counter()
    reportdata = convergence_study(sine_problem(), degree, levels,
                                   margin_samples=100)
    for record in reportdata.records:
        assert record.constraint_residual <= 1e-10
        assert record.coercivity_margin >= -1e-10
    eoc_v, eoc_q = reportdata.terminal_eoc()
    assert band[0] <= eoc_v <= band[1]
    assert band[0] <= eoc_q <= band[1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(f"AC6 convergence (degree {degree}): PASS (terminal EOC "
           f"eV {eoc_v:.3f}, eQ {eoc_q:.3f}, {elapsed:.1f}s)")


def test_07_gradient_sources_are_annihilated():
    # zero source gives the zero solution; a conforming gradient source
    # produces no field at all
    worst_zero = 0.0
    worst_grad = 0.0
    for degree in (1, 2):
        disc = Discretization(unit_square(4), degree)
        zero_load = np.zeros(disc.spaces.dim_V + disc.spaces.dim_Q)
        sol = solve_mixed(disc, 1.0, zero_load)
        znorm = disc.norm_v(sol.u.coeffs) + disc.norm_q(sol.p.coeffs)
        worst_zero = max(worst_zero, znorm)
        assert znorm <= 1e-12

        load, q = gradient_null_data(disc, seed=77)
        scale = np.sqrt(q @ (disc.q_grad_gram @ q))
        grad_sol = solve_mixed(disc, 1.0, load)
        ratio = disc.norm_v(grad_sol.u.coeffs) / scale
        worst_grad = max(worst_grad, ratio)
        assert ratio <= 1e-9
    report(f"AC7 gradient annihilation: PASS (zero {worst_zero:.2e}, "
           f"gradient ratio {worst_grad:.2e})")


def test_08_stability_constants_flat():
    # Friedrichs, inf-sup, kernel ellipticity, shifted kernel inf-sup:
    # strictly positive with bounded step-to-step drift under refinement
    t0 = time.perf_counter()
    meshes = [unit_square(n) for n in (2, 4, 8)]
    rows = constants_sweep(meshes, 1)
    names = ("friedrichs", "infsup_b", "kernel_ellipticity",
             "indefinite_infsup")
    worst = 0.0
    for name in names:
        values = [row[name] for row in rows]
        assert all(v > 0 for v in values), (name, values)
        for prev, cur in zip(values, values[1:]):
            drift = abs(cur - prev) / prev
            worst = max(worst, drift)
            assert drift < 0.20, (name, values)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(f"AC8 stability constants: PASS (max step drift "
           f"{100 * worst:.1f}%, {elapsed:.1f}s)")


def test_09_constraint_residual_decays():
    # the divergence constraint residual of the exact field decays at
    # first order across three refinements
    problem = sine_problem()
    values, sizes = [], []
    for n in (4, 8, 16):
        disc = Discretization(unit_square(n), 1)
        values.append(residual_R2(disc, problem))
        sizes.append(disc.mesh.mesh_size())
    eoc = np.log(values[0] / values[-1]) / np.log(sizes[0] / sizes[-1])
    assert eoc >= 0.9
    report(f"AC9 constraint residual decay: PASS (EOC {eoc:.3f})")


@pytest.mark.xfail(strict=False,
                   reason="stretch target on the singular corner; "
                          "excluded from the pass/fail gate")
def test_10_singular_corner_rate():
    # reentrant corner: the aggregate energy order over four levels sits
    # in the limited-regularity band
    reportdata = convergence_study(lshape_problem(), 1, 4, margin_samples=50)
    first, last = reportdata.records[0], reportdata.records[-1]
    eoc = np.log(first.e_v / last.e_v) / np.log(first.h / last.h)
    assert 0.5 <= eoc <= 0.85
    report(f"AC10 singular corner rate: PASS (aggregate EOC {eoc:.3f})")
