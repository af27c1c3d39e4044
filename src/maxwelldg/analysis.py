"""Verification harness: constants, error norms, convergence studies.

What the ``study`` and ``constants`` commands run: discrete Friedrichs /
inf-sup / ellipticity constants through dense generalized eigenproblems
(size-guarded; these are verification probes, not scalable algorithms;
the Friedrichs constant is read off the whole (seminorm, eps mass)
pencil, whose zero eigenspace is the conforming gradients; the W norm
on V x M is applied part by part, and each form is projected on the
constraint kernel once), a sampled coercivity margin, error
norms against exact solutions (their volume terms by fine quadrature,
their jump terms face by face from the discretization's per-face
Grams), and convergence studies with CSV/markdown reports.  Only the
dense probes import scipy, for its generalized eigensolver, its null
space, SuperLU and its graph components; a study imports none of it.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import Discretization
from .mesh import Mesh
from .problems import ModelProblem
from .quadrature import triangle_rule
from .solver import solve_mixed
from .spaces import conforming_columns

__all__ = [
    "coercivity_margin", "friedrichs_constant", "infsup_constant_B",
    "kernel_ellipticity", "indefinite_infsup", "error_norms",
    "setup_problem", "convergence_study", "constants_sweep",
    "ConvergenceReport", "LevelRecord",
]

# Dense eigenproblems are verification probes on coarse meshes only.
DENSE_GUARD = 3000


def _guard(n: int):
    if n > DENSE_GUARD:
        raise ValueError(
            f"dense eigenproblem size {n} exceeds the guard {DENSE_GUARD}; "
            "constant estimation is restricted to coarse meshes")


def _eigvalsh(form: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric pencil (form, norm), norm
    positive definite."""
    from scipy.linalg import eigh
    return eigh(form, norm, eigvals_only=True)


def _energy(wdet: np.ndarray, vals: np.ndarray, field: np.ndarray) -> float:
    """Quadrature of (field v, v) for vector values vals (ne, np, 2), the
    quadrature weights times det_jac wdet (ne, np) and a per-element 2x2
    weight field."""
    return float(np.vdot(wdet[..., None] * vals,
                         vals @ np.swapaxes(field, 1, 2)))


# ----------------------------------------------------------------------
# sampled coercivity

def coercivity_margin(disc: Discretization, nsamples: int = 200) -> float:
    """Minimum over random coefficient vectors of
    (a(v,v) - 1/2 |v|^2) / |v|^2; nonnegative at the default penalty.
    The forms are applied as they are built, in their element and face
    blocks."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((disc.spaces.dim_V, nsamples))
    av = np.sum(x * (disc.a_matrix @ x), axis=0)
    sv = np.sum(x * (disc.seminorm_gram @ x), axis=0)
    mask = sv > 0
    return float(((av[mask] - 0.5 * sv[mask]) / sv[mask]).min())


# ----------------------------------------------------------------------
# stability constants (dense, coarse meshes)

def _first_betti_number(mesh: Mesh) -> int:
    """Number of holes: connected components minus the Euler
    characteristic V - E + T."""
    # csgraph loads SuperLU's module, which a solve never needs
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    nv = mesh.num_vertices
    graph = coo_matrix((np.ones(mesh.num_faces), mesh.faces.T), shape=(nv, nv))
    components = connected_components(graph, directed=False)[0]
    return components - (nv - mesh.num_faces + mesh.num_elements)


def friedrichs_constant(disc: Discretization) -> float:
    """Largest ratio ||eps^(1/2) v|| / |v|_V over the eps-orthogonal
    complement of the conforming gradient space: the discrete Friedrichs
    constant.  The gradients are the zero eigenspace of the pencil
    (seminorm, eps mass), one eigenvalue per conforming node, so the
    constant is 1/sqrt of the next eigenvalue.  A hole adds a harmonic
    field to that eigenspace, and such meshes are refused."""
    sp = disc.spaces
    _guard(sp.dim_V)
    holes = _first_betti_number(sp.mesh)
    if holes:
        raise ValueError(
            f"the mesh has a hole (first Betti number {holes}): its harmonic "
            "fields have zero seminorm, so the Friedrichs constant is "
            "unbounded")
    ngrad = conforming_columns(sp.mesh, sp.degree)[1]
    ev = _eigvalsh(disc.seminorm_gram.toarray(), disc.mass_eps.toarray())
    return float(1.0 / np.sqrt(ev[ngrad]))


def infsup_constant_B(disc: Discretization) -> float:
    """Inf-sup constant of [b, b_lambda] over (V x M) x Q: sqrt of the least
    eigenvalue of b N_V^-1 b^T + b_lambda L^-1 b_lambda^T against the Q norm
    Gram, N_V the V norm Gram (by SuperLU), L the multipliers' (face by face)."""
    from scipy.sparse.linalg import splu
    _guard(disc.spaces.dim_Q)
    b, b_lambda = disc.b_matrix.tobsr(), disc.b_lambda.tobsr()
    grams = disc.lift_gram_vector.data
    norm_v = disc.seminorm_gram.tobsr() + disc.mass_eps.tobsr()
    s = b @ splu(norm_v.tocsc()).solve(b.T.toarray())
    lifted = np.linalg.solve(grams, b_lambda.T.toarray().reshape(*grams.shape[:2], -1))
    s += b_lambda @ lifted.reshape(b_lambda.shape[1], -1)
    ev = _eigvalsh(s, disc.norm_q_gram.toarray())
    return float(np.sqrt(max(ev[0], 0.0)))


def _kernel_pencil(disc: Discretization, ksq: float) -> tuple[np.ndarray, ...]:
    """The composite form A, the W norm N and the shifted form A - ksq M, M
    the eps mass, on an orthonormal basis Z = (Z_V, Z_M) of the kernel of
    C_w = [b, b_lambda], each form projected once: A = Z_V^T a Z_V + gamma
    Z_M^T L Z_M and N = Z_V^T (seminorm + M) Z_V + Z_M^T L Z_M, L the lifted
    multipliers' Gram.  At most three projections are alive at once."""
    from scipy.linalg import null_space
    nv = disc.spaces.dim_V
    _guard(nv + disc.spaces.dim_M)
    # a contiguous copy of null_space's strided view of its SVD factor
    z = np.ascontiguousarray(null_space(
        np.hstack([disc.b_matrix.toarray(), disc.b_lambda.toarray()])))
    zv, zm = z[:nv], z[nv:]
    form = zv.T @ (disc.a_matrix @ zv)
    norm = zv.T @ (disc.seminorm_gram @ zv)
    lift = zm.T @ (disc.lift_gram_vector @ zm)
    norm += lift
    lift *= disc.gamma
    form += lift
    del lift
    shifted = zv.T @ (disc.mass_eps @ zv)
    norm += shifted
    shifted *= -ksq
    shifted += form
    return form, norm, shifted


def kernel_ellipticity(disc: Discretization) -> float:
    """Smallest generalized eigenvalue of the composite curl/multiplier
    form against the W norm on the constraint kernel."""
    form, norm, _ = _kernel_pencil(disc, 0.0)
    return float(_eigvalsh(form, norm)[0])


def indefinite_infsup(disc: Discretization, ksq: float) -> float:
    """Distance of the shifted kernel form from singularity: the smallest
    absolute generalized eigenvalue of the composite form minus ksq times
    the eps mass, against the W norm, on the constraint kernel."""
    _, norm, shifted = _kernel_pencil(disc, ksq)
    return float(np.abs(_eigvalsh(shifted, norm)).min())


# ----------------------------------------------------------------------
# error measurement

def error_norms(disc: Discretization, problem: ModelProblem,
                u: np.ndarray, p: np.ndarray,
                g_data: np.ndarray | None = None) -> dict:
    """Energy-type errors against the exact fields by fine quadrature.

    The jump part of the field error uses the lifted tangential jump of
    u_h minus the face expansion of the boundary data (the lifting sees
    only that expansion, so this is exact for the lifted seminorm).
    """
    sp = disc.spaces
    mats = disc.materials
    rule = triangle_rule(sp.deg_err)
    pts, wts = rule.points, rule.weights
    phys = sp.phys_points(pts)
    x, y = phys[..., 0], phys[..., 1]

    wdet = sp.det_jac[:, None] * wts

    du = sp.eval_v(u, pts) - np.asarray(problem.exact_u(x, y))
    err_l2 = _energy(wdet, du, mats.eps)

    dcurl = sp.eval_v_curl(u, pts) - np.asarray(problem.exact_curl_u(x, y))
    err_curl = float(np.vdot(wdet * dcurl, mats.mu_bar_inv[:, None] * dcurl))

    # Exact p is continuous with zero trace, so the jump error is p_h's.
    err_jump = disc.tangential_jump_sq(u, g_data)
    err_pjump = disc.normal_jump_sq(p)

    dgp = sp.eval_q_grad(p, pts) - np.asarray(problem.exact_grad_p(x, y))
    err_pgrad = _energy(wdet, dgp, mats.eps)

    return {
        "e_v": float(np.sqrt(max(err_l2 + err_curl + err_jump, 0.0))),
        "e_q": float(np.sqrt(max(err_pgrad + err_pjump, 0.0))),
        "e_l2": float(np.sqrt(max(err_l2, 0.0))),
        "e_curl": float(np.sqrt(max(err_curl, 0.0))),
        "e_jump": float(np.sqrt(max(err_jump, 0.0))),
    }


# ----------------------------------------------------------------------
# convergence studies

@dataclass
class LevelRecord:
    level: int
    h: float
    dofs_u: int
    dofs_p: int
    e_v: float
    e_q: float
    eoc_v: float | None
    eoc_q: float | None
    coercivity_margin: float
    constraint_residual: float
    solver_residual: float
    cond_estimate: float
    ordering: str          # fill-reducing order of the factor
    backward_error: float  # normwise 1-norm backward error of the solve
    time_s: float


@dataclass
class ConvergenceReport:
    problem: str
    degree: int
    ksq: float
    alpha: float
    gamma: float
    records: list = field(default_factory=list)

    CSV_COLUMNS = ["level", "h", "dofs_u", "dofs_p", "eV", "eocV", "eQ",
                   "eocQ", "coercivity_margin", "constraint_residual"]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.CSV_COLUMNS)
        for r in self.records:
            writer.writerow([
                r.level, repr(r.h), r.dofs_u, r.dofs_p, repr(r.e_v),
                "" if r.eoc_v is None else repr(r.eoc_v), repr(r.e_q),
                "" if r.eoc_q is None else repr(r.eoc_q),
                repr(r.coercivity_margin), repr(r.constraint_residual)])
        return buf.getvalue()

    def to_markdown(self) -> str:
        lines = [
            f"# Convergence study: {self.problem}",
            "",
            f"degree {self.degree}, ksq = {self.ksq}, alpha = {self.alpha}, "
            f"gamma = {self.gamma}",
            "",
            "| level | h | dofs u | dofs p | e_V | EOC | e_Q | EOC |",
            "| --- | --- | --- | --- | --- | --- | --- | --- |",
        ]
        for r in self.records:
            ev = f"{r.e_v:.3e}"
            eq = f"{r.e_q:.3e}"
            ov = "" if r.eoc_v is None else f"{r.eoc_v:.2f}"
            oq = "" if r.eoc_q is None else f"{r.eoc_q:.2f}"
            lines.append(f"| {r.level} | {r.h:.4f} | {r.dofs_u} | {r.dofs_p} "
                         f"| {ev} | {ov} | {eq} | {oq} |")
        return "\n".join(lines) + "\n"

    def diagnostics(self) -> dict:
        return {
            "problem": self.problem,
            "degree": self.degree,
            "ksq": self.ksq,
            "levels": [
                {"level": r.level, "h": r.h,
                 "solver_residual": r.solver_residual,
                 "cond_estimate": r.cond_estimate,
                 "ordering": r.ordering,
                 "backward_error": r.backward_error,
                 "constraint_residual": r.constraint_residual,
                 "time_s": r.time_s}
                for r in self.records],
        }


def setup_problem(problem: ModelProblem, mesh: Mesh, degree: int,
                  alpha=None, gamma=None):
    """Discretize a model problem on a mesh: returns the discretization,
    the load vector (volume plus boundary terms), and the face data of
    the tangential trace of exact_u, or None where it vanishes."""
    disc = Discretization(mesh, degree, problem.coeffs, alpha=alpha,
                          gamma=gamma)
    load = disc.load_volume(problem.source)
    g_data = disc.lifting.tangential_boundary_data(problem.exact_u)
    # quadrature roundoff of an analytically zero trace stays well below
    # this; genuine boundary data sits far above it
    if np.abs(g_data).max() <= 1e-13:
        return disc, load, None
    return disc, load + disc.load_boundary(g_data), g_data


def convergence_study(problem: ModelProblem, degree: int, levels: int,
                      alpha=None, gamma=None,
                      margin_samples: int = 100) -> ConvergenceReport:
    """Solve the problem on a refinement sweep and record errors, rates,
    and the per-level coercivity and constraint diagnostics."""
    if levels < 1:
        raise ValueError("levels must be at least 1")
    report = None
    prev = None
    for level in range(levels):
        t0 = time.perf_counter()
        mesh = problem.mesh_factory(level)
        disc, load, g_data = setup_problem(problem, mesh, degree, alpha, gamma)
        if report is None:
            report = ConvergenceReport(problem.name, degree, problem.ksq,
                                       disc.alpha, disc.gamma)
        # the margin caches a, which the system then reads, so a level
        # builds each form once
        margin = coercivity_margin(disc, nsamples=margin_samples)
        sol = solve_mixed(disc, problem.ksq, load)
        errs = error_norms(disc, problem, sol.u, sol.p, g_data=g_data)
        h = mesh.mesh_size()
        eoc_v = eoc_q = None
        if prev is not None:
            ratio = np.log(prev["h"] / h)
            if prev["e_v"] > 0 and errs["e_v"] > 0:
                eoc_v = float(np.log(prev["e_v"] / errs["e_v"]) / ratio)
            if prev["e_q"] > 0 and errs["e_q"] > 0:
                eoc_q = float(np.log(prev["e_q"] / errs["e_q"]) / ratio)
        report.records.append(LevelRecord(
            level=level, h=float(h), dofs_u=disc.spaces.dim_V,
            dofs_p=disc.spaces.dim_Q, e_v=errs["e_v"], e_q=errs["e_q"],
            eoc_v=eoc_v, eoc_q=eoc_q, coercivity_margin=margin,
            constraint_residual=sol.constraint_gap,
            solver_residual=sol.residual,
            cond_estimate=sol.factor.cond_estimate,
            ordering=sol.factor.ordering, backward_error=sol.backward_error,
            time_s=time.perf_counter() - t0))
        prev = {"h": h, "e_v": errs["e_v"], "e_q": errs["e_q"]}
    return report


def constants_sweep(meshes: list[Mesh], degree: int, coeffs=None,
                    ksq: float = 1.0, alpha=None, gamma=None) -> list[dict]:
    """Stability constants across a mesh sweep: lifting bounds, Friedrichs,
    inf-sup, kernel ellipticity, and the shifted kernel inf-sup."""
    rows = []
    for mesh in meshes:
        disc = Discretization(mesh, degree, coeffs, alpha=alpha, gamma=gamma)
        c1, c2 = disc.lifting.stability_constants()
        form, norm, shifted = _kernel_pencil(disc, ksq)   # both kernel constants
        rows.append({
            "h": float(mesh.mesh_size()),
            "dofs": disc.spaces.dim_V,
            "lift_c1": float(c1.min()),
            "lift_c2": float(c2.max()),
            "coercivity_margin": coercivity_margin(disc),
            "friedrichs": friedrichs_constant(disc),
            "infsup_b": infsup_constant_B(disc),
            "kernel_ellipticity": float(_eigvalsh(form, norm)[0]),
            "indefinite_infsup": float(np.abs(_eigvalsh(shifted, norm)).min()),
        })
    return rows
