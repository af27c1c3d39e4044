"""Verification harness: averaging, residuals, constants, convergence.

Everything here exists to check the theory numerically at desk scale:
conforming averaging and its approximation bound, consistency residuals
against exact solutions, discrete Friedrichs / inf-sup / ellipticity
constants through dense generalized eigenproblems (size-guarded; these
are verification probes, not scalable algorithms), error norms, and
convergence studies with CSV/markdown reports.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh, null_space
from scipy.sparse import block_diag
from scipy.sparse.linalg import splu

from .assembly import Discretization
from .mesh import Mesh
from .problems import ModelProblem
from .quadrature import triangle_rule
from .solver import Solution, SolutionOperator, solve_auxiliary, solve_mixed
from .spaces import element_block_diag

__all__ = [
    "conforming_average", "averaging_defect_ratio", "residual_R2",
    "consistency_residual", "consistency_check_R1", "coercivity_margin",
    "friedrichs_constant", "infsup_constant_B", "kernel_ellipticity",
    "indefinite_infsup", "error_norms", "best_approximation_error",
    "setup_problem", "convergence_study", "constants_sweep",
    "self_adjointness_gap", "ConvergenceReport", "LevelRecord",
]

# Dense eigenproblems are verification probes on coarse meshes only.
DENSE_GUARD = 3000


def _guard(n: int):
    if n > DENSE_GUARD:
        raise ValueError(
            f"dense eigenproblem size {n} exceeds the guard {DENSE_GUARD}; "
            "constant estimation is restricted to coarse meshes")


def _dense(mat) -> np.ndarray:
    return np.asarray(mat.todense())


# ----------------------------------------------------------------------
# conforming averaging

def conforming_average(disc: Discretization, coeffs: np.ndarray) -> np.ndarray:
    """Project onto the tangentially continuous zero-trace subspace by
    averaging the two edge-moment degrees of freedom meeting at every
    interior face (arithmetic mean) and zeroing boundary edge moments;
    interior moments are kept."""
    sp = disc.spaces
    mesh = sp.mesh
    l = sp.degree
    dmats = sp.v_dof_matrices()
    dinv = sp.v_dof_inverses()
    local = coeffs.reshape(mesh.num_elements, sp.ndof_v)
    dofs = np.einsum("eij,ej->ei", dmats, local)
    new = dofs.copy()
    for f in range(mesh.num_faces):
        sides = []
        for e in mesh.face_elements[f]:
            if e < 0:
                continue
            k = int(np.flatnonzero(mesh.element_faces[e] == f)[0])
            sides.append((int(e), k))
        if mesh.boundary[f]:
            e, k = sides[0]
            new[e, k * l:(k + 1) * l] = 0.0
        else:
            (e0, k0), (e1, k1) = sides
            mean = 0.5 * (dofs[e0, k0 * l:(k0 + 1) * l]
                          + dofs[e1, k1 * l:(k1 + 1) * l])
            new[e0, k0 * l:(k0 + 1) * l] = mean
            new[e1, k1 * l:(k1 + 1) * l] = mean
    return np.einsum("eij,ej->ei", dinv, new).ravel()


def averaging_defect_ratio(disc: Discretization, coeffs: np.ndarray) -> float:
    """Ratio of the elementwise averaging defect, sum over K of
    h_K^-2 ||v - Pv||_K^2 + ||curl(v - Pv)||_K^2, to the summed
    unweighted lifted tangential jumps of v.  Bounded h-independently."""
    sp = disc.spaces
    mesh = sp.mesh
    diff = (coeffs - conforming_average(disc, coeffs)).reshape(
        mesh.num_elements, sp.ndof_v)
    grams = sp.local_v_grams()
    curl_blocks = sp.ref_curl_gram[None, :, :] / sp.det_jac[:, None, None]
    h_elem = mesh.face_lengths[mesh.element_faces].max(axis=1)
    num = np.einsum("ei,eij,ej->e", diff, grams, diff) / h_elem ** 2
    num = num + np.einsum("ei,eij,ej->e", diff, curl_blocks, diff)
    jumps = disc.jump_t @ coeffs
    gram = disc.lifting.block_diag_scalar(np.ones(mesh.num_faces))
    den = float(jumps @ (gram @ jumps))
    return float(num.sum() / den) if den > 0 else 0.0


# ----------------------------------------------------------------------
# residual functionals of exact solutions

def _lift_scalar_moments(disc: Discretization, func, degree: int) -> np.ndarray:
    """Per-element moments of a scalar callable against the broken
    orthonormal scalar basis (layout of the scalar lifting space)."""
    sp = disc.spaces
    rule = triangle_rule(degree)
    phys = sp.phys_points(rule.points)
    vals = np.asarray(func(phys[..., 0], phys[..., 1]))
    qref = sp.qbasis.eval(rule.points)
    return np.einsum("p,pr,ep,e->er", rule.weights, qref, vals,
                     sp.det_jac).ravel()


def _lift_vector_moments(disc: Discretization, func, degree: int) -> np.ndarray:
    """Per-element moments of a vector callable (layout of the vector
    lifting space, component-minor)."""
    sp = disc.spaces
    rule = triangle_rule(degree)
    phys = sp.phys_points(rule.points)
    vals = np.asarray(func(phys[..., 0], phys[..., 1]))
    qref = sp.qbasis.eval(rule.points)
    return np.einsum("p,pr,epc,e->erc", rule.weights, qref, vals,
                     sp.det_jac).reshape(-1)


def residual_R2(disc: Discretization, problem: ModelProblem,
                degree: int | None = None) -> float:
    """Constraint residual of the exact field: sup over q of b(u, q)
    divided by the Q norm, with u entering by quadrature only."""
    if not problem.div_free:
        raise ValueError("constraint residual requires a divergence-free field")
    sp = disc.spaces
    deg = sp.deg_err if degree is None else degree
    eps = disc.materials.eps

    def eps_u(x, y):
        return np.einsum("ecd,epd->epc", eps, problem.exact_u(x, y))

    rule = triangle_rule(deg)
    phys = sp.phys_points(rule.points)
    vals = eps_u(phys[..., 0], phys[..., 1])
    qgrad = sp.qbasis.grad(rule.points)
    mapped = np.einsum("edk,pjk->epjd", sp.inv_jac_t, qgrad)
    grad_term = np.einsum("p,epjd,epd,e->ej", rule.weights, mapped, vals,
                          sp.det_jac).ravel()
    moments = _lift_vector_moments(disc, eps_u, deg)
    r = -grad_term + disc.jump_n.T @ (disc.lifting.lift_vector_matrix().T
                                      @ moments)
    lu = splu(disc.norm_q_gram.tocsc())
    return float(np.sqrt(max(r @ lu.solve(r), 0.0)))


def consistency_residual(disc: Discretization, problem: ModelProblem,
                         degree: int | None = None) -> np.ndarray:
    """V-dual vector of the first-equation residual of the exact solution:
    entries a(u, v_i) - ksq (eps u, v_i) + b(v_i, p) - (j, v_i), with the
    exact fields entering by quadrature."""
    sp = disc.spaces
    deg = sp.deg_err if degree is None else degree
    mats = disc.materials
    rule = triangle_rule(deg)
    pts, wts = rule.points, rule.weights
    phys = sp.phys_points(pts)
    x, y = phys[..., 0], phys[..., 1]

    # det_jac cancels against the reference curl scaling in this term
    curl_ex = np.asarray(problem.exact_curl_u(x, y))
    vcurl = sp.vbasis.curl(pts)
    rho = np.einsum("p,pi,ep->ei", wts, vcurl,
                    mats.mu_bar_inv[:, None] * curl_ex).ravel()

    # lifted tangential jump of the test function against the weighted curl
    wcurl_moments = _lift_scalar_moments(
        disc, lambda a, b: np.asarray(problem.exact_curl_u(a, b)), deg)
    wcurl_moments = (wcurl_moments.reshape(sp.mesh.num_elements, sp.ndof_q)
                     * mats.mu_bar_inv[:, None]).ravel()
    rho -= disc.jump_t.T @ (disc.lifting.lift_scalar_matrix().T @ wcurl_moments)

    u_ex = np.asarray(problem.exact_u(x, y))
    eps_u = np.einsum("ecd,epd->epc", mats.eps, u_ex)
    mapped = np.einsum("edk,pnk->epnd", sp.inv_jac_t, sp.vbasis.eval(pts))
    rho -= problem.ksq * np.einsum("p,epnd,epd,e->en", wts, mapped, eps_u,
                                   sp.det_jac).ravel()

    if problem.exact_grad_p is not None:
        gp = np.asarray(problem.exact_grad_p(x, y))
        eps_gp = np.einsum("ecd,epd->epc", mats.eps, gp)
        rho -= np.einsum("p,epnd,epd,e->en", wts, mapped, eps_gp,
                         sp.det_jac).ravel()

    j_ex = np.asarray(problem.source(x, y))
    rho -= np.einsum("p,epnd,epd,e->en", wts, mapped, j_ex,
                     sp.det_jac).ravel()
    # Lifted boundary terms of the exact field cancel the boundary load
    # exactly (both see only the modal face expansion of the trace), so
    # neither appears here.
    return rho


def consistency_check_R1(disc: Discretization, problem: ModelProblem,
                         probes: np.ndarray | None = None,
                         degree: int | None = None) -> float:
    """Max over test directions of |R1(v)| / ||v||_V.  With probes=None the
    directions are the conforming zero-trace basis (where the residual is
    a pure projection and quadrature defect); explicit probe columns serve
    as the nonconforming negative control."""
    rho = consistency_residual(disc, problem, degree=degree)
    if probes is None:
        probes = np.asarray(disc.spaces.conforming_v_basis().matrix.todense())
    worst = 0.0
    for k in range(probes.shape[1]):
        v = probes[:, k]
        denom = disc.norm_v(v)
        if denom > 0:
            worst = max(worst, abs(float(rho @ v)) / denom)
    return worst


# ----------------------------------------------------------------------
# sampled form bounds

def coercivity_margin(disc: Discretization, nsamples: int = 200,
                      seed: int = 0) -> float:
    """Minimum over random coefficient vectors of
    (a(v,v) - 1/2 |v|^2) / |v|^2; nonnegative at the default penalty."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((disc.spaces.dim_V, nsamples))
    av = np.einsum("in,in->n", x, disc.a_matrix @ x)
    sv = np.einsum("in,in->n", x, disc.seminorm_gram @ x)
    mask = sv > 0
    return float(((av[mask] - 0.5 * sv[mask]) / sv[mask]).min())


def continuity_bound(disc: Discretization, nsamples: int = 200,
                     seed: int = 0) -> float:
    """Max over random pairs of |a(u,v)| / (||u||_V ||v||_V)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((disc.spaces.dim_V, nsamples))
    y = rng.standard_normal((disc.spaces.dim_V, nsamples))
    num = np.abs(np.einsum("in,in->n", y, disc.a_matrix @ x))
    nx = np.sqrt(np.einsum("in,in->n", x, disc.norm_v_gram @ x))
    ny = np.sqrt(np.einsum("in,in->n", y, disc.norm_v_gram @ y))
    return float((num / (nx * ny)).max())


# ----------------------------------------------------------------------
# stability constants (dense, coarse meshes)

def friedrichs_constant(disc: Discretization) -> float:
    """Largest ratio ||eps^(1/2) v|| / |v|_V over the eps-orthogonal
    complement of the conforming gradient space: the discrete Friedrichs
    constant."""
    sp = disc.spaces
    _guard(sp.dim_V)
    conf = sp.conforming_q_basis()
    gmap = element_block_diag(sp.gradient_map())
    kspace = _dense(gmap @ conf.matrix)                    # dim_V x nconf
    m_eps = _dense(disc.mass_eps)
    comp = null_space(kspace.T @ m_eps)
    a1 = comp.T @ m_eps @ comp
    a2 = comp.T @ _dense(disc.seminorm_gram) @ comp
    ev = eigh(a1, a2, eigvals_only=True)
    return float(np.sqrt(max(ev[-1], 0.0)))


def infsup_constant_B(disc: Discretization,
                      include_multiplier: bool = True) -> float:
    """Inf-sup constant of the constraint form over (V x M) x Q via the
    generalized singular value problem in the norm geometries."""
    sp = disc.spaces
    _guard(sp.dim_Q)
    if include_multiplier:
        bw = disc.constraint_w
        nw = disc.norm_w_gram
    else:
        bw = disc.b_matrix
        nw = disc.norm_v_gram
    lu = splu(nw.tocsc())
    s = bw @ lu.solve(_dense(bw.T))
    ev = eigh(np.asarray(s), _dense(disc.norm_q_gram), eigvals_only=True)
    return float(np.sqrt(max(ev[0], 0.0)))


def _kernel_basis(disc: Discretization) -> np.ndarray:
    _guard(disc.spaces.dim_V + disc.spaces.dim_M)
    return null_space(_dense(disc.constraint_w))


def kernel_ellipticity(disc: Discretization,
                       kernel: np.ndarray | None = None) -> float:
    """Smallest generalized eigenvalue of the composite curl/multiplier
    form against the W norm on the constraint kernel."""
    z = _kernel_basis(disc) if kernel is None else kernel
    ablk = block_diag([disc.a_matrix, disc.gamma_gram], format="csr")
    a1 = z.T @ (ablk @ z)
    a2 = z.T @ (disc.norm_w_gram @ z)
    ev = eigh(a1, a2, eigvals_only=True)
    return float(ev[0])


def indefinite_infsup(disc: Discretization, ksq: float,
                      kernel: np.ndarray | None = None) -> float:
    """Distance of the shifted kernel form from singularity: the smallest
    absolute generalized eigenvalue of the composite form minus ksq times
    the eps mass, against the W norm, on the constraint kernel."""
    z = _kernel_basis(disc) if kernel is None else kernel
    shifted = block_diag([disc.a_matrix - ksq * disc.mass_eps,
                          disc.gamma_gram], format="csr")
    a1 = z.T @ (shifted @ z)
    a2 = z.T @ (disc.norm_w_gram @ z)
    ev = eigh(a1, a2, eigvals_only=True)
    return float(np.abs(ev).min())


# ----------------------------------------------------------------------
# error measurement

def error_norms(disc: Discretization, problem: ModelProblem,
                u: np.ndarray, p: np.ndarray,
                g_data: np.ndarray | None = None,
                degree: int | None = None) -> dict:
    """Energy-type errors against the exact fields by fine quadrature.

    The jump part of the field error uses the lifted tangential jump of
    u_h minus the face expansion of the boundary data (the lifting sees
    only that expansion, so this is exact for the lifted seminorm).
    """
    sp = disc.spaces
    deg = sp.deg_err if degree is None else degree
    mats = disc.materials
    rule = triangle_rule(deg)
    pts, wts = rule.points, rule.weights
    phys = sp.phys_points(pts)
    x, y = phys[..., 0], phys[..., 1]

    du = sp.eval_v(u, pts) - np.asarray(problem.exact_u(x, y))
    eps_du = np.einsum("ecd,epd->epc", mats.eps, du)
    err_l2 = float(np.einsum("p,epc,epc,e->", wts, du, eps_du, sp.det_jac))

    dcurl = sp.eval_v_curl(u, pts) - np.asarray(problem.exact_curl_u(x, y))
    err_curl = float(np.einsum("p,ep,ep,e->", wts, dcurl,
                               mats.mu_bar_inv[:, None] * dcurl, sp.det_jac))

    jump = disc.jump_t @ u
    if g_data is not None:
        jump = jump - g_data
    err_jump = float(jump @ (disc.lift_gram_scalar @ jump))

    dgp = sp.eval_q_grad(p, pts) - np.asarray(problem.exact_grad_p(x, y))
    eps_dgp = np.einsum("ecd,epd->epc", mats.eps, dgp)
    err_pgrad = float(np.einsum("p,epc,epc,e->", wts, dgp, eps_dgp,
                                sp.det_jac))
    # Exact p is continuous with zero trace, so the jump error is p_h's.
    pjump = disc.jump_n @ p
    err_pjump = float(pjump @ (disc.lift_gram_vector @ pjump))

    return {
        "e_v": float(np.sqrt(max(err_l2 + err_curl + err_jump, 0.0))),
        "e_q": float(np.sqrt(max(err_pgrad + err_pjump, 0.0))),
        "e_l2": float(np.sqrt(max(err_l2, 0.0))),
        "e_curl": float(np.sqrt(max(err_curl, 0.0))),
        "e_jump": float(np.sqrt(max(err_jump, 0.0))),
    }


def best_approximation_error(disc: Discretization, problem: ModelProblem,
                             g_data: np.ndarray | None = None,
                             degree: int | None = None) -> float:
    """Distance of the exact field from V_h in the V(h) norm, by solving
    the normal equations of the quadratic distance functional."""
    sp = disc.spaces
    deg = sp.deg_err if degree is None else degree
    mats = disc.materials
    rule = triangle_rule(deg)
    pts, wts = rule.points, rule.weights
    phys = sp.phys_points(pts)
    x, y = phys[..., 0], phys[..., 1]

    u_ex = np.asarray(problem.exact_u(x, y))
    eps_u = np.einsum("ecd,epd->epc", mats.eps, u_ex)
    curl_ex = np.asarray(problem.exact_curl_u(x, y))

    mapped = np.einsum("edk,pnk->epnd", sp.inv_jac_t, sp.vbasis.eval(pts))
    rhs = np.einsum("p,epnd,epd,e->en", wts, mapped, eps_u, sp.det_jac).ravel()
    vcurl = sp.vbasis.curl(pts)
    wcurl = mats.mu_bar_inv[:, None] * curl_ex
    rhs += (np.einsum("p,pi,ep->ei", wts, vcurl, wcurl)).ravel()

    const = float(np.einsum("p,epc,epc,e->", wts, u_ex, eps_u, sp.det_jac))
    const += float(np.einsum("p,ep,ep,e->", wts, curl_ex,
                             mats.mu_bar_inv[:, None] * curl_ex, sp.det_jac))
    if g_data is not None and np.any(g_data):
        rhs += disc.jump_t.T @ (disc.lift_gram_scalar @ g_data)
        const += float(g_data @ (disc.lift_gram_scalar @ g_data))

    lu = splu(disc.norm_v_gram.tocsc())
    best = lu.solve(rhs)
    return float(np.sqrt(max(const - rhs @ best, 0.0)))


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
    pivot_ratio: float
    r2: float | None
    time_s: float


@dataclass
class ConvergenceReport:
    problem: str
    degree: int
    ksq: float
    alpha: float
    gamma: float
    formulation: str
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
            f"gamma = {self.gamma}, formulation = {self.formulation}",
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
                 "pivot_ratio": r.pivot_ratio,
                 "constraint_residual": r.constraint_residual,
                 "r2": r.r2, "time_s": r.time_s}
                for r in self.records],
        }

    def terminal_eoc(self) -> tuple[float | None, float | None]:
        if not self.records:
            return None, None
        return self.records[-1].eoc_v, self.records[-1].eoc_q


def setup_problem(problem: ModelProblem, mesh: Mesh, degree: int,
                  alpha="auto", gamma="auto"):
    """Discretize a model problem on a mesh: returns the discretization,
    the load vector (volume plus boundary terms), and the boundary face
    data."""
    a = None if alpha == "auto" else alpha
    g = None if gamma == "auto" else gamma
    disc = Discretization(mesh, degree, problem.coeffs, alpha=a, gamma=g)
    load = np.zeros(disc.spaces.dim_V + disc.spaces.dim_Q)
    if problem.source is not None:
        load += disc.load_volume(problem.source)
    g_data = None
    if problem.boundary_u is not None:
        g_data = disc.lifting.tangential_boundary_data(problem.boundary_u)
        # quadrature roundoff of an analytically zero trace stays well
        # below this; genuine boundary data sits far above it
        if np.abs(g_data).max() > 1e-13:
            load += disc.load_boundary(g_data)
        else:
            g_data = None
    return disc, load, g_data


def convergence_study(problem: ModelProblem, degree: int, levels: int,
                      alpha="auto", gamma="auto", formulation: str = "primal",
                      margin_samples: int = 100,
                      with_r2: bool = False) -> ConvergenceReport:
    """Solve the problem on a refinement sweep and record errors, rates,
    and the per-level coercivity and constraint diagnostics."""
    if levels < 1:
        raise ValueError("levels must be at least 1")
    if formulation not in ("primal", "auxiliary"):
        raise ValueError(f"unknown formulation {formulation!r}")
    report = None
    prev = None
    for level in range(levels):
        t0 = time.perf_counter()
        mesh = problem.mesh(level)
        disc, load, g_data = setup_problem(problem, mesh, degree, alpha, gamma)
        if report is None:
            report = ConvergenceReport(problem.name, degree, problem.ksq,
                                       disc.alpha[0], disc.gamma[0],
                                       formulation)
        if formulation == "primal":
            sol = solve_mixed(disc, problem.ksq, load)
        else:
            sol = solve_auxiliary(disc, problem.ksq, load)
        errs = error_norms(disc, problem, sol.u.coeffs, sol.p.coeffs,
                           g_data=g_data)
        margin = coercivity_margin(disc, nsamples=margin_samples)
        r2 = residual_R2(disc, problem) if with_r2 and problem.div_free else None
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
            solver_residual=sol.residual, pivot_ratio=sol.pivot_ratio,
            r2=r2, time_s=time.perf_counter() - t0))
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
        kernel = _kernel_basis(disc)
        rows.append({
            "h": float(mesh.mesh_size()),
            "dofs": disc.spaces.dim_V,
            "lift_c1": float(c1.min()),
            "lift_c2": float(c2.max()),
            "coercivity_margin": coercivity_margin(disc),
            "friedrichs": friedrichs_constant(disc),
            "infsup_b": infsup_constant_B(disc),
            "kernel_ellipticity": kernel_ellipticity(disc, kernel),
            "indefinite_infsup": indefinite_infsup(disc, ksq, kernel),
        })
    return rows


def self_adjointness_gap(disc: Discretization, nprobe: int = 4,
                         seed: int = 0) -> float:
    """Relative symmetry defect of the source-to-field operator at ksq=0
    in the eps inner product, probed with random source densities."""
    op = SolutionOperator(disc, 0.0)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((nprobe, disc.spaces.dim_V))
    fields = [op.apply_density(ci).u.coeffs for ci in c]
    m = disc.mass_eps
    pairings = np.array([[ci @ (m @ uj) for uj in fields] for ci in c])
    scale = np.abs(pairings).max()
    gap = np.abs(pairings - pairings.T).max()
    return float(gap / scale) if scale > 0 else 0.0
