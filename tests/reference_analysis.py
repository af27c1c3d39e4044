"""Verification probes of the paper's proofs, beside the tests that use them.

The conforming averaging (smoothed-interpolation) operator and its defect
bound, the consistency residual R1 of the lifted fluxes and the
constraint residual R2 of exact solutions, the inf-sup constant of b
without the face multiplier, the sampled continuity bound of ``a``, the
best approximation error in the V(h) norm and the self-adjointness of the source-to-field operator at k = 0.  None of the
``solve``, ``study`` or ``constants`` commands runs them, so they live
here and not in ``maxwelldg.analysis``.  Nothing in the package imports
this module.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import splu

from maxwelldg.analysis import _dense, _energy, _guard
from maxwelldg.assembly import Discretization
from maxwelldg.problems import ModelProblem
from maxwelldg.quadrature import triangle_rule
from maxwelldg.solver import factorize, refined_solve
from maxwelldg.spaces import element_block_diag

import reference_assembly as refasm


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
    ne = mesh.num_elements
    local = coeffs.reshape(ne, sp.ndof_v, 1)
    dofs = (refasm.v_dof_matrices(sp) @ local)[..., 0]
    edge = dofs[:, :3 * l].reshape(ne, 3, l)
    # per (element, local face k): the element across face k and the local
    # index of the face there; on the boundary both are garbage, masked below
    faces = mesh.element_faces
    pair = mesh.face_elements[faces]                          # (ne, 3, 2)
    other = np.where(pair[..., 0] == np.arange(ne)[:, None],
                     pair[..., 1], pair[..., 0])
    k_other = np.argmax(faces[other] == faces[..., None], axis=2)
    mean = 0.5 * (edge + edge[other, k_other])
    mean[mesh.boundary[faces]] = 0.0
    new = dofs.copy()
    new[:, :3 * l] = mean.reshape(ne, 3 * l)
    return (refasm.v_dof_inverses(sp) @ new[..., None]).ravel()


def averaging_defect_ratio(disc: Discretization, coeffs: np.ndarray) -> float:
    """Ratio of the elementwise averaging defect, sum over K of
    h_K^-2 ||v - Pv||_K^2 + ||curl(v - Pv)||_K^2, to the summed
    unweighted lifted tangential jumps of v.  Bounded h-independently."""
    sp = disc.spaces
    mesh = sp.mesh
    diff = (coeffs - conforming_average(disc, coeffs)).reshape(
        mesh.num_elements, sp.ndof_v)
    h_elem = mesh.face_lengths[mesh.element_faces].max(axis=1)
    mass = np.sum((sp.local_v_grams @ diff[..., None])[..., 0] * diff, axis=1)
    curl = np.sum((diff @ sp.ref_curl_gram) * diff, axis=1) / sp.det_jac
    num = mass / h_elem ** 2 + curl
    jumps = refasm.jump_t(disc) @ coeffs
    gram = element_block_diag(disc.lifting.face_grams_scalar())
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
    wdet = sp.det_jac[:, None] * rule.weights
    return ((wdet * vals) @ sp.qbasis.eval(rule.points)).ravel()


def _lift_vector_moments(disc: Discretization, func, degree: int) -> np.ndarray:
    """Per-element moments of a vector callable (layout of the vector
    lifting space, component-minor)."""
    sp = disc.spaces
    rule = triangle_rule(degree)
    phys = sp.phys_points(rule.points)
    vals = np.asarray(func(phys[..., 0], phys[..., 1]))
    wdet = sp.det_jac[:, None, None] * rule.weights[:, None]
    return (sp.qbasis.eval(rule.points).T @ (wdet * vals)).reshape(-1)


def residual_R2(disc: Discretization, problem: ModelProblem,
                degree: int | None = None) -> float:
    """Constraint residual of the exact field: sup over q of b(u, q)
    divided by the Q norm, with u entering by quadrature only."""
    sp = disc.spaces
    deg = sp.deg_err if degree is None else degree
    eps = disc.materials.eps

    def eps_u(x, y):
        return np.asarray(problem.exact_u(x, y)) @ np.swapaxes(eps, 1, 2)

    rule = triangle_rule(deg)
    phys = sp.phys_points(rule.points)
    vals = eps_u(phys[..., 0], phys[..., 1])
    grad_term = sp.mapped_moments(sp.qbasis.grad(rule.points), rule.weights,
                                  vals).ravel()
    moments = _lift_vector_moments(disc, eps_u, deg)
    lift = refasm.lift_vector_matrix(disc.lifting)
    r = -grad_term + refasm.jump_n(disc).T @ (lift.T @ moments)
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
    rho = ((mats.mu_bar_inv[:, None] * curl_ex)
           @ (wts[:, None] * sp.vbasis.curl(pts))).ravel()

    # lifted tangential jump of the test function against the weighted curl
    wcurl_moments = _lift_scalar_moments(
        disc, lambda a, b: np.asarray(problem.exact_curl_u(a, b)), deg)
    wcurl_moments = (wcurl_moments.reshape(sp.mesh.num_elements, sp.ndof_q)
                     * mats.mu_bar_inv[:, None]).ravel()
    rho -= refasm.jump_t(disc).T @ (refasm.lift_scalar_matrix(disc.lifting).T
                            @ wcurl_moments)

    # the volume terms ksq eps u + eps grad p + j, paired with the test
    # functions in one pass
    vals = problem.ksq * np.asarray(problem.exact_u(x, y))
    if problem.exact_grad_p is not None:
        vals = vals + np.asarray(problem.exact_grad_p(x, y))
    vals = vals @ np.swapaxes(mats.eps, 1, 2) + np.asarray(problem.source(x, y))
    rho -= sp.mapped_moments(sp.vbasis.eval(pts), wts, vals).ravel()
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
        probes = _dense(refasm.conforming_v_basis(disc.spaces))
    worst = 0.0
    for k in range(probes.shape[1]):
        v = probes[:, k]
        denom = disc.norm_v(v)
        if denom > 0:
            worst = max(worst, abs(float(rho @ v)) / denom)
    return worst


# ----------------------------------------------------------------------
# sampled continuity, best approximation, self-adjointness

def infsup_without_multiplier(disc: Discretization) -> float:
    """Inf-sup constant of b alone over V x Q, in the norm geometries of
    V and Q: `infsup_constant_B` without the face multiplier, which alone
    controls the checkerboard modes of Q."""
    _guard(disc.spaces.dim_Q)
    b = disc.b_matrix
    s = b @ splu(disc.norm_v_gram.tocsc()).solve(_dense(b.T))
    ev = eigh(np.asarray(s), _dense(disc.norm_q_gram), eigvals_only=True)
    return float(np.sqrt(max(ev[0], 0.0)))


def continuity_bound(disc: Discretization, nsamples: int = 200,
                     seed: int = 0) -> float:
    """Max over random pairs of |a(u,v)| / (||u||_V ||v||_V)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((disc.spaces.dim_V, nsamples))
    y = rng.standard_normal((disc.spaces.dim_V, nsamples))
    num = np.abs(np.sum(y * (disc.a_matrix @ x), axis=0))
    nx = np.sqrt(np.sum(x * (disc.norm_v_gram @ x), axis=0))
    ny = np.sqrt(np.sum(y * (disc.norm_v_gram @ y), axis=0))
    return float((num / (nx * ny)).max())


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
    eps_u = u_ex @ np.swapaxes(mats.eps, 1, 2)
    curl_ex = np.asarray(problem.exact_curl_u(x, y))
    wcurl = mats.mu_bar_inv[:, None] * curl_ex

    rhs = sp.mapped_moments(sp.vbasis.eval(pts), wts, eps_u).ravel()
    rhs += (wcurl @ (wts[:, None] * sp.vbasis.curl(pts))).ravel()

    wdet = sp.det_jac[:, None] * wts
    const = _energy(wdet, u_ex, mats.eps)
    const += float(np.vdot(wdet * curl_ex, wcurl))
    if g_data is not None and np.any(g_data):
        gram = refasm.lift_gram_scalar(disc)
        rhs += refasm.jump_t(disc).T @ (gram @ g_data)
        const += float(g_data @ (gram @ g_data))

    lu = splu(disc.norm_v_gram.tocsc())
    best = lu.solve(rhs)
    return float(np.sqrt(max(const - rhs @ best, 0.0)))


def self_adjointness_gap(disc: Discretization, nprobe: int = 4,
                         seed: int = 0) -> float:
    """Relative symmetry defect of the source-to-field operator at ksq=0
    in the eps inner product, probed with random source densities: the
    source of density c is eps times the V field with coefficients c."""
    system = disc.primal_system(0.0)
    lu, _ = factorize(system, disc.dissection[1])
    dofs = disc.system_order
    nv = disc.spaces.dim_V
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((nprobe, nv))
    m = disc.mass_eps
    load, field = np.zeros(system.shape[0]), np.empty(system.shape[0])
    fields = []
    for ci in c:
        load[:nv] = m @ ci
        field[dofs] = refined_solve(system, lu, load[dofs])
        fields.append(field[:nv].copy())
    pairings = np.array([[ci @ (m @ uj) for uj in fields] for ci in c])
    scale = np.abs(pairings).max()
    gap = np.abs(pairings - pairings.T).max()
    return float(gap / scale) if scale > 0 else 0.0
