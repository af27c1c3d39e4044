"""Assembly of the mixed interior penalty system.

The discrete problem couples a broken curl-conforming field u with a
broken scalar multiplier p (and optionally the face multiplier carrying
the normal jump of p):

    a(u, v) - ksq (eps u, v) + b(v, p) = (j, v) + boundary terms
    b(u, q) - c(p, q)                  = 0

All nonlocal coupling runs through the face lifting operators; the
penalty and jump terms are therefore sums of per-face rank-(l+1)
contributions and the stencil never grows past face neighbors.  The
graph of each system is thus the element dual graph with dense element
blocks, and a nested-dissection order of the elements is an elimination
order of the system's unknowns.
The systems are assembled in compressed sparse column form, the form the
sparse factorization reads.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.sparse import block_diag, bmat, csc_matrix, csr_matrix

from .lifting import Lifting
from .materials import Coefficients, MaterialArrays
from .mesh import Mesh
from .quadrature import triangle_rule
from .spaces import Spaces, element_block_diag

__all__ = ["Discretization", "DofBlocks"]

# Each triangle has 3 face neighbors; the coercivity threshold for the
# penalty weights is 1/2 + 2 * 3.
FACES_PER_ELEMENT = 3
DEFAULT_ALPHA = 0.5 + 2.0 * FACES_PER_ELEMENT
DEFAULT_GAMMA = 0.5
# Parts of the mesh with at most this many unknowns are not cut further:
# each is one front of the factor.
FRONT_LEAF = 96


class DofBlocks(NamedTuple):
    """Block layout of a system's unknowns for its multifrontal factor.

    element_dofs : (ne, b) unknowns of each element, eliminated together,
        the elements in elimination order
    bounds : the elements in rows bounds[j] to bounds[j + 1] - 1 are
        eliminated in one front
    face_dofs : (nf, m) face multiplier unknowns, eliminated first, or
        None when the system has none
    """

    element_dofs: np.ndarray
    bounds: np.ndarray
    face_dofs: np.ndarray | None


class Discretization:
    """Spaces, liftings, materials, and the assembled operators.

    alpha (curl penalty) and gamma (multiplier penalty) may be scalars or
    per-face arrays; alpha defaults to the coercivity threshold 6.5.
    """

    def __init__(self, mesh: Mesh, degree: int, coeffs: Coefficients | None = None,
                 alpha=None, gamma=None):
        nf = mesh.num_faces
        self.alpha = np.broadcast_to(
            np.asarray(DEFAULT_ALPHA if alpha is None else alpha, dtype=float),
            (nf,)).copy()
        self.gamma = np.broadcast_to(
            np.asarray(DEFAULT_GAMMA if gamma is None else gamma, dtype=float),
            (nf,)).copy()
        if np.any(self.alpha <= 0.0) or np.any(self.gamma <= 0.0):
            raise ValueError("penalty weights must be positive")
        self.mesh = mesh
        self.spaces = Spaces(mesh, degree)
        self.lifting = Lifting(self.spaces)
        self.coeffs = coeffs if coeffs is not None else Coefficients.vacuum()
        self.materials: MaterialArrays = self.coeffs.expand(mesh)

    # ------------------------------------------------------------------
    # volume operators

    @cached_property
    def curl_stiffness(self) -> csr_matrix:
        sp = self.spaces
        scale = self.materials.mu_bar_inv / sp.det_jac
        blocks = scale[:, None, None] * sp.ref_curl_gram[None, :, :]
        return element_block_diag(blocks)

    def mass_v(self, field: np.ndarray | None = None) -> csr_matrix:
        """V mass matrix with an optional per-element 2x2 weight."""
        sp = self.spaces
        return element_block_diag(sp.mapped_gram(sp.ref_vcomp_gram, field))

    @cached_property
    def mass_eps(self) -> csr_matrix:
        return self.mass_v(self.materials.eps)

    @cached_property
    def grad_pair(self) -> csr_matrix:
        """(eps v, grad q) pairing, rows V dofs, columns Q dofs."""
        sp = self.spaces
        return element_block_diag(
            sp.mapped_gram(sp.ref_v_qgrad, self.materials.eps))

    @cached_property
    def q_grad_gram(self) -> csr_matrix:
        """(eps grad q, grad q') broken gradient Gram on Q."""
        sp = self.spaces
        return element_block_diag(
            sp.mapped_gram(sp.ref_qgrad_gram, self.materials.eps))

    # ------------------------------------------------------------------
    # face operators

    @cached_property
    def jump_t(self) -> csr_matrix:
        return self.lifting.jump_tangential

    @cached_property
    def jump_n(self) -> csr_matrix:
        return self.lifting.jump_normal

    @cached_property
    def curl_pair(self) -> csr_matrix:
        return self.lifting.curl_pair(self.materials.mu_bar_inv)

    @cached_property
    def lift_gram_scalar(self) -> csr_matrix:
        """Block diagonal of (mu_bar^-1 r_F(.), r_F(.)), no penalty factor."""
        return self.lifting.block_diag_scalar(
            np.ones(self.mesh.num_faces), self.materials.mu_bar_inv)

    @cached_property
    def lift_gram_vector(self) -> csr_matrix:
        """Block diagonal of (eps R_F(.), R_F(.)), no penalty factor."""
        return self.lifting.block_diag_vector(
            np.ones(self.mesh.num_faces), self.materials.eps)

    @cached_property
    def gamma_gram(self) -> csr_matrix:
        return self.lifting.block_diag_vector(self.gamma, self.materials.eps)

    # ------------------------------------------------------------------
    # forms

    @cached_property
    def penalty_gram(self) -> csr_matrix:
        return self.lifting.block_diag_scalar(self.alpha,
                                              self.materials.mu_bar_inv)

    @cached_property
    def a_matrix(self) -> csr_matrix:
        """Curl form: the volume term plus the lifted consistency and
        penalty terms of the tangential jumps."""
        jt, w = self.jump_t, self.curl_pair
        return csr_matrix(self.curl_stiffness - jt.T @ w - w.T @ jt
                          + jt.T @ self.penalty_gram @ jt)

    @cached_property
    def b_matrix(self) -> csr_matrix:
        """Mixed form -(eps v, grad q) plus the lifted normal-jump term;
        rows Q dofs, columns V dofs."""
        value_pair = self.lifting.vector_value_pair(self.materials.eps)
        return csr_matrix(-self.grad_pair.T + self.jump_n.T @ value_pair)

    @cached_property
    def c_matrix(self) -> csr_matrix:
        return csr_matrix(self.jump_n.T @ self.gamma_gram @ self.jump_n)

    @cached_property
    def b_lambda(self) -> csr_matrix:
        """Multiplier block of the constraint row, rows Q, columns face dofs."""
        return csr_matrix(-self.jump_n.T @ self.gamma_gram)

    # ------------------------------------------------------------------
    # norms

    @cached_property
    def seminorm_gram(self) -> csr_matrix:
        jt = self.jump_t
        return csr_matrix(self.curl_stiffness + jt.T @ self.lift_gram_scalar @ jt)

    @cached_property
    def norm_v_gram(self) -> csr_matrix:
        return csr_matrix(self.seminorm_gram + self.mass_eps)

    @cached_property
    def norm_q_gram(self) -> csr_matrix:
        jn = self.jump_n
        return csr_matrix(self.q_grad_gram + jn.T @ self.lift_gram_vector @ jn)

    @cached_property
    def norm_w_gram(self) -> csr_matrix:
        """Norm of the composite field/multiplier space V x M."""
        return block_diag([self.norm_v_gram, self.lift_gram_vector],
                          format="csr")

    # ------------------------------------------------------------------
    # systems

    def primal_system(self, ksq: float) -> csc_matrix:
        lhs = self.a_matrix - ksq * self.mass_eps
        return bmat([[lhs, self.b_matrix.T],
                     [self.b_matrix, -self.c_matrix]], format="csc")

    def auxiliary_system(self, ksq: float) -> csc_matrix:
        lhs = self.a_matrix - ksq * self.mass_eps
        gamma_jn = self.gamma_gram @ self.jump_n
        return bmat([
            [lhs, None, self.b_matrix.T],
            [None, self.gamma_gram, -gamma_jn],
            [self.b_matrix, -gamma_jn.T, None]], format="csc")

    def dof_blocks(self, multiplier: bool = False) -> DofBlocks:
        """The unknowns of the primal (V, Q) or, with the multiplier, the
        auxiliary (V, M, Q) system in element blocks, the elements in the
        mesh's nested-dissection order: per element its V dofs, then its Q
        dofs, and per face its M dofs."""
        sp, mesh = self.spaces, self.mesh
        ne, nf = mesh.num_elements, mesh.num_faces
        nm = sp.dim_M if multiplier else 0
        v = np.arange(sp.dim_V).reshape(ne, sp.ndof_v)
        q = sp.dim_V + nm + np.arange(sp.dim_Q).reshape(ne, sp.ndof_q)
        faces = (sp.dim_V + np.arange(nm).reshape(nf, sp.ndof_m)
                 if multiplier else None)
        order, bounds = mesh.dissection(
            max(1, FRONT_LEAF // (sp.ndof_v + sp.ndof_q)))
        return DofBlocks(np.hstack([v, q])[order], bounds, faces)

    @cached_property
    def constraint_w(self) -> csr_matrix:
        """Constraint operator on V x M: rows Q, columns (V, M)."""
        return bmat([[self.b_matrix, self.b_lambda]], format="csr")

    # ------------------------------------------------------------------
    # loads

    def load_volume(self, func, degree: int | None = None) -> np.ndarray:
        """(f, v) for a vector callable f(x, y) -> (..., 2)."""
        sp = self.spaces
        rule = triangle_rule(sp.deg_load if degree is None else degree)
        pts, wts = rule.points, rule.weights
        phys = sp.phys_points(pts)
        fvals = np.asarray(func(phys[..., 0], phys[..., 1]))
        out = np.zeros(sp.dim_V + sp.dim_Q)
        out[:sp.dim_V] = sp.mapped_moments(sp.vbasis.eval(pts), wts,
                                           fvals).ravel()
        return out

    def load_boundary(self, g_data: np.ndarray) -> np.ndarray:
        """Moves inhomogeneous tangential boundary data into the right hand
        side: the flux jumps are penalized against jump - g, so g enters
        through the lifted consistency and penalty terms."""
        vec = (-self.curl_pair.T @ g_data
               + self.jump_t.T @ (self.penalty_gram @ g_data))
        out = np.zeros(self.spaces.dim_V + self.spaces.dim_Q)
        out[:self.spaces.dim_V] = vec
        return out

    # ------------------------------------------------------------------
    # norm values

    # The V and Q norms are sums of quadratic forms of their parts (the
    # jump terms through the face Grams), so evaluating one builds none of
    # the Gram triple products above.

    @staticmethod
    def _quad_form(gram, coeffs) -> float:
        return float(coeffs @ (gram @ coeffs))

    def _seminorm_sq(self, coeffs: np.ndarray) -> float:
        return (self._quad_form(self.curl_stiffness, coeffs)
                + self._quad_form(self.lift_gram_scalar, self.jump_t @ coeffs))

    def seminorm_v(self, coeffs: np.ndarray) -> float:
        return np.sqrt(max(self._seminorm_sq(coeffs), 0.0))

    def norm_v(self, coeffs: np.ndarray) -> float:
        return np.sqrt(max(self._seminorm_sq(coeffs)
                           + self._quad_form(self.mass_eps, coeffs), 0.0))

    def norm_q(self, coeffs: np.ndarray) -> float:
        return np.sqrt(max(
            self._quad_form(self.q_grad_gram, coeffs)
            + self._quad_form(self.lift_gram_vector, self.jump_n @ coeffs),
            0.0))

    def norm_m(self, coeffs: np.ndarray) -> float:
        return np.sqrt(max(self._quad_form(self.lift_gram_vector, coeffs),
                           0.0))

