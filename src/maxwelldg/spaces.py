"""Broken discrete spaces on a triangle mesh.

``Spaces`` bundles a mesh with a polynomial degree l in {1, 2} and provides

* the broken curl-conforming space V (local dimension l(l+2), covariant
  Piola-mapped from the reference element),
* the broken scalar space Q (local dimension dim P_l),
* the face space M (2(l+1) vector Legendre modes per face),
* the broken "lifting" scalar/vector spaces P_l and (P_l)^2 with the mapped
  orthonormal basis (their local mass matrices are 2|K| times identity),
* geometry tables, evaluation, and the conforming scalar subspace that
  the gradient load reads and whose size counts the discrete gradients.

Degrees of freedom are blocked per element (V, Q) or per face (M), in
element/face order; all orderings are deterministic.  The conforming
scalar subspace is a `bsr_array` of (nq, 1) blocks, one per element and
conforming node, like every sparse operator of the package.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import inv
from scipy.sparse import bsr_array

from .basis import curl_basis, scalar_basis
from .mesh import Mesh
from .quadrature import triangle_rule

__all__ = ["Spaces"]


class Spaces:
    def __init__(self, mesh: Mesh, degree: int):
        if degree not in (1, 2):
            raise ValueError(f"degree must be 1 or 2, got {degree}")
        self.mesh = mesh
        self.degree = degree

        tri = mesh.vertices[mesh.elements]
        jac = np.stack([tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]], axis=2)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        # Counterclockwise elements guarantee positive jacobians.
        assert np.all(det > 0)
        self.jac = jac
        self.det_jac = det
        self.inv_jac = np.linalg.inv(jac)
        self.inv_jac_t = np.transpose(self.inv_jac, (0, 2, 1))
        self.origins = tri[:, 0]

        self.vbasis = curl_basis(degree)
        self.qbasis = scalar_basis(degree)

        self.ndof_v = self.vbasis.dim           # l(l+2)
        self.ndof_q = self.qbasis.dim           # (l+1)(l+2)/2
        self.ndof_m = 2 * (degree + 1)
        self.dim_V = mesh.num_elements * self.ndof_v
        self.dim_Q = mesh.num_elements * self.ndof_q
        self.dim_M = mesh.num_faces * self.ndof_m

        self.deg_stiff = 2 * degree + 2
        self.deg_load = 2 * degree + 4
        self.deg_err = self.deg_stiff + 4

        self._build_reference_tables()

    # ------------------------------------------------------------------
    # reference tables

    def _build_reference_tables(self):
        rule = triangle_rule(self.deg_stiff)
        pts, wts = rule.points, rule.weights
        vvals = self.vbasis.eval(pts)            # (np, nv, 2)
        vcurls = self.vbasis.curl(pts)           # (np, nv)
        qvals = self.qbasis.eval(pts)            # (np, nq)
        qgrads = self.qbasis.grad(pts)           # (np, nq, 2)

        # Gram of reference curls: exact, curls have degree l-1.
        self.ref_curl_gram = np.einsum("p,pi,pj->ij", wts, vcurls, vcurls)
        # Expansion of reference curls in the orthonormal scalar basis; the
        # scalar basis integrates to the identity Gram on the reference cell.
        self.ref_curl_coeff = np.einsum("p,pr,pi->ri", wts, qvals, vcurls)
        # Componentwise expansion of the reference vector basis.
        self.ref_comp_coeff = np.einsum("p,pr,pic->cri", wts, qvals, vvals)
        # Component Grams of the reference vector basis and the reference
        # scalar gradients, for the local V mass matrices, the V-gradient
        # pairings and the gradient Grams (see mapped_gram).
        self.ref_vcomp_gram = np.einsum("p,pic,pjd->cdij", wts, vvals, vvals)
        self.ref_v_qgrad = np.einsum("p,pic,pjd->cdij", wts, vvals, qgrads)
        self.ref_qgrad_gram = np.einsum("p,pic,pjd->cdij", wts, qgrads, qgrads)

    # ------------------------------------------------------------------
    # geometry helpers

    def ref_coords(self, elem, phys_pts: np.ndarray) -> np.ndarray:
        """Pull physical points (..., np, 2) back to reference coordinates
        of an element, or of an index array of elements whose shape
        broadcasts against phys_pts.shape[:-2]."""
        return ((phys_pts - self.origins[elem][..., None, :])
                @ np.swapaxes(self.inv_jac[elem], -1, -2))

    def face_points(self, face, s: np.ndarray) -> np.ndarray:
        """Points at parameters s on a face, shape (np, 2), or on an index
        array of faces, shape (..., np, 2)."""
        a = self.mesh.vertices[self.mesh.faces[face, 0]]
        b = self.mesh.vertices[self.mesh.faces[face, 1]]
        return a[..., None, :] + s[:, None] * (b - a)[..., None, :]

    # ------------------------------------------------------------------
    # evaluation and moments (vectorized across elements)
    #
    # The covariant Piola map is inv(J)^T on every element, so each kernel
    # is one GEMM against a reshaped reference table plus one batched 2x2
    # matmul with inv(J) or inv(J)^T.

    def _eval_mapped(self, coeffs: np.ndarray, ref: np.ndarray) -> np.ndarray:
        """Values sum_n coeffs[e, n] inv(J_e)^T ref[p, n] of a field with
        covariantly mapped reference vector values ref (np, n, 2), shape
        (ne, np, 2)."""
        npts, n = ref.shape[:2]
        c = coeffs.reshape(self.mesh.num_elements, n)
        vals = c @ ref.transpose(1, 0, 2).reshape(n, 2 * npts)
        return vals.reshape(-1, npts, 2) @ self.inv_jac

    def mapped_moments(self, ref: np.ndarray, weights: np.ndarray,
                       vals: np.ndarray) -> np.ndarray:
        """Moments int_K vals . inv(J)^T ref[n] of vector values vals
        (ne, np, 2) at the points of a rule with the given weights, against
        covariantly mapped reference vector values ref (np, n, 2), shape
        (ne, n)."""
        npts, n = ref.shape[:2]
        wdet = self.det_jac[:, None, None] * weights[:, None]
        pulled = (wdet * vals) @ self.inv_jac_t
        return (pulled.reshape(-1, 2 * npts)
                @ ref.transpose(0, 2, 1).reshape(2 * npts, n))

    def mapped_gram(self, ref_table: np.ndarray, field: np.ndarray) -> np.ndarray:
        """Per-element Grams (field inv(J)^T a_i, inv(J)^T b_j)_K of two
        covariantly mapped reference tables, from their component Gram
        ref_table (2, 2, i, j) and a per-element 2x2 weight field, shape
        (ne, i, j)."""
        metric = self.inv_jac @ field @ self.inv_jac_t
        ne = self.mesh.num_elements
        weighted = (self.det_jac[:, None, None] * metric).reshape(ne, 4)
        return (weighted @ ref_table.reshape(4, -1)).reshape(
            ne, *ref_table.shape[2:])

    def eval_v(self, coeffs: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
        """Values of a V field at reference points, shape (ne, np, 2)."""
        return self._eval_mapped(coeffs, self.vbasis.eval(ref_pts))

    def eval_v_curl(self, coeffs: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
        """Scalar curl of a V field at reference points, shape (ne, np)."""
        c = coeffs.reshape(self.mesh.num_elements, self.ndof_v)
        return (c @ self.vbasis.curl(ref_pts).T) / self.det_jac[:, None]

    def eval_q_grad(self, coeffs: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
        return self._eval_mapped(coeffs, self.qbasis.grad(ref_pts))

    def phys_points(self, ref_pts: np.ndarray) -> np.ndarray:
        """Physical images of reference points, shape (ne, np, 2)."""
        return self.origins[:, None, :] + ref_pts @ np.swapaxes(self.jac, 1, 2)

    # ------------------------------------------------------------------
    # conforming scalar subspace (zero boundary trace)

    def _scalar_ref_nodes(self) -> np.ndarray:
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        if self.degree == 1:
            return verts
        # midpoints of the local faces k = 0, 1, 2, opposite vertex k
        mids = 0.5 * (verts[[1, 0, 0]] + verts[[2, 2, 1]])
        return np.vstack([verts, mids])

    def conforming_q_basis(self) -> bsr_array:
        """Continuous P_l subspace with zero boundary trace, as columns of
        Q-coefficient vectors (nodal basis: vertices, then interior-edge
        nodes for l = 2), in one (nq, 1) block per element and node, the
        columns of each element ascending."""
        mesh = self.mesh
        nodes = self._scalar_ref_nodes()
        vander = self.qbasis.eval(nodes)            # (nnod, nq)
        nodal = inv(vander)                         # columns: nodal basis coeffs
        inner = np.ones(mesh.num_vertices, dtype=bool)
        inner[mesh.faces[mesh.boundary]] = False
        node_cols = np.full(mesh.num_vertices, -1)
        node_cols[inner] = np.arange(inner.sum())
        cols = node_cols[mesh.elements]
        ncols = int(inner.sum())
        if self.degree == 2:
            interior = ~mesh.boundary
            face_cols = np.full(mesh.num_faces, -1)
            face_cols[interior] = ncols + np.arange(interior.sum())
            cols = np.concatenate([cols, face_cols[mesh.element_faces]], axis=1)
            ncols += int(interior.sum())
        # columns ascending, so that a product sums in column order; a
        # column of -1 is a boundary node, which the subspace drops
        order = np.argsort(cols, axis=1)
        cols = np.take_along_axis(cols, order, axis=1)
        keep = cols >= 0
        indptr = np.append(0, np.cumsum(keep.sum(axis=1)))
        return bsr_array((nodal.T[order][keep, :, None], cols[keep], indptr),
                         shape=(self.dim_Q, ncols))
