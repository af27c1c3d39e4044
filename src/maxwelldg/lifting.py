"""Face lifting operators and trace moment maps.

Face data is stored modewise: every face carries an orthonormal Legendre
basis in its arclength parameter s in [0, 1] (modes 0..l).  Scalar face
data (tangential jumps, boundary data) uses l + 1 coefficients per face;
vector face data (normal jumps, multipliers) uses 2(l + 1) coefficients
ordered mode-major, component-minor (index 2m + c).

Two liftings act on this data, both supported on the one or two elements
next to the face:

* the scalar lifting of eta in P_l(F) into the broken scalar space,
  defined by (r_F eta, w) = int_F eta {{w}} for all broken w in P_l;
* the componentwise vector lifting of lambda in P_l(F)^2 into the broken
  vector space (P_l)^2, (R_F lam, w) = int_F lam . {{w}}.

Because the broken scalar basis is orthonormal per element (mass
2|K| I), the lifting coefficients are closed-form moment maps; every
face contributes a rank-(l+1) block.

All tables are arrays over (face, side): side 0 is the plus element of
the face, side 1 the minus element.  ``side_mask`` is False on the
missing minus side of a boundary face; the tables hold zeros there and
the sparse builders drop it.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix

from .basis import face_modes
from .quadrature import segment_rule
from .spaces import FemField, Spaces, block_sparse, element_block_diag

__all__ = ["Lifting"]

# jump signs of the plus and minus sides
SIGNS = np.array([1.0, -1.0])


class Lifting:
    """Geometry-dependent lifting tables for a given discrete space.

    Material weights are passed into the Gram/pairing builders, so one
    instance serves any coefficient field on the same mesh.
    """

    def __init__(self, spaces: Spaces):
        self.spaces = spaces
        mesh = spaces.mesh
        l = spaces.degree
        self.n_modes = l + 1
        nf = mesh.num_faces

        rule = segment_rule(2 * l + 2)
        w, modes = rule.weights, face_modes(l, rule.points)

        self.side_mask = mesh.face_elements >= 0
        # element of each (face, side); element 0 stands in on masked sides
        self.side_elements = np.where(self.side_mask, mesh.face_elements, 0)
        # average factor per face: 1 on the boundary, 1/2 inside
        self.avg = np.where(mesh.boundary, 1.0, 0.5)
        elems = self.side_elements
        mask = self.side_mask[:, :, None, None]

        # one pull-back of every face point into both sides' elements
        phys = spaces.face_points(np.arange(nf), rule.points)     # (nf, np, 2)
        ref = spaces.ref_coords(elems, phys[:, None]).reshape(-1, 2)
        npts = len(rule.points)
        qv = spaces.qbasis.eval(ref).reshape(nf, 2, npts, -1)
        vv = np.einsum("fsdk,fspnk->fspnd", spaces.inv_jac_t[elems],
                       spaces.vbasis.eval(ref).reshape(nf, 2, npts, -1, 2))
        n = mesh.face_normals[:, None, None, None, :]
        cross = n[..., 0] * vv[..., 1] - n[..., 1] * vv[..., 0]  # n x v

        # trace_q[f, s]: moments of the scalar basis, (l+1, ndof_q)
        self.trace_q = mask * np.einsum("p,pm,fspr->fsmr", w, modes, qv)
        # trace_v[f, s]: moments of n+ x (mapped V basis), (l+1, ndof_v)
        self.trace_v = mask * np.einsum("p,pm,fspn->fsmn", w, modes, cross)
        # lift_scale[f, s]: avg h_F / det_jac, the lifting coefficient factor
        avg_h = (self.avg * mesh.face_lengths)[:, None]
        self.lift_scale = self.side_mask * avg_h / spaces.det_jac[elems]
        # weight[f, s]: (avg h_F)^2 / det_jac, the lifting Gram factor
        self.weight = self.side_mask * avg_h ** 2 / spaces.det_jac[elems]

        self._jump_tangential = None
        self._jump_normal = None
        self._lift_scalar = None
        self._lift_vector = None

    # ------------------------------------------------------------------
    # index layout

    @property
    def dim_scalar_data(self) -> int:
        return self.spaces.mesh.num_faces * self.n_modes

    @property
    def dim_vector_data(self) -> int:
        return self.spaces.mesh.num_faces * 2 * self.n_modes

    def scalar_data_dofs(self, face: int) -> np.ndarray:
        return np.arange(face * self.n_modes, (face + 1) * self.n_modes)

    def _scalar_rows(self) -> np.ndarray:
        """Scalar face data indices, (nf, 1, l+1)."""
        return np.arange(self.dim_scalar_data).reshape(-1, 1, self.n_modes)

    def _vector_rows(self) -> np.ndarray:
        """Vector face data indices, (nf, 1, l+1, 2)."""
        return np.arange(self.dim_vector_data).reshape(-1, 1, self.n_modes, 2)

    def _elem_dofs(self, ndof: int) -> np.ndarray:
        """Blocked element dofs of each (face, side), (nf, 2, ndof)."""
        return self.side_elements[:, :, None] * ndof + np.arange(ndof)

    def _face_csr(self, blocks: np.ndarray, rows: np.ndarray,
                  cols: np.ndarray, shape: tuple) -> csr_matrix:
        """Sparse matrix of per-(face, side) blocks (nf, 2, ..., R, C) at
        row indices (..., R) and column indices (..., C) that broadcast
        against them; masked sides are dropped."""
        return block_sparse(blocks, rows, cols, shape, keep=self.side_mask)

    # ------------------------------------------------------------------
    # sparse jump/trace maps

    def jump_tangential(self) -> csr_matrix:
        """Map V coefficients to face coefficients of the tangential jump
        (n x v on the boundary)."""
        if self._jump_tangential is None:
            sp = self.spaces
            self._jump_tangential = self._face_csr(
                SIGNS[:, None, None] * self.trace_v, self._scalar_rows(),
                self._elem_dofs(sp.ndof_v), (self.dim_scalar_data, sp.dim_V))
        return self._jump_tangential

    def jump_normal(self) -> csr_matrix:
        """Map Q coefficients to face coefficients of the vector-valued
        normal jump (q n on the boundary)."""
        if self._jump_normal is None:
            sp = self.spaces
            nf = sp.mesh.num_faces
            blocks = np.einsum("s,fc,fsmr->fsmcr", SIGNS,
                               sp.mesh.face_normals, self.trace_q)
            self._jump_normal = self._face_csr(
                blocks.reshape(nf, 2, 2 * self.n_modes, sp.ndof_q),
                self._vector_rows().reshape(nf, 1, -1),
                self._elem_dofs(sp.ndof_q), (self.dim_vector_data, sp.dim_Q))
        return self._jump_normal

    # ------------------------------------------------------------------
    # lifting coefficient maps

    def _lift_blocks(self) -> np.ndarray:
        """Broken scalar coefficients of the lifted modes, (nf, 2, nq, l+1)."""
        return self.lift_scale[:, :, None, None] * np.swapaxes(self.trace_q, 2, 3)

    def lift_scalar_matrix(self) -> csr_matrix:
        """Map scalar face data to broken scalar coefficients of the sum of
        the per-face liftings."""
        if self._lift_scalar is None:
            sp = self.spaces
            self._lift_scalar = self._face_csr(
                self._lift_blocks(), self._elem_dofs(sp.ndof_q),
                self._scalar_rows(), (sp.dim_Q, self.dim_scalar_data))
        return self._lift_scalar

    def lift_vector_matrix(self) -> csr_matrix:
        """Map vector face data to broken vector coefficients (layout
        (element, mode, component))."""
        if self._lift_vector is None:
            sp = self.spaces
            # one copy of the scalar block per component c, (nf, 2, c, nq, nm)
            blocks = np.broadcast_to(self._lift_blocks()[:, :, None],
                                     (sp.mesh.num_faces, 2, 2, sp.ndof_q,
                                      self.n_modes))
            rows = 2 * self._elem_dofs(sp.ndof_q)[:, :, None] + np.arange(2)[:, None]
            cols = np.swapaxes(self._vector_rows(), 2, 3)
            self._lift_vector = self._face_csr(
                blocks, rows, cols, (2 * sp.dim_Q, self.dim_vector_data))
        return self._lift_vector

    def lift_scalar(self, data: np.ndarray) -> FemField:
        return FemField("LS", self.lift_scalar_matrix() @ data)

    def lift_vector(self, data: np.ndarray) -> FemField:
        return FemField("LV", self.lift_vector_matrix() @ data)

    # ------------------------------------------------------------------
    # per-face Gram matrices of lifted data

    def _trace_grams(self) -> np.ndarray:
        """trace_q trace_q^T per (face, side), (nf, 2, l+1, l+1)."""
        return self.trace_q @ np.swapaxes(self.trace_q, 2, 3)

    def face_grams_scalar(self, weight: np.ndarray | None = None) -> np.ndarray:
        """(w r_F(mode_i), r_F(mode_j)) with a piecewise-constant scalar
        weight (per element); unweighted when weight is None.  Shape
        (nf, l+1, l+1)."""
        scale = self.weight if weight is None else self.weight * weight[self.side_elements]
        return np.einsum("fs,fsij->fij", scale, self._trace_grams())

    def face_grams_vector(self, eps: np.ndarray | None = None) -> np.ndarray:
        """(eps R_F(mode_i), R_F(mode_j)) for a per-element 2x2 SPD field;
        identity weight when eps is None.  Mode-major, component-minor,
        shape (nf, 2(l+1), 2(l+1))."""
        nf = self.spaces.mesh.num_faces
        mat = np.eye(2) if eps is None else eps[self.side_elements]
        mat = mat[..., None, :, None, :]                          # (.., 1, c, 1, d)
        kron = self._trace_grams()[..., None, :, None] * mat     # (nf, 2, i, c, j, d)
        grams = np.sum(self.weight[:, :, None, None, None, None] * kron, axis=1)
        return grams.reshape(nf, 2 * self.n_modes, 2 * self.n_modes)

    def block_diag_scalar(self, factors: np.ndarray,
                          weight: np.ndarray | None = None) -> csr_matrix:
        """Block diagonal of per-face scalar Grams scaled by factors[f]."""
        grams = self.face_grams_scalar(weight)
        return element_block_diag(np.asarray(factors)[:, None, None] * grams)

    def block_diag_vector(self, factors: np.ndarray,
                          eps: np.ndarray | None = None) -> csr_matrix:
        grams = self.face_grams_vector(eps)
        return element_block_diag(np.asarray(factors)[:, None, None] * grams)

    # ------------------------------------------------------------------
    # pairings against V fields

    def curl_pair(self, weight: np.ndarray) -> csr_matrix:
        """Rows (face, mode), columns V dofs: (r_F(mode), w mu_curl) where
        mu_curl is the weighted elementwise curl, weight per element."""
        sp = self.spaces
        scale = weight[self.side_elements] * self.lift_scale
        blocks = scale[:, :, None, None] * (self.trace_q @ sp.ref_curl_coeff)
        return self._face_csr(blocks, self._scalar_rows(),
                              self._elem_dofs(sp.ndof_v),
                              (self.dim_scalar_data, sp.dim_V))

    def vector_value_pair(self, eps: np.ndarray) -> csr_matrix:
        """Rows (face, mode, component), columns V dofs:
        (eps v, R_F(mode, component)) for the per-element 2x2 field eps."""
        sp = self.spaces
        # component expansion of the mapped V basis in the local orthonormal
        # scalar basis, weighted by eps, (ne, c, nq, nv)
        comp = np.einsum("eck,krn->ecrn", sp.inv_jac_t, sp.ref_comp_coeff)
        weighted = np.einsum("eck,ekrn->ecrn", eps, comp)
        avg_h = (self.avg * sp.mesh.face_lengths)[:, None, None, None, None]
        blocks = avg_h * (self.trace_q[:, :, None] @ weighted[self.side_elements])
        return self._face_csr(blocks, np.swapaxes(self._vector_rows(), 2, 3),
                              self._elem_dofs(sp.ndof_v)[:, :, None],
                              (self.dim_vector_data, sp.dim_V))

    # ------------------------------------------------------------------
    # face data projections

    def _face_samples(self, faces: np.ndarray, degree: int | None):
        """The projection rule and its points on the given faces,
        (len(faces), np, 2)."""
        sp = self.spaces
        rule = segment_rule(2 * sp.degree + 8 if degree is None else degree)
        return rule, sp.face_points(faces, rule.points)

    def _face_data(self, faces: np.ndarray, rule, vals: np.ndarray) -> np.ndarray:
        """Scalar face data holding the mode moments of vals (len(faces),
        np) on the given faces and zeros elsewhere."""
        modes = face_modes(self.spaces.degree, rule.points)
        data = np.zeros((self.spaces.mesh.num_faces, self.n_modes))
        data[faces] = np.einsum("p,pm,fp->fm", rule.weights, modes, vals)
        return data.ravel()

    def project_scalar_data(self, func, degree: int | None = None,
                            boundary_only: bool = False) -> np.ndarray:
        """L^2-project a scalar callable onto the face mode basis."""
        mesh = self.spaces.mesh
        faces = (np.flatnonzero(mesh.boundary) if boundary_only
                 else np.arange(mesh.num_faces))
        rule, phys = self._face_samples(faces, degree)
        vals = np.asarray(func(phys[..., 0], phys[..., 1]))
        return self._face_data(faces, rule, vals)

    def tangential_boundary_data(self, u_func, degree: int | None = None) -> np.ndarray:
        """Face coefficients of n x u on the boundary (zero on interior
        faces) for a vector callable u_func(x, y) -> (..., 2)."""
        mesh = self.spaces.mesh
        faces = np.flatnonzero(mesh.boundary)
        rule, phys = self._face_samples(faces, degree)
        vals = np.asarray(u_func(phys[..., 0], phys[..., 1]))
        n = mesh.face_normals[faces, None, :]
        cross = n[..., 0] * vals[..., 1] - n[..., 1] * vals[..., 0]
        return self._face_data(faces, rule, cross)

    # ------------------------------------------------------------------
    # stability

    def stability_constants(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-face two-sided constants (C1_F, C2_F) of the tangential
        lifting: extreme generalized eigenvalues of ||r_F(eta)||^2 against
        h_F^{-1} ||eta||_F^2 over the space of attainable tangential jumps
        (polynomials of degree l - 1 on the face, modes 0..l-1).

        h_F^{-1} times the face mass is the identity in the orthonormal
        mode basis, so the quotient reduces to a plain eigenvalue problem.
        """
        njump = self.spaces.degree          # attainable jump modes per face
        ev = np.linalg.eigvalsh(self.face_grams_scalar()[:, :njump, :njump])
        return np.sqrt(np.maximum(ev[:, 0], 0.0)), np.sqrt(ev[:, -1])
