"""Face lifting operators and trace moment tables.

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
missing minus side of a boundary face; the tables hold zeros there.
"""

from __future__ import annotations

import numpy as np

from .basis import face_modes
from .quadrature import segment_rule
from .spaces import Spaces

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
        vv = spaces.vbasis.eval(ref).reshape(nf, 2, -1, 2)
        # n x (inv(J)^T v) = (inv(J) n_perp) . v with n_perp = (-n_y, n_x),
        # (nf, 2, 2, 1)
        n = mesh.face_normals
        n_perp = np.stack([-n[:, 1], n[:, 0]], axis=1)[:, None, None, :]
        pulled = np.swapaxes(n_perp @ spaces.inv_jac_t[elems], 2, 3)
        cross = (vv @ pulled).reshape(nf, 2, npts, -1)            # n x v
        moments = (w[:, None] * modes).T                          # (l+1, np)

        # trace_q[f, s]: moments of the scalar basis, (l+1, ndof_q)
        self.trace_q = mask * (moments @ qv)
        # trace_v[f, s]: moments of n+ x (mapped V basis), (l+1, ndof_v)
        self.trace_v = mask * (moments @ cross)
        # lift_scale[f, s]: avg h_F / det_jac, the lifting coefficient factor
        avg_h = (self.avg * mesh.face_lengths)[:, None]
        self.lift_scale = self.side_mask * avg_h / spaces.det_jac[elems]
        # weight[f, s]: (avg h_F)^2 / det_jac, the lifting Gram factor
        self.weight = self.side_mask * avg_h ** 2 / spaces.det_jac[elems]

    # ------------------------------------------------------------------
    # jump blocks

    def tangential_jumps(self) -> np.ndarray:
        """Blocks of the tangential jump of each side's V coefficients,
        the signed trace_v, (nf, 2, l+1, nv)."""
        return SIGNS[:, None, None] * self.trace_v

    def normal_jumps(self) -> np.ndarray:
        """Blocks of the vector-valued normal jump of each side's Q
        coefficients, mode-major, component-minor, (nf, 2, 2(l+1), nq)."""
        sp = self.spaces
        blocks = (SIGNS[:, None, None, None]
                  * sp.mesh.face_normals[:, None, None, :, None]
                  * self.trace_q[:, :, :, None, :])             # (f, s, m, c, r)
        return blocks.reshape(sp.mesh.num_faces, 2, sp.ndof_m, sp.ndof_q)

    # ------------------------------------------------------------------
    # per-face Gram matrices of lifted data

    def _trace_grams(self) -> np.ndarray:
        """trace_q trace_q^T per (face, side), (nf, 2, l+1, l+1)."""
        return self.trace_q @ np.swapaxes(self.trace_q, 2, 3)

    def face_grams_scalar(self, weight: np.ndarray) -> np.ndarray:
        """(w r_F(mode_i), r_F(mode_j)) with a piecewise-constant scalar
        weight (per element), shape (nf, l+1, l+1)."""
        scale = self.weight * weight[self.side_elements]
        return np.sum(scale[:, :, None, None] * self._trace_grams(), axis=1)

    def face_grams_vector(self, eps: np.ndarray) -> np.ndarray:
        """(eps R_F(mode_i), R_F(mode_j)) for a per-element 2x2 SPD field.
        Mode-major, component-minor, shape (nf, 2(l+1), 2(l+1))."""
        nf = self.spaces.mesh.num_faces
        mat = eps[self.side_elements][..., None, :, None, :]      # (.., 1, c, 1, d)
        kron = self._trace_grams()[..., None, :, None] * mat     # (nf, 2, i, c, j, d)
        grams = np.sum(self.weight[:, :, None, None, None, None] * kron, axis=1)
        return grams.reshape(nf, 2 * self.n_modes, 2 * self.n_modes)

    # ------------------------------------------------------------------
    # pairings against V fields

    def curl_pair_blocks(self, weight: np.ndarray) -> np.ndarray:
        """(r_F(mode), w mu_curl) per (face, side), where mu_curl is the
        weighted elementwise curl of the side's V basis, weight per
        element, (nf, 2, l+1, nv)."""
        scale = weight[self.side_elements] * self.lift_scale
        return scale[:, :, None, None] * (self.trace_q @ self.spaces.ref_curl_coeff)

    def vector_value_pair(self, eps: np.ndarray) -> np.ndarray:
        """(eps v, R_F(mode, component)) per (face, side) for the side's V
        basis v and the per-element 2x2 field eps, mode-major,
        component-minor, (nf, 2, 2(l+1), nv)."""
        sp = self.spaces
        # component expansion of eps times the mapped V basis in the local
        # orthonormal scalar basis, (ne, c, nq, nv)
        ne, nf = sp.mesh.num_elements, sp.mesh.num_faces
        weighted = ((eps @ sp.inv_jac_t).reshape(2 * ne, 2)
                    @ sp.ref_comp_coeff.reshape(2, -1)).reshape(
                        ne, 2, sp.ndof_q, sp.ndof_v)
        avg_h = (self.avg * sp.mesh.face_lengths)[:, None, None, None, None]
        blocks = avg_h * (self.trace_q[:, :, None] @ weighted[self.side_elements])
        return np.swapaxes(blocks, 2, 3).reshape(nf, 2, sp.ndof_m, sp.ndof_v)

    # ------------------------------------------------------------------
    # face data projections

    def _face_samples(self, faces: np.ndarray):
        """The projection rule and its points on the given faces,
        (len(faces), np, 2)."""
        sp = self.spaces
        rule = segment_rule(2 * sp.degree + 8)
        return rule, sp.face_points(faces, rule.points)

    def _face_data(self, faces: np.ndarray, rule, vals: np.ndarray) -> np.ndarray:
        """Scalar face data holding the mode moments of vals (len(faces),
        np) on the given faces and zeros elsewhere."""
        modes = face_modes(self.spaces.degree, rule.points)
        data = np.zeros((self.spaces.mesh.num_faces, self.n_modes))
        data[faces] = vals @ (rule.weights[:, None] * modes)
        return data.ravel()

    def tangential_boundary_data(self, u_func) -> np.ndarray:
        """Face coefficients of n x u on the boundary (zero on interior
        faces) for a vector callable u_func(x, y) -> (..., 2)."""
        mesh = self.spaces.mesh
        faces = np.flatnonzero(mesh.boundary)
        rule, phys = self._face_samples(faces)
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
        unit = np.ones(self.spaces.mesh.num_elements)
        ev = np.linalg.eigvalsh(self.face_grams_scalar(unit)[:, :njump, :njump])
        return np.sqrt(np.maximum(ev[:, 0], 0.0)), np.sqrt(ev[:, -1])
