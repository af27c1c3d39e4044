"""Broken discrete spaces on a triangle mesh.

``Spaces`` bundles a mesh with a polynomial degree l in {1, 2} and provides

* the broken curl-conforming space V (local dimension l(l+2), covariant
  Piola-mapped from the reference element),
* the broken scalar space Q (local dimension dim P_l),
* the face space M (2(l+1) vector Legendre modes per face),
* the broken "lifting" scalar/vector spaces P_l and (P_l)^2 with the mapped
  orthonormal basis (their local mass matrices are 2|K| times identity),
* geometry tables, evaluation, elementwise projection, and the conforming
  subspace constructions used by the verification machinery.

Degrees of freedom are blocked per element (V, Q) or per face (M), in
element/face order; all orderings are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import inv, solve
from scipy.sparse import coo_matrix, csc_matrix, csr_matrix

from .basis import curl_basis, face_modes, scalar_basis
from .mesh import Mesh
from .quadrature import segment_rule, triangle_rule

__all__ = ["Spaces", "FemField", "block_sparse", "element_block_diag"]


def block_sparse(blocks: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 shape: tuple, keep: np.ndarray | None = None) -> csr_matrix:
    """Sparse matrix summing dense blocks (..., R, C) placed at row indices
    (..., R) and column indices (..., C) that broadcast against them.  A
    boolean mask keep over the leading axes drops the blocks where it is
    False."""
    rows = np.broadcast_to(rows[..., :, None], blocks.shape)
    cols = np.broadcast_to(cols[..., None, :], blocks.shape)
    if keep is not None:
        blocks, rows, cols = blocks[keep], rows[keep], cols[keep]
    return coo_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())),
                      shape=shape).tocsr()


def element_block_diag(blocks: np.ndarray) -> csr_matrix:
    """Sparse block diagonal from an (ne, n, m) array of local blocks."""
    ne, n, m = blocks.shape
    return block_sparse(blocks, np.arange(ne * n).reshape(ne, n),
                        np.arange(ne * m).reshape(ne, m), (ne * n, ne * m))


@dataclass
class FemField:
    """Coefficient vector tagged with the space it lives in.

    space is one of "V" (broken curl-conforming), "Q" (broken scalar),
    "M" (per-face vector data), "LS" (broken scalar lifting space),
    "LV" (broken vector lifting space).
    """

    space: str
    coeffs: np.ndarray

    def copy(self) -> "FemField":
        return FemField(self.space, self.coeffs.copy())


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
        self.areas = 0.5 * det
        self.origins = tri[:, 0]

        self.vbasis = curl_basis(degree)
        self.qbasis = scalar_basis(degree)

        self.ndof_v = self.vbasis.dim           # l(l+2)
        self.ndof_q = self.qbasis.dim           # (l+1)(l+2)/2
        self.n_face_modes = degree + 1
        self.ndof_m = 2 * self.n_face_modes
        self.dim_V = mesh.num_elements * self.ndof_v
        self.dim_Q = mesh.num_elements * self.ndof_q
        self.dim_M = mesh.num_faces * self.ndof_m

        self.deg_stiff = 2 * degree + 2
        self.deg_load = 2 * degree + 4
        self.deg_err = self.deg_stiff + 4

        self._build_reference_tables()
        self._dof_cache = None
        self._vgram_cache = None

    # ------------------------------------------------------------------
    # reference tables

    def _build_reference_tables(self):
        rule = triangle_rule(self.deg_stiff)
        pts, wts = rule.points, rule.weights
        vvals = self.vbasis.eval(pts)            # (np, nv, 2)
        vcurls = self.vbasis.curl(pts)           # (np, nv)
        qvals = self.qbasis.eval(pts)            # (np, nq)

        # Gram of reference curls: exact, curls have degree l-1.
        self.ref_curl_gram = np.einsum("p,pi,pj->ij", wts, vcurls, vcurls)
        # Expansion of reference curls in the orthonormal scalar basis; the
        # scalar basis integrates to the identity Gram on the reference cell.
        self.ref_curl_coeff = np.einsum("p,pr,pi->ri", wts, qvals, vcurls)
        # Componentwise expansion of the reference vector basis.
        self.ref_comp_coeff = np.einsum("p,pr,pic->cri", wts, qvals, vvals)
        # Component Grams for assembling local V mass matrices.
        self.ref_vcomp_gram = np.einsum("p,pic,pjd->cdij", wts, vvals, vvals)

    # ------------------------------------------------------------------
    # index helpers

    def v_dofs(self, elem: int) -> np.ndarray:
        return np.arange(elem * self.ndof_v, (elem + 1) * self.ndof_v)

    def q_dofs(self, elem: int) -> np.ndarray:
        return np.arange(elem * self.ndof_q, (elem + 1) * self.ndof_q)

    def m_dofs(self, face: int) -> np.ndarray:
        return np.arange(face * self.ndof_m, (face + 1) * self.ndof_m)

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
    # evaluation (vectorized across elements)

    def eval_v(self, coeffs: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
        """Values of a V field at reference points, shape (ne, np, 2)."""
        c = coeffs.reshape(self.mesh.num_elements, self.ndof_v)
        ref = self.vbasis.eval(ref_pts)
        tmp = np.einsum("en,pnd->epd", c, ref)
        return np.einsum("edk,epk->epd", self.inv_jac_t, tmp)

    def eval_v_curl(self, coeffs: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
        """Scalar curl of a V field at reference points, shape (ne, np)."""
        c = coeffs.reshape(self.mesh.num_elements, self.ndof_v)
        ref = self.vbasis.curl(ref_pts)
        return np.einsum("en,pn->ep", c, ref) / self.det_jac[:, None]

    def eval_q(self, coeffs: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
        c = coeffs.reshape(self.mesh.num_elements, self.ndof_q)
        ref = self.qbasis.eval(ref_pts)
        return np.einsum("en,pn->ep", c, ref)

    def eval_q_grad(self, coeffs: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
        c = coeffs.reshape(self.mesh.num_elements, self.ndof_q)
        ref = self.qbasis.grad(ref_pts)
        tmp = np.einsum("en,pnd->epd", c, ref)
        return np.einsum("edk,epk->epd", self.inv_jac_t, tmp)

    def eval_lift_scalar(self, coeffs: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
        """Broken scalar lifting-space field (mapped orthonormal basis)."""
        c = coeffs.reshape(self.mesh.num_elements, self.ndof_q)
        ref = self.qbasis.eval(ref_pts)
        return np.einsum("en,pn->ep", c, ref)

    def eval_lift_vector(self, coeffs: np.ndarray, ref_pts: np.ndarray) -> np.ndarray:
        c = coeffs.reshape(self.mesh.num_elements, self.ndof_q, 2)
        ref = self.qbasis.eval(ref_pts)
        return np.einsum("end,pn->epd", c, ref)

    def phys_points(self, ref_pts: np.ndarray) -> np.ndarray:
        """Physical images of reference points, shape (ne, np, 2)."""
        return self.origins[:, None, :] + np.einsum("eij,pj->epi", self.jac, ref_pts)

    # ------------------------------------------------------------------
    # local V Gram matrices and elementwise projection

    def local_v_grams(self) -> np.ndarray:
        """Physical local V mass matrices, shape (ne, ndof_v, ndof_v)."""
        if self._vgram_cache is None:
            metric = np.einsum("ekc,ekd->ecd", self.inv_jac_t, self.inv_jac_t)
            self._vgram_cache = np.einsum(
                "e,ecd,cdij->eij", self.det_jac, metric, self.ref_vcomp_gram
            )
        return self._vgram_cache

    def project_v(self, func, degree: int | None = None) -> np.ndarray:
        """Elementwise L^2 projection of func(x, y) -> (..., 2) onto V.

        Exact whenever func restricted to an element already lies in the
        local space.
        """
        rule = triangle_rule(self.deg_load if degree is None else degree)
        pts, wts = rule.points, rule.weights
        phys = self.phys_points(pts)
        target = np.asarray(func(phys[..., 0], phys[..., 1]))
        ref = self.vbasis.eval(pts)
        mapped = np.einsum("edk,pnk->epnd", self.inv_jac_t, ref)
        rhs = np.einsum("p,epnd,epd,e->en", wts, mapped, target, self.det_jac)
        grams = self.local_v_grams()
        out = np.empty((self.mesh.num_elements, self.ndof_v))
        for e in range(self.mesh.num_elements):
            out[e] = solve(grams[e], rhs[e], assume_a="pos")
        return out.ravel()

    def project_q(self, func, degree: int | None = None) -> np.ndarray:
        """Elementwise L^2 projection of a scalar callable onto Q."""
        rule = triangle_rule(self.deg_load if degree is None else degree)
        pts, wts = rule.points, rule.weights
        phys = self.phys_points(pts)
        target = np.asarray(func(phys[..., 0], phys[..., 1]))
        ref = self.qbasis.eval(pts)
        # Mapped orthonormal basis: local mass is det_jac * identity.
        rhs = np.einsum("p,pn,ep,e->en", wts, ref, target, self.det_jac)
        return (rhs / self.det_jac[:, None]).ravel()

    # ------------------------------------------------------------------
    # curl-conforming degrees of freedom (edge moments + interior moments)

    def _edge_dof_blocks(self):
        """Per element, the 3 x (l moments) edge rows and interior rows of the
        local dof matrix, plus inverses.  Cached."""
        if self._dof_cache is not None:
            return self._dof_cache
        mesh = self.mesh
        l = self.degree
        n_edge = l
        n_int = self.ndof_v - 3 * n_edge
        rule = segment_rule(2 * l + 2)
        s, w = rule.points, rule.weights
        modes = face_modes(l - 1, s)                       # (np, l)
        dmats = np.empty((mesh.num_elements, self.ndof_v, self.ndof_v))
        for e in range(mesh.num_elements):
            rows = []
            for k in range(3):
                f = mesh.element_faces[e, k]
                t = mesh.face_tangents[f]
                h = mesh.face_lengths[f]
                phys = self.face_points(f, s)
                ref = self.ref_coords(e, phys)
                vals = self.vbasis.eval(ref)               # (np, nv, 2)
                tang = np.einsum("d,pnd->pn", t, np.einsum(
                    "dk,pnk->pnd", self.inv_jac_t[e], vals))
                # moment_m(v) = int_e (t . v) mode_m ds, global orientation
                rows.append(h * np.einsum("p,pm,pn->mn", w, modes, tang))
            if n_int:
                tri = triangle_rule(self.deg_stiff)
                vals = self.vbasis.eval(tri.points)
                mapped = np.einsum("dk,pnk->pnd", self.inv_jac_t[e], vals)
                interior = self.det_jac[e] * np.einsum(
                    "p,pnd->dn", tri.weights, mapped)       # (2, nv)
                rows.append(interior)
            dmats[e] = np.vstack(rows)
        inverses = np.array([inv(d) for d in dmats])
        self._dof_cache = (dmats, inverses)
        return self._dof_cache

    def v_dof_matrices(self) -> np.ndarray:
        return self._edge_dof_blocks()[0]

    def v_dof_inverses(self) -> np.ndarray:
        return self._edge_dof_blocks()[1]

    def conforming_v_basis(self) -> "ConformingMap":
        """Tangentially continuous subspace with zero boundary trace,
        as columns of V-coefficient vectors."""
        mesh = self.mesh
        l = self.degree
        n_int = self.ndof_v - 3 * l
        cols = {}
        interior_faces = np.flatnonzero(~mesh.boundary)
        face_col = {int(f): {} for f in interior_faces}
        ncols = 0
        for f in interior_faces:
            for m in range(l):
                face_col[int(f)][m] = ncols
                ncols += 1
        elem_col = {}
        for e in range(mesh.num_elements):
            elem_col[e] = ncols
            ncols += n_int
        dinv = self.v_dof_inverses()
        rows, colixs, vals = [], [], []
        for e in range(mesh.num_elements):
            vd = self.v_dofs(e)
            for k in range(3):
                f = int(mesh.element_faces[e, k])
                if mesh.boundary[f]:
                    continue
                for m in range(l):
                    c = dinv[e][:, k * l + m]
                    rows.extend(vd)
                    colixs.extend([face_col[f][m]] * self.ndof_v)
                    vals.extend(c)
            for j in range(n_int):
                c = dinv[e][:, 3 * l + j]
                rows.extend(vd)
                colixs.extend([elem_col[e] + j] * self.ndof_v)
                vals.extend(c)
        mat = coo_matrix((vals, (rows, colixs)), shape=(self.dim_V, ncols)).tocsc()
        return ConformingMap(mat, ncols)

    # ------------------------------------------------------------------
    # conforming scalar subspace (zero boundary trace)

    def _scalar_ref_nodes(self) -> np.ndarray:
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        if self.degree == 1:
            return verts
        local = [(1, 2), (0, 2), (0, 1)]
        mids = np.array([0.5 * (verts[a] + verts[b]) for a, b in local])
        return np.vstack([verts, mids])

    def conforming_q_basis(self) -> "ConformingMap":
        """Continuous P_l subspace with zero boundary trace, as columns of
        Q-coefficient vectors (nodal basis: vertices, then interior-edge
        nodes for l = 2)."""
        mesh = self.mesh
        nodes = self._scalar_ref_nodes()
        vander = self.qbasis.eval(nodes)            # (nnod, nq)
        nodal = inv(vander)                         # columns: nodal basis coeffs
        boundary_vertices = np.zeros(mesh.num_vertices, dtype=bool)
        for f in np.flatnonzero(mesh.boundary):
            boundary_vertices[mesh.faces[f]] = True
        col_of_vertex = {}
        ncols = 0
        for v in range(mesh.num_vertices):
            if not boundary_vertices[v]:
                col_of_vertex[v] = ncols
                ncols += 1
        col_of_face = {}
        if self.degree == 2:
            for f in np.flatnonzero(~mesh.boundary):
                col_of_face[int(f)] = ncols
                ncols += 1
        rows, colixs, vals = [], [], []
        for e in range(mesh.num_elements):
            qd = self.q_dofs(e)
            locals_ = list(mesh.elements[e])
            node_cols = [col_of_vertex.get(int(v)) for v in locals_]
            if self.degree == 2:
                for k in range(3):
                    f = int(mesh.element_faces[e, k])
                    node_cols.append(col_of_face.get(f))
            for ln, gc in enumerate(node_cols):
                if gc is None:
                    continue
                rows.extend(qd)
                colixs.extend([gc] * self.ndof_q)
                vals.extend(nodal[:, ln])
        mat = coo_matrix((vals, (rows, colixs)), shape=(self.dim_Q, ncols)).tocsc()
        return ConformingMap(mat, ncols)

    def gradient_map(self) -> np.ndarray:
        """Local matrices carrying Q coefficients to the V coefficients of
        the elementwise gradient (exact: gradients of P_l lie in the local
        curl space).  Shape (ne, ndof_v, ndof_q)."""
        rule = triangle_rule(self.deg_stiff)
        pts, wts = rule.points, rule.weights
        vvals = self.vbasis.eval(pts)
        qgrads = self.qbasis.grad(pts)
        grams = self.local_v_grams()
        out = np.empty((self.mesh.num_elements, self.ndof_v, self.ndof_q))
        for e in range(self.mesh.num_elements):
            mapped_v = np.einsum("dk,pnk->pnd", self.inv_jac_t[e], vvals)
            mapped_g = np.einsum("dk,pjk->pjd", self.inv_jac_t[e], qgrads)
            rhs = self.det_jac[e] * np.einsum("p,pnd,pjd->nj", wts, mapped_v, mapped_g)
            out[e] = solve(grams[e], rhs, assume_a="pos")
        return out


@dataclass
class ConformingMap:
    """Sparse matrix whose columns span a conforming subspace."""

    matrix: csc_matrix
    dim: int
