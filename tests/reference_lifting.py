"""Per-face loop forms of the lifting tables, face operators and forms.

A test oracle: the plain per-face, per-side Python loops that the batched
(face, side) array code of ``maxwelldg.lifting.Lifting`` replaces, and the
explicit face-integral forms of ``a`` and ``b`` that the lifted assembly
of ``maxwelldg.assembly.Discretization`` must reproduce.  Every table is a
list over faces of lists over the faces' existing sides, every sparse
builder a loop of dense blocks into COO triplets.  Nothing in the package
imports this module.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from maxwelldg.basis import face_modes
from maxwelldg.quadrature import segment_rule, triangle_rule
from maxwelldg.spaces import Spaces, element_block_diag


def _coo_csr(rows, cols, vals, shape) -> csr_matrix:
    return coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape).tocsr()


def _append_block(rows, cols, vals, rix, cix, block):
    rr, cc = np.meshgrid(rix, cix, indexing="ij")
    rows.append(rr.ravel())
    cols.append(cc.ravel())
    vals.append(block.ravel())


class ReferenceLifting:
    """Per-face lists: sides[f] holds (element, average factor, jump sign)
    for each existing side, trace_q/trace_v/weight[f] the matching tables."""

    def __init__(self, spaces: Spaces):
        self.spaces = spaces
        mesh = spaces.mesh
        l = spaces.degree
        self.n_modes = l + 1
        rule = segment_rule(2 * l + 2)
        s, w = rule.points, rule.weights
        modes = face_modes(l, s)
        self.sides, self.trace_q, self.trace_v, self.weight = [], [], [], []
        for f in range(mesh.num_faces):
            elems = [int(e) for e in mesh.face_elements[f] if e >= 0]
            avg = 1.0 if mesh.boundary[f] else 0.5
            signs = [1.0, -1.0][: len(elems)]
            n = mesh.face_normals[f]
            h = mesh.face_lengths[f]
            phys = spaces.face_points(f, s)
            tq, tv, wt, side = [], [], [], []
            for e, sg in zip(elems, signs):
                ref = spaces.ref_coords(e, phys)
                qv = spaces.qbasis.eval(ref)
                tq.append(np.einsum("p,pm,pr->mr", w, modes, qv))
                vv = np.einsum("dk,pnk->pnd", spaces.inv_jac_t[e],
                               spaces.vbasis.eval(ref))
                cross = n[0] * vv[:, :, 1] - n[1] * vv[:, :, 0]
                tv.append(np.einsum("p,pm,pn->mn", w, modes, cross))
                wt.append((avg * h) ** 2 / spaces.det_jac[e])
                side.append((e, avg, sg))
            self.sides.append(side)
            self.trace_q.append(tq)
            self.trace_v.append(tv)
            self.weight.append(wt)

    @property
    def dim_scalar_data(self) -> int:
        return self.spaces.mesh.num_faces * self.n_modes

    @property
    def dim_vector_data(self) -> int:
        return self.spaces.mesh.num_faces * 2 * self.n_modes

    def scalar_data_dofs(self, face: int) -> np.ndarray:
        return np.arange(face * self.n_modes, (face + 1) * self.n_modes)

    # ------------------------------------------------------------------
    # the six sparse builders

    def jump_tangential(self) -> csr_matrix:
        sp = self.spaces
        rows, cols, vals = [], [], []
        for f, side in enumerate(self.sides):
            for (e, _, sg), tv in zip(side, self.trace_v[f]):
                _append_block(rows, cols, vals, self.scalar_data_dofs(f),
                              sp.v_dofs(e), sg * tv)
        return _coo_csr(rows, cols, vals, (self.dim_scalar_data, sp.dim_V))

    def jump_normal(self) -> csr_matrix:
        sp = self.spaces
        nm = self.n_modes
        rows, cols, vals = [], [], []
        for f, side in enumerate(self.sides):
            n = sp.mesh.face_normals[f]
            for (e, _, sg), tq in zip(side, self.trace_q[f]):
                for c in range(2):
                    rix = f * 2 * nm + 2 * np.arange(nm) + c
                    _append_block(rows, cols, vals, rix, sp.q_dofs(e),
                                  sg * n[c] * tq)
        return _coo_csr(rows, cols, vals, (self.dim_vector_data, sp.dim_Q))

    def lift_scalar_matrix(self) -> csr_matrix:
        sp = self.spaces
        rows, cols, vals = [], [], []
        for f, side in enumerate(self.sides):
            h = sp.mesh.face_lengths[f]
            for (e, avg, _), tq in zip(side, self.trace_q[f]):
                block = (avg * h / sp.det_jac[e]) * tq.T
                _append_block(rows, cols, vals, sp.q_dofs(e),
                              self.scalar_data_dofs(f), block)
        return _coo_csr(rows, cols, vals, (sp.dim_Q, self.dim_scalar_data))

    def lift_vector_matrix(self) -> csr_matrix:
        sp = self.spaces
        nm = self.n_modes
        nq = sp.ndof_q
        rows, cols, vals = [], [], []
        for f, side in enumerate(self.sides):
            h = sp.mesh.face_lengths[f]
            for (e, avg, _), tq in zip(side, self.trace_q[f]):
                block = (avg * h / sp.det_jac[e]) * tq.T
                for c in range(2):
                    rix = 2 * (e * nq + np.arange(nq)) + c
                    cix = f * 2 * nm + 2 * np.arange(nm) + c
                    _append_block(rows, cols, vals, rix, cix, block)
        return _coo_csr(rows, cols, vals, (2 * sp.dim_Q, self.dim_vector_data))

    def curl_pair(self, weight: np.ndarray) -> csr_matrix:
        sp = self.spaces
        cc = sp.ref_curl_coeff
        rows, cols, vals = [], [], []
        for f, side in enumerate(self.sides):
            h = sp.mesh.face_lengths[f]
            for (e, avg, _), tq in zip(side, self.trace_q[f]):
                block = weight[e] * (avg * h / sp.det_jac[e]) * (tq @ cc)
                _append_block(rows, cols, vals, self.scalar_data_dofs(f),
                              sp.v_dofs(e), block)
        return _coo_csr(rows, cols, vals, (self.dim_scalar_data, sp.dim_V))

    def vector_value_pair(self, eps: np.ndarray) -> csr_matrix:
        sp = self.spaces
        nm = self.n_modes
        rows, cols, vals = [], [], []
        for f, side in enumerate(self.sides):
            h = sp.mesh.face_lengths[f]
            for (e, avg, _), tq in zip(side, self.trace_q[f]):
                comp = np.einsum("ck,krn->crn", sp.inv_jac_t[e],
                                 sp.ref_comp_coeff)
                for c in range(2):
                    rix = f * 2 * nm + 2 * np.arange(nm) + c
                    weighted = np.einsum("k,krn->rn", eps[e][c], comp)
                    _append_block(rows, cols, vals, rix, sp.v_dofs(e),
                                  (avg * h) * (tq @ weighted))
        return _coo_csr(rows, cols, vals, (self.dim_vector_data, sp.dim_V))

    # ------------------------------------------------------------------
    # face Grams and face data

    def face_grams_scalar(self, weight: np.ndarray | None = None) -> list:
        out = []
        for f, side in enumerate(self.sides):
            g = np.zeros((self.n_modes, self.n_modes))
            for (e, _, _), tq, wt in zip(side, self.trace_q[f], self.weight[f]):
                scale = wt if weight is None else wt * weight[e]
                g += scale * (tq @ tq.T)
            out.append(g)
        return out

    def face_grams_vector(self, eps: np.ndarray | None = None) -> list:
        eye = np.eye(2)
        out = []
        for f, side in enumerate(self.sides):
            g = np.zeros((2 * self.n_modes, 2 * self.n_modes))
            for (e, _, _), tq, wt in zip(side, self.trace_q[f], self.weight[f]):
                mat = eye if eps is None else eps[e]
                g += wt * np.kron(tq @ tq.T, mat)
            out.append(g)
        return out

    def project_scalar_data(self, func, degree: int | None = None,
                            boundary_only: bool = False) -> np.ndarray:
        sp = self.spaces
        rule = segment_rule(2 * sp.degree + 8 if degree is None else degree)
        s, w = rule.points, rule.weights
        modes = face_modes(sp.degree, s)
        data = np.zeros(self.dim_scalar_data)
        for f in range(sp.mesh.num_faces):
            if boundary_only and not sp.mesh.boundary[f]:
                continue
            phys = sp.face_points(f, s)
            vals = np.asarray(func(phys[:, 0], phys[:, 1]))
            data[self.scalar_data_dofs(f)] = np.einsum("p,pm,p->m", w, modes, vals)
        return data

    def tangential_boundary_data(self, u_func, degree: int | None = None) -> np.ndarray:
        sp = self.spaces
        rule = segment_rule(2 * sp.degree + 8 if degree is None else degree)
        s, w = rule.points, rule.weights
        modes = face_modes(sp.degree, s)
        data = np.zeros(self.dim_scalar_data)
        for f in np.flatnonzero(sp.mesh.boundary):
            n = sp.mesh.face_normals[f]
            phys = sp.face_points(f, s)
            vals = np.asarray(u_func(phys[:, 0], phys[:, 1]))
            cross = n[0] * vals[..., 1] - n[1] * vals[..., 0]
            data[self.scalar_data_dofs(f)] = np.einsum("p,pm,p->m", w, modes, cross)
        return data


def assemble_b_face_integral(disc) -> csr_matrix:
    """Element loop for -(eps v, grad q), then a loop over faces, v-sides
    and q-sides for the face integrals of {{eps v}} . [[q n]]."""
    sp = disc.spaces
    mesh = disc.mesh
    eps = disc.materials.eps

    rule = triangle_rule(sp.deg_stiff)
    pts, wts = rule.points, rule.weights
    vvals = sp.vbasis.eval(pts)
    qgrads = sp.qbasis.grad(pts)
    rows, cols, vals = [], [], []
    for e in range(mesh.num_elements):
        mapped_v = np.einsum("dk,pnk->pnd", sp.inv_jac_t[e], vvals)
        mapped_g = np.einsum("dk,pjk->pjd", sp.inv_jac_t[e], qgrads)
        ev = np.einsum("cd,pnd->pnc", eps[e], mapped_v)
        block = -sp.det_jac[e] * np.einsum("p,pnc,pjc->jn", wts, ev, mapped_g)
        _append_block(rows, cols, vals, sp.q_dofs(e), sp.v_dofs(e), block)

    frule = segment_rule(sp.deg_stiff)
    s, w = frule.points, frule.weights
    for f in range(mesh.num_faces):
        elems = [int(e) for e in mesh.face_elements[f] if e >= 0]
        sides = list(zip(elems, [1.0, -1.0]))
        avg = 1.0 if mesh.boundary[f] else 0.5
        n = mesh.face_normals[f]
        h = mesh.face_lengths[f]
        phys = sp.face_points(f, s)
        for ev_elem, _ in sides:
            ref_v = sp.ref_coords(ev_elem, phys)
            mapped = np.einsum("dk,pnk->pnd", sp.inv_jac_t[ev_elem],
                               sp.vbasis.eval(ref_v))
            ev = avg * np.einsum("cd,pnd->pnc", eps[ev_elem], mapped)
            ev_n = np.einsum("pnc,c->pn", ev, n)
            for eq_elem, sg in sides:
                qv = sg * sp.qbasis.eval(sp.ref_coords(eq_elem, phys))
                block = h * np.einsum("p,pj,pn->jn", w, qv, ev_n)
                _append_block(rows, cols, vals, sp.q_dofs(eq_elem),
                              sp.v_dofs(ev_elem), block)
    return _coo_csr(rows, cols, vals, (sp.dim_Q, sp.dim_V))


def _face_sides(disc, f: int):
    mesh = disc.mesh
    elems = [int(e) for e in mesh.face_elements[f] if e >= 0]
    avg = 1.0 if mesh.boundary[f] else 0.5
    signs = [1.0, -1.0][: len(elems)]
    return list(zip(elems, signs)), avg


def assemble_a_face_integral(disc) -> csr_matrix:
    """Curl form via direct quadrature: volume term pointwise, consistency
    terms as face integrals of tangential jumps against averaged weighted
    curls.  The penalty term has no face-integral expression and is taken
    from the liftings, as in the lifted assembly."""
    sp = disc.spaces
    mubar_inv = disc.materials.mu_bar_inv

    rule = triangle_rule(sp.deg_stiff)
    curls = sp.vbasis.curl(rule.points)                    # (np, nv)
    ref_gram = np.einsum("p,pi,pj->ij", rule.weights, curls, curls)
    blocks = (mubar_inv / sp.det_jac)[:, None, None] * ref_gram
    mat = element_block_diag(blocks).tolil()

    frule = segment_rule(sp.deg_stiff)
    s, w = frule.points, frule.weights
    for f in range(disc.mesh.num_faces):
        sides, avg = _face_sides(disc, f)
        n = disc.mesh.face_normals[f]
        h = disc.mesh.face_lengths[f]
        phys = sp.face_points(f, s)
        cross, wcurl, dofs = [], [], []
        for e, sg in sides:
            ref = sp.ref_coords(e, phys)
            vals = np.einsum("dk,pnk->pnd", sp.inv_jac_t[e],
                             sp.vbasis.eval(ref))
            cross.append(sg * (n[0] * vals[:, :, 1] - n[1] * vals[:, :, 0]))
            wcurl.append(avg * mubar_inv[e] / sp.det_jac[e]
                         * sp.vbasis.curl(ref))
            dofs.append(sp.v_dofs(e))
        for cu, du in zip(cross, dofs):
            for cv, dv in zip(wcurl, dofs):
                block = h * np.einsum("p,pi,pj->ij", w, cu, cv)
                # -int_F [[u]]_T {{w curl v}} and its transpose
                mat[np.ix_(dv, du)] -= block.T
                mat[np.ix_(du, dv)] -= block
    out = csr_matrix(mat)
    jt = disc.jump_t
    return csr_matrix(out + jt.T @ disc.penalty_gram @ jt)
