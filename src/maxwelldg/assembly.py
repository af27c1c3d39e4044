"""Assembly of the mixed interior penalty system.

The discrete problem couples a broken curl-conforming field u with a
broken scalar multiplier p:

    a(u, v) - ksq (eps u, v) + b(v, p) = (j, v) + boundary terms
    b(u, q) - c(p, q)                  = 0

The constraint row has no load, so every load is a V vector.
All nonlocal coupling runs through the face lifting operators; the
penalty and jump terms are therefore sums of per-face rank-(l+1)
contributions and the stencil never grows past face neighbors.  The
graph of each system is thus the element dual graph with dense element
blocks, and a nested-dissection order of the elements is an elimination
order of the system's unknowns.
The forms a, b and c are assembled face by face straight into those
blocks: each face adds one dense block per pair of its sides, and each
element its volume block.  Each form is a `bsr_array` of its element
blocks, and the system is made of their `data`, in the elimination order
the multifrontal factor reads.  The forms are cached for the analysis
that reads them; a solve builds each one for its system alone and lets it
go, so it holds every element block once.  The seminorm and Q-norm
Grams, which the stability constants and the sampled coercivity margin
read, are assembled the same way, and the boundary load and the norm
values are summed from the same (face, side) tables and per-face Grams,
the one form of the face operators in the package.  Every sparse
operator here is a `bsr_array` of the element or face blocks it is
made of, the eps mass and the vector lifting Gram block diagonals.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.sparse import bsr_array

from .lifting import Lifting
from .materials import Coefficients, MaterialArrays
from .mesh import Mesh
from .quadrature import triangle_rule
from .spaces import Spaces

__all__ = ["Discretization"]

# Each triangle has 3 face neighbors; the coercivity threshold for the
# penalty weights is 1/2 + 2 * 3.
FACES_PER_ELEMENT = 3
DEFAULT_ALPHA = 0.5 + 2.0 * FACES_PER_ELEMENT
DEFAULT_GAMMA = 0.5
# Parts of the mesh with at most this many unknowns are not cut further:
# each is one front of the factor.
FRONT_LEAF = 96


class Discretization:
    """Spaces, liftings, materials, and the assembled operators.

    alpha (curl penalty) and gamma (multiplier penalty) are positive finite
    numbers; they default to the thresholds 6.5 and 0.5.
    """

    def __init__(self, mesh: Mesh, degree: int, coeffs: Coefficients | None = None,
                 alpha: float | None = None, gamma: float | None = None):
        self.alpha = float(DEFAULT_ALPHA if alpha is None else alpha)
        self.gamma = float(DEFAULT_GAMMA if gamma is None else gamma)
        if not (0.0 < self.alpha < np.inf and 0.0 < self.gamma < np.inf):
            raise ValueError("penalty weights must be positive and finite")
        self.mesh = mesh
        self.spaces = Spaces(mesh, degree)
        self.lifting = Lifting(self.spaces)
        self.coeffs = coeffs if coeffs is not None else Coefficients()
        self.materials: MaterialArrays = self.coeffs.expand(mesh)

    # ------------------------------------------------------------------
    # volume operators

    def _curl_blocks(self) -> np.ndarray:
        """(mu_bar^-1 curl v, curl v') per element, (ne, nv, nv)."""
        sp = self.spaces
        scale = self.materials.mu_bar_inv / sp.det_jac
        return scale[:, None, None] * sp.ref_curl_gram

    def _mass_blocks(self) -> np.ndarray:
        """(eps v, v') per element, (ne, nv, nv)."""
        sp = self.spaces
        return sp.mapped_gram(sp.ref_vcomp_gram, self.materials.eps)

    def _q_grad_blocks(self) -> np.ndarray:
        """(eps grad q, grad q') per element, (ne, nq, nq)."""
        sp = self.spaces
        return sp.mapped_gram(sp.ref_qgrad_gram, self.materials.eps)

    @cached_property
    def mass_eps(self) -> bsr_array:
        """V mass matrix weighted by eps."""
        ne = self.mesh.num_elements
        return bsr_array((self._mass_blocks(), np.arange(ne), np.arange(ne + 1)))

    # ------------------------------------------------------------------
    # face operators

    @cached_property
    def lift_gram_vector(self) -> bsr_array:
        """Block diagonal of (eps R_F(.), R_F(.)), no penalty factor."""
        nf = self.mesh.num_faces
        return bsr_array((self._eps_grams, np.arange(nf), np.arange(nf + 1)))

    @cached_property
    def _mu_grams(self) -> np.ndarray:
        """(mu_bar^-1 r_F(.), r_F(.)) per face, no penalty factor,
        (nf, l+1, l+1)."""
        return self.lifting.face_grams_scalar(self.materials.mu_bar_inv)

    @cached_property
    def _eps_grams(self) -> np.ndarray:
        """(eps R_F(.), R_F(.)) per face, no penalty factor, (nf, m, m)."""
        return self.lifting.face_grams_vector(self.materials.eps)

    def _alpha_grams(self) -> np.ndarray:
        """alpha (mu_bar^-1 r_F(.), r_F(.)) per face, (nf, l+1, l+1)."""
        return self.alpha * self._mu_grams

    def _gamma_grams(self) -> np.ndarray:
        """gamma (eps R_F(.), R_F(.)) per face, (nf, m, m)."""
        return self.gamma * self._eps_grams

    # ------------------------------------------------------------------
    # element blocks

    @cached_property
    def dissection(self) -> tuple[np.ndarray, np.ndarray]:
        """Elimination order of the elements and its runs, each run one
        front of the factor (see `Mesh.dissection`)."""
        sp = self.spaces
        return self.mesh.dissection(max(1, FRONT_LEAF // (sp.ndof_v + sp.ndof_q)))

    @cached_property
    def _block_pattern(self) -> tuple[np.ndarray, ...]:
        """The blocks between elements that the forms store: each
        element's own block, then per interior face its (plus, minus) and
        its (minus, plus) block.  Returns, rows ascending, then columns,
        the row and column element of each block, its index in the order
        just listed and the position of its transpose; and the position
        of each row's first block."""
        mesh = self.mesh
        ne = mesh.num_elements
        plus, minus = mesh.face_elements[~mesh.boundary].T
        rows = np.concatenate([np.arange(ne), plus, minus])
        cols = np.concatenate([np.arange(ne), minus, plus])
        made = np.lexsort((cols, rows))
        # an own block is its own transpose, a face's two blocks swap
        mate = np.append(np.arange(ne), np.roll(np.arange(ne, len(rows)), len(plus)))
        return (rows[made], cols[made], made, np.argsort(made)[mate[made]],
                np.searchsorted(rows[made], np.arange(ne + 1)))

    @cached_property
    def _element_sides(self) -> tuple[np.ndarray, np.ndarray]:
        """The face each element has in each of its three places and the
        element's side of it, (3, ne) each."""
        mesh = self.mesh
        sides = (mesh.face_elements[mesh.element_faces, 1]
                 == np.arange(mesh.num_elements)[:, None])
        return mesh.element_faces.T, sides.T.astype(np.int64)

    def _assemble(self, volume: np.ndarray, face, symmetric: bool) -> bsr_array:
        """A form in blocks between elements: an element's own block sums
        its volume block (ne, r, c) and the blocks face(f, s, s) its three
        faces f add on its side s; each interior face adds its (plus,
        minus) block face(f, 0, 1) and its (minus, plus) block, for a
        symmetric form the transpose of the first.  The face blocks are
        summed into volume in place.  The form's `data` holds its blocks
        in the order of `_block_pattern`."""
        mesh = self.mesh
        ne = mesh.num_elements
        for f, side in zip(*self._element_sides):
            volume += face(f, side, side)
        inner = np.flatnonzero(~mesh.boundary)
        cross = face(inner, 0, 1)
        back = np.swapaxes(cross, 1, 2) if symmetric else face(inner, 1, 0)
        _, cols, made, _, first = self._block_pattern
        nr, nc = volume.shape[1:]
        blocks = np.concatenate([volume, cross, back])[made]
        return bsr_array((blocks, cols, first), shape=(ne * nr, ne * nc))

    # ------------------------------------------------------------------
    # forms

    @cached_property
    def a_matrix(self) -> bsr_array:
        """Curl form: the volume term plus the lifted consistency and
        penalty terms of the tangential jumps."""
        lift = self.lifting
        jt = lift.tangential_jumps()
        curl = lift.curl_pair_blocks(self.materials.mu_bar_inv)
        penalty = self._alpha_grams()
        tr = np.swapaxes

        def face(f, s, t):
            """jt_s^T (P jt_t - W_t) - W_s^T jt_t, P the penalty Gram and W
            the curl pairing."""
            return (tr(jt[f, s], 1, 2) @ (penalty[f] @ jt[f, t] - curl[f, t])
                    - tr(curl[f, s], 1, 2) @ jt[f, t])
        return self._assemble(self._curl_blocks(), face, symmetric=True)

    @cached_property
    def b_matrix(self) -> bsr_array:
        """Mixed form -(eps v, grad q) plus the lifted normal-jump term;
        rows Q dofs, columns V dofs."""
        sp, lift = self.spaces, self.lifting
        jn = lift.normal_jumps()
        value = lift.vector_value_pair(self.materials.eps)

        def face(f, s, t):
            """jn_s^T Y_t, Y the value pairing."""
            return np.swapaxes(jn[f, s], 1, 2) @ value[f, t]
        grad = sp.mapped_gram(sp.ref_v_qgrad, self.materials.eps)
        return self._assemble(-np.swapaxes(grad, 1, 2), face, symmetric=False)

    def _jump_form(self, volume: np.ndarray, jumps: np.ndarray,
                   grams: np.ndarray) -> bsr_array:
        """The symmetric form of the volume blocks plus, per face F, the
        lifted jumps jumps_s^T G_F jumps_t of its sides, G (nf, r, r)."""
        def face(f, s, t):
            return np.swapaxes(jumps[f, s], 1, 2) @ (grams[f] @ jumps[f, t])
        return self._assemble(volume, face, symmetric=True)

    @cached_property
    def c_matrix(self) -> bsr_array:
        """Multiplier penalty: gamma (eps R_F(jump q), R_F(jump q'))."""
        nq = self.spaces.ndof_q
        return self._jump_form(np.zeros((self.mesh.num_elements, nq, nq)),
                               self.lifting.normal_jumps(), self._gamma_grams())

    @cached_property
    def b_lambda(self) -> bsr_array:
        """Multiplier block of the constraint row, rows Q, columns face
        dofs: -jn_s^T G_F per (face, side), G the multiplier penalty Gram,
        one block per element and face, the faces of each element
        ascending."""
        sp = self.spaces
        blocks = (-np.swapaxes(self.lifting.normal_jumps(), 2, 3)
                  @ self._gamma_grams()[:, None])
        order = np.argsort(self._element_sides[0], axis=0)
        faces, sides = (np.take_along_axis(part, order, axis=0).T
                        for part in self._element_sides)
        return bsr_array((blocks[faces, sides].reshape(-1, *blocks.shape[2:]),
                          faces.ravel(), np.arange(0, faces.size + 1, 3)),
                         shape=(sp.dim_Q, sp.dim_M))

    # ------------------------------------------------------------------
    # norms

    @cached_property
    def seminorm_gram(self) -> bsr_array:
        return self._jump_form(self._curl_blocks(),
                               self.lifting.tangential_jumps(), self._mu_grams)

    @cached_property
    def norm_q_gram(self) -> bsr_array:
        return self._jump_form(self._q_grad_blocks(), self.lifting.normal_jumps(),
                               self._eps_grams)

    # ------------------------------------------------------------------
    # systems

    def _form(self, name: str) -> bsr_array:
        """The form of that name: its cached copy if a reader has cached
        it, else one built by its cached property's getter, the one path
        that assembles it, for the caller alone."""
        form = self.__dict__.get(name)
        return getattr(type(self), name).func(self) if form is None else form

    def primal_system(self, ksq: float) -> bsr_array:
        """The (V, Q) system [[a - ksq m, b^T], [b, -c]] in blocks of one
        element, the elements in elimination order `dissection[0]`: each
        block's first ndof_v rows and columns are the element's V dofs, the
        rest its Q dofs.  The forms a, b and c that no reader has cached
        are built one at a time and released before the next, so a solve
        holds each element block only once, here."""
        sp, ne = self.spaces, self.mesh.num_elements
        nv, nb = sp.ndof_v, sp.ndof_v + sp.ndof_q
        brow, bcol, _, transpose, _ = self._block_pattern
        rank = np.argsort(self.dissection[0])
        rows, cols = rank[brow], rank[bcol]
        source = np.lexsort((cols, rows))
        data = np.empty((len(source), nb, nb))
        data[:, :nv, :nv] = self._form("a_matrix").data[source]
        b = self._form("b_matrix").data
        data[:, :nv, nv:] = np.swapaxes(b[transpose[source]], 1, 2)
        data[:, nv:, :nv] = b[source]
        del b
        data[:, nv:, nv:] = -self._form("c_matrix").data[source]
        own = transpose[source] == source
        data[own, :nv, :nv] -= ksq * self._mass_blocks()[brow[source[own]]]
        indptr = np.searchsorted(rows[source], np.arange(ne + 1))
        return bsr_array((data, cols[source], indptr), shape=(ne * nb, ne * nb))

    # ------------------------------------------------------------------
    # loads

    def load_volume(self, func) -> np.ndarray:
        """(f, v) for a vector callable f(x, y) -> (..., 2), a V vector."""
        sp = self.spaces
        rule = triangle_rule(sp.deg_load)
        pts, wts = rule.points, rule.weights
        phys = sp.phys_points(pts)
        fvals = np.asarray(func(phys[..., 0], phys[..., 1]))
        return sp.mapped_moments(sp.vbasis.eval(pts), wts, fvals).ravel()

    def load_boundary(self, g_data: np.ndarray) -> np.ndarray:
        """Moves inhomogeneous tangential boundary data into the right hand
        side: the flux jumps are penalized against jump - g, so g enters
        through the lifted consistency and penalty terms, on each (face,
        side) -W_s^T g_F + jt_s^T (P_F g_F), W the curl pairing and P the
        penalty Gram, summed into the V vector at the side's element."""
        lift = self.lifting
        g = g_data.reshape(-1, lift.n_modes, 1)[:, None]
        jt = lift.tangential_jumps()
        curl = lift.curl_pair_blocks(self.materials.mu_bar_inv)
        side = (np.swapaxes(jt, 2, 3) @ (self._alpha_grams()[:, None] @ g)
                - np.swapaxes(curl, 2, 3) @ g)
        vec = np.zeros((self.mesh.num_elements, self.spaces.ndof_v))
        for f, s in zip(*self._element_sides):
            vec += side[f, s, :, 0]
        return vec.ravel()

    # ------------------------------------------------------------------
    # norm values

    # The norms sum their quadratic forms element by element and face by
    # face, from the blocks the forms are made of, so evaluating one
    # builds none of the sparse Grams above.

    @staticmethod
    def _element_form(blocks: np.ndarray, coeffs: np.ndarray) -> float:
        """sum_K c_K^T B_K c_K over the element blocks B (ne, n, n)."""
        c = coeffs.reshape(len(blocks), -1, 1)
        return float((np.swapaxes(c, 1, 2) @ blocks @ c).sum())

    def _face_form(self, jumps: np.ndarray, grams: np.ndarray,
                   coeffs: np.ndarray, data: np.ndarray | None = None) -> float:
        """sum_F j_F^T G_F j_F over the faces, G (nf, r, r), for the jumps
        j_F = sum_s jumps[F, s] c_K(F, s) of the element coefficients,
        jumps (nf, 2, r, n) zero on a missing side, less the face data
        (nf r) when given."""
        c = coeffs.reshape(self.mesh.num_elements, -1)[self.lifting.side_elements]
        j = (jumps @ c[..., None]).sum(axis=1)
        if data is not None:
            j -= data.reshape(j.shape)
        return float((np.swapaxes(j, 1, 2) @ grams @ j).sum())

    def tangential_jump_sq(self, coeffs: np.ndarray,
                           data: np.ndarray | None = None) -> float:
        """sum_F (mu_bar^-1 r_F(eta), r_F(eta)) for eta the tangential jump
        of the V coefficients less the scalar face data, when given."""
        return self._face_form(self.lifting.tangential_jumps(), self._mu_grams,
                               coeffs, data)

    def normal_jump_sq(self, coeffs: np.ndarray) -> float:
        """sum_F (eps R_F(lam), R_F(lam)) for lam the normal jump of the Q
        coefficients."""
        return self._face_form(self.lifting.normal_jumps(), self._eps_grams,
                               coeffs)

    def _seminorm_sq(self, coeffs: np.ndarray) -> float:
        return (self._element_form(self._curl_blocks(), coeffs)
                + self.tangential_jump_sq(coeffs))

    def norm_v(self, coeffs: np.ndarray) -> float:
        """The V norm of the coefficients."""
        return np.sqrt(max(self._seminorm_sq(coeffs)
                           + self._element_form(self._mass_blocks(), coeffs),
                           0.0))

    def norm_q(self, coeffs: np.ndarray) -> float:
        """The Q norm of the coefficients."""
        return np.sqrt(max(self._element_form(self._q_grad_blocks(), coeffs)
                           + self.normal_jump_sq(coeffs), 0.0))
