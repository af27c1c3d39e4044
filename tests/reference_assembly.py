"""The sparse-product route to the forms and systems, and the builders
only the tests use.

The COO builders come first: ``block_sparse`` places dense blocks by
COO triplets and converts them to CSR, ``element_block_diag`` and
``conforming_map`` are its block diagonals and conforming columns, and
the ``coo_*`` functions build ``mass_eps``, ``lift_gram_vector``,
``b_lambda`` and ``conforming_q_basis`` that way, the oracles of the
package's ``bsr_array``s of the same blocks.

A test oracle: ``maxwelldg.assembly.Discretization`` assembles its forms
and norm Grams face by face into element blocks in elimination order,
and sums its boundary load and jump terms face by face.  Here the face
operators are CSR maps (``face_csr`` of the lifting's per-(face, side)
blocks: the tangential and normal jumps ``jump_t``/``jump_n`` and the
curl pairing), and the forms and the norm Grams are their sparse triple
products (``jt^T P jt``, ``jn^T G jn``, ...) added to the CSR block
diagonals of the volume terms; the gradient pairing, the multiplier
block ``b_lambda``, the boundary load and the jump terms of the error
norms are their CSR expressions, the systems their ``bmat`` in the
(V, Q) or (V, M, Q) layout, the W-norm Gram N_w and the constraint row
C_w on V x M the ``block_diag`` and ``bmat`` that the composed route to
the stability constants reads, and ``element_system`` turns a (V, Q) matrix
plus a ``DofBlocks`` into the element-block matrix the multifrontal
factor reads.  The (V, M, Q) system, whose face multiplier the package
never forms, is solved here by SuperLU, independently of the package's
factor and of its (Q, Q) block.  The builders below the forms (lifting coefficient maps,
face projections, the curl-conforming dof matrices, their inverses and
the conforming V basis, the unweighted local V masses and the gradient
map, the V seminorm and M norm, index helpers,
evaluations, elementwise projections, element areas, the terminal rates
of a study) have no caller in the package.  Nothing in the package
imports this module.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import inv, solve
from scipy.sparse import (block_diag, bmat, bsr_matrix, coo_matrix, csc_matrix,
                          csr_matrix)
from scipy.sparse.linalg import splu

from maxwelldg.analysis import ConvergenceReport
from maxwelldg.assembly import Discretization
from maxwelldg.basis import face_modes
from maxwelldg.lifting import Lifting
from maxwelldg.mesh import Mesh, _signed_areas
from maxwelldg.quadrature import segment_rule, triangle_rule
from maxwelldg.spaces import Spaces

# ----------------------------------------------------------------------
# the COO builders: dense blocks as COO triplets, converted to CSR


def block_sparse(blocks: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 shape: tuple, keep: np.ndarray | None = None) -> csr_matrix:
    """Sparse matrix summing dense blocks (..., R, C) placed at row indices
    (..., R) and column indices (..., C) that broadcast against them.  A
    boolean mask keep over the leading axes drops the blocks where it is
    False; a mask of the full block shape drops single entries."""
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


def conforming_map(local: np.ndarray, cols: np.ndarray,
                   ncols: int) -> csc_matrix:
    """Columns of a conforming subspace: local (ne, n, c) block columns,
    placed at the element's dofs and the global columns cols (ne, c);
    a column index of -1 drops the local column."""
    ne, n = local.shape[:2]
    keep = np.broadcast_to((cols >= 0)[:, None, :], local.shape)
    return block_sparse(local, np.arange(ne * n).reshape(ne, n), cols,
                        (ne * n, ncols), keep=keep).tocsc()


def coo_mass_eps(disc: Discretization) -> csr_matrix:
    """``Discretization.mass_eps``: the V mass matrix weighted by eps."""
    sp = disc.spaces
    return element_block_diag(
        sp.mapped_gram(sp.ref_vcomp_gram, disc.materials.eps))


def coo_lift_gram_vector(disc: Discretization) -> csr_matrix:
    """``Discretization.lift_gram_vector``: the block diagonal of
    (eps R_F(.), R_F(.))."""
    return element_block_diag(disc._eps_grams)


def coo_b_lambda(disc: Discretization) -> csr_matrix:
    """``Discretization.b_lambda``: -jn_s^T G_F per (face, side)."""
    sp, lift = disc.spaces, disc.lifting
    nf, nq, m = disc.mesh.num_faces, sp.ndof_q, sp.ndof_m
    blocks = (-np.swapaxes(lift.normal_jumps(), 2, 3)
              @ disc._gamma_grams()[:, None])
    rows = lift.side_elements[:, :, None] * nq + np.arange(nq)
    return block_sparse(blocks, rows, np.arange(nf * m).reshape(nf, 1, m),
                        (sp.dim_Q, nf * m), keep=lift.side_mask)


def coo_conforming_q_basis(spaces: Spaces) -> csc_matrix:
    """``Spaces.conforming_q_basis``: the nodal basis of the continuous
    P_l subspace with zero boundary trace."""
    mesh = spaces.mesh
    nodal = inv(spaces.qbasis.eval(spaces._scalar_ref_nodes()))
    inner = np.ones(mesh.num_vertices, dtype=bool)
    inner[mesh.faces[mesh.boundary]] = False
    node_cols = np.full(mesh.num_vertices, -1)
    node_cols[inner] = np.arange(inner.sum())
    cols = node_cols[mesh.elements]
    ncols = int(inner.sum())
    if spaces.degree == 2:
        interior = ~mesh.boundary
        face_cols = np.full(mesh.num_faces, -1)
        face_cols[interior] = ncols + np.arange(interior.sum())
        cols = np.concatenate([cols, face_cols[mesh.element_faces]], axis=1)
        ncols += int(interior.sum())
    local = np.broadcast_to(nodal, (mesh.num_elements, *nodal.shape))
    return conforming_map(local, cols, ncols)


# ----------------------------------------------------------------------
# face maps as CSR


def face_csr(lifting: Lifting, blocks: np.ndarray) -> csr_matrix:
    """Map from broken coefficients to face data of the per-(face, side)
    blocks (nf, 2, r, n): r rows of face data per face, the n dofs of the
    side's element as columns; masked sides are dropped."""
    nf, _, r, n = blocks.shape
    cols = lifting.side_elements[:, :, None] * n + np.arange(n)
    return block_sparse(blocks, np.arange(nf * r).reshape(nf, 1, r), cols,
                        (nf * r, lifting.spaces.mesh.num_elements * n),
                        keep=lifting.side_mask)


def jump_tangential(lifting: Lifting) -> csr_matrix:
    """Map V coefficients to face coefficients of the tangential jump
    (n x v on the boundary)."""
    return face_csr(lifting, lifting.tangential_jumps())


def jump_normal(lifting: Lifting) -> csr_matrix:
    """Map Q coefficients to face coefficients of the vector-valued normal
    jump (q n on the boundary)."""
    return face_csr(lifting, lifting.normal_jumps())


def curl_pair(lifting: Lifting, weight: np.ndarray) -> csr_matrix:
    """The curl pairing with rows (face, mode), columns V dofs."""
    return face_csr(lifting, lifting.curl_pair_blocks(weight))


def jump_t(disc: Discretization) -> csr_matrix:
    return jump_tangential(disc.lifting)


def jump_n(disc: Discretization) -> csr_matrix:
    return jump_normal(disc.lifting)


# ----------------------------------------------------------------------
# forms and systems as sparse products


def curl_stiffness(disc: Discretization) -> csr_matrix:
    return element_block_diag(disc._curl_blocks())


def grad_pair(disc: Discretization) -> csr_matrix:
    """(eps v, grad q) pairing, rows V dofs, columns Q dofs."""
    sp = disc.spaces
    return element_block_diag(
        sp.mapped_gram(sp.ref_v_qgrad, disc.materials.eps))


def q_grad_gram(disc: Discretization) -> csr_matrix:
    """(eps grad q, grad q') broken gradient Gram on Q."""
    sp = disc.spaces
    return element_block_diag(
        sp.mapped_gram(sp.ref_qgrad_gram, disc.materials.eps))


def lift_gram_scalar(disc: Discretization) -> csr_matrix:
    """Block diagonal of (mu_bar^-1 r_F(.), r_F(.)), no penalty factor."""
    return element_block_diag(disc._mu_grams)


def seminorm_gram(disc: Discretization) -> csr_matrix:
    jt = jump_t(disc)
    return csr_matrix(curl_stiffness(disc) + jt.T @ lift_gram_scalar(disc) @ jt)


def norm_v_gram(disc: Discretization) -> csr_matrix:
    return csr_matrix(seminorm_gram(disc) + disc.mass_eps)


def norm_q_gram(disc: Discretization) -> csr_matrix:
    jn = jump_n(disc)
    return csr_matrix(q_grad_gram(disc) + jn.T @ disc.lift_gram_vector @ jn)


def b_lambda(disc: Discretization) -> csr_matrix:
    """Multiplier block of the constraint row, rows Q, columns face dofs."""
    return csr_matrix(-jump_n(disc).T @ (disc.gamma * disc.lift_gram_vector))


def vector_value_pair(lifting: Lifting, eps: np.ndarray) -> csr_matrix:
    """Rows (face, mode, component), columns V dofs:
    (eps v, R_F(mode, component)) for the per-element 2x2 field eps."""
    return face_csr(lifting, lifting.vector_value_pair(eps))


def curl_pair_matrix(disc: Discretization) -> csr_matrix:
    """The curl pairing W, rows (face, mode), columns V dofs."""
    return curl_pair(disc.lifting, disc.materials.mu_bar_inv)


def penalty_gram(disc: Discretization) -> csr_matrix:
    """Block diagonal P of the alpha-scaled scalar lifting Grams."""
    return element_block_diag(disc._alpha_grams())


def form_blocks(disc: Discretization, form) -> np.ndarray:
    """The element blocks of a form, rows ascending, then columns, read
    back through scipy's BSR conversion."""
    ne = disc.mesh.num_elements
    csr = csr_matrix(form)
    return csr.tobsr(blocksize=(csr.shape[0] // ne, csr.shape[1] // ne)).data


def a_matrix(disc: Discretization) -> csr_matrix:
    jt, w = jump_t(disc), curl_pair_matrix(disc)
    return csr_matrix(curl_stiffness(disc) - jt.T @ w - w.T @ jt
                      + jt.T @ penalty_gram(disc) @ jt)


def b_matrix(disc: Discretization) -> csr_matrix:
    value_pair = vector_value_pair(disc.lifting, disc.materials.eps)
    return csr_matrix(-grad_pair(disc).T + jump_n(disc).T @ value_pair)


def c_matrix(disc: Discretization) -> csr_matrix:
    jn = jump_n(disc)
    return csr_matrix(jn.T @ (disc.gamma * disc.lift_gram_vector) @ jn)


def load_boundary(disc: Discretization, g_data: np.ndarray) -> np.ndarray:
    """-W^T g + jt^T P g, a V vector."""
    jt = jump_t(disc)
    return (-curl_pair_matrix(disc).T @ g_data
            + jt.T @ (penalty_gram(disc) @ g_data))


def jump_errors(disc: Discretization, u: np.ndarray, p: np.ndarray,
                g_data: np.ndarray | None = None) -> tuple[float, float]:
    """The lifted jump terms of the field and multiplier errors, (jt u -
    g)^T G_mu (jt u - g) and (jn p)^T G_eps (jn p)."""
    jump = jump_t(disc) @ u
    if g_data is not None:
        jump = jump - g_data
    pjump = jump_n(disc) @ p
    return (float(jump @ (lift_gram_scalar(disc) @ jump)),
            float(pjump @ (disc.lift_gram_vector @ pjump)))


def primal_system(disc: Discretization, ksq: float) -> csc_matrix:
    """The (V, Q) system in the (V, Q) layout."""
    lhs = a_matrix(disc) - ksq * disc.mass_eps
    b = b_matrix(disc)
    return bmat([[lhs, b.T], [b, -c_matrix(disc)]], format="csc")


def auxiliary_system(disc: Discretization, ksq: float) -> csc_matrix:
    """The (V, M, Q) system in the (V, M, Q) layout, the face multiplier
    lam in M carrying the normal jump of p:

        [ a - ksq m      0        b^T    ]
        [     0         G      -G J_n    ]
        [     b      -J_n^T G     0      ]

    G = gamma (eps R_F, R_F) face by face.  It has no (Q, Q) block:
    eliminating lam leaves -J_n^T G J_n there, the -c of the primal
    system, so its solve is independent of ``c_matrix``."""
    lhs = a_matrix(disc) - ksq * disc.mass_eps
    b = b_matrix(disc)
    gram = disc.gamma * disc.lift_gram_vector
    gamma_jn = gram @ jump_n(disc)
    return bmat([
        [lhs, None, b.T],
        [None, gram, -gamma_jn],
        [b, -gamma_jn.T, None]], format="csc")


def solve_auxiliary(disc: Discretization, ksq: float,
                    load: np.ndarray) -> tuple[np.ndarray, ...]:
    """u, p and lam of the (V, M, Q) system by SuperLU, the V load padded
    with zeros on M and Q."""
    nv, nm = disc.spaces.dim_V, disc.spaces.dim_M
    rhs = np.concatenate([load, np.zeros(nm + disc.spaces.dim_Q)])
    x = splu(auxiliary_system(disc, ksq)).solve(rhs)
    return x[:nv], x[nv + nm:], x[nv:nv + nm]


def norm_w_gram(disc: Discretization) -> csr_matrix:
    """N_w, the Gram of the V x M norm: the V norm's, the seminorm plus
    the eps mass, and the lifted multipliers' (eps R_F, R_F)."""
    return block_diag([disc.seminorm_gram + disc.mass_eps,
                       disc.lift_gram_vector], format="csr")


def constraint_w(disc: Discretization) -> csr_matrix:
    """C_w, the constraint row on V x M: rows Q, columns (V, M)."""
    return bmat([[disc.b_matrix, disc.b_lambda]], format="csr")


def package_three_field(disc: Discretization, ksq: float) -> csr_matrix:
    """The (V, M, Q) system in the (V, M, Q) layout composed of the
    package's blocks: [a - ksq m, gamma (eps R_F, R_F)] block diagonal on
    V x M, and the constraint row C_w = [b, b_lambda]."""
    cw = constraint_w(disc)
    lhs = block_diag([disc.a_matrix - ksq * disc.mass_eps,
                      disc.gamma * disc.lift_gram_vector])
    return bmat([[lhs, cw.T], [cw, None]], format="csr")


class DofBlocks(NamedTuple):
    """Unknowns of the (V, Q) layout in element blocks.

    element_dofs : (ne, b) unknowns of each element, the elements in
        elimination order
    bounds : the elements in rows bounds[j] to bounds[j + 1] - 1 are
        eliminated in one front
    """

    element_dofs: np.ndarray
    bounds: np.ndarray


def dof_blocks(disc: Discretization) -> DofBlocks:
    """The unknowns of the (V, Q) layout in the element blocks of
    ``disc.primal_system``: per element in the mesh's nested-dissection
    order its V dofs, then its Q dofs."""
    sp, ne = disc.spaces, disc.mesh.num_elements
    v = np.arange(sp.dim_V).reshape(ne, sp.ndof_v)
    q = sp.dim_V + np.arange(sp.dim_Q).reshape(ne, sp.ndof_q)
    order, bounds = disc.dissection
    return DofBlocks(np.hstack([v, q])[order], bounds)


def block_load(disc: Discretization, load: np.ndarray) -> np.ndarray:
    """The V load in the numbering of ``disc.primal_system``: zero on the
    Q dofs, every dof placed by ``dof_blocks``."""
    full = np.concatenate([load, np.zeros(disc.spaces.dim_Q)])
    return full[dof_blocks(disc).element_dofs.ravel()]


def _permuted(matrix: csc_matrix, order: np.ndarray) -> csc_matrix:
    """P A P^T: one gather of the columns of A, then its rows renumbered
    in place."""
    inverse = np.empty(len(order), dtype=matrix.indices.dtype)
    inverse[order] = np.arange(len(order))
    out = matrix[:, order]
    out.indices = inverse[out.indices]
    out.has_sorted_indices = False
    out.sort_indices()
    return out


def block_numbered(matrix, blocks: DofBlocks) -> csc_matrix:
    """A matrix in the (V, Q) layout renumbered as the element blocks."""
    order = blocks.element_dofs.ravel()
    if not np.array_equal(np.sort(order), np.arange(matrix.shape[0])):
        raise ValueError("the blocks do not partition the unknowns")
    return _permuted(csc_matrix(matrix), order)


def reordered(system: bsr_matrix, blocks: DofBlocks,
              other: DofBlocks) -> bsr_matrix:
    """A system in element blocks numbered by blocks, with them numbered
    by the other blocks instead."""
    perm = np.argsort(blocks.element_dofs.ravel())[other.element_dofs.ravel()]
    nb = other.element_dofs.shape[1]
    return _permuted(csc_matrix(system), perm).tocsr().tobsr(blocksize=(nb, nb))


def element_system(matrix, blocks: DofBlocks) -> bsr_matrix:
    """A (V, Q) matrix in elimination order and in blocks of one element,
    the form the multifrontal factor reads."""
    nb = blocks.element_dofs.shape[1]
    return block_numbered(matrix, blocks).tocsr().tobsr(blocksize=(nb, nb))


def system_gaps(disc: Discretization, ksq: float,
                multiplier: bool = False) -> dict:
    """Largest entry of the difference between the package's system (its
    forms, its 1-norm) and the sparse-product route, relative to the
    largest entry of the latter's system: ``disc.primal_system`` in the
    element-block numbering, or with the multiplier the (V, M, Q) system
    of ``package_three_field`` in its layout."""
    if multiplier:
        mine = package_three_field(disc, ksq).toarray()
        oracle = auxiliary_system(disc, ksq).toarray()
    else:
        mine = disc.primal_system(ksq).toarray()
        oracle = block_numbered(primal_system(disc, ksq),
                                dof_blocks(disc)).toarray()
    norm = np.abs(mine).sum(axis=0).max()
    scale = np.abs(oracle).max()
    gaps = {"system": np.abs(mine - oracle).max() / scale,
            "norm": abs(norm - np.abs(oracle).sum(axis=0).max()) / norm}
    for name, form in (("a", a_matrix), ("b", b_matrix), ("c", c_matrix)):
        gaps[name] = np.abs(getattr(disc, f"{name}_matrix").toarray()
                            - form(disc).toarray()).max() / scale
    return gaps


# ----------------------------------------------------------------------
# builders without a caller in the package


def dim_scalar_data(lifting: Lifting) -> int:
    return lifting.spaces.mesh.num_faces * lifting.n_modes


def dim_vector_data(lifting: Lifting) -> int:
    return lifting.spaces.mesh.num_faces * 2 * lifting.n_modes


def _elem_dofs(lifting: Lifting, ndof: int) -> np.ndarray:
    """Blocked element dofs of each (face, side), (nf, 2, ndof)."""
    return lifting.side_elements[:, :, None] * ndof + np.arange(ndof)


def _lift_blocks(lifting: Lifting) -> np.ndarray:
    """Broken scalar coefficients of the lifted modes, (nf, 2, nq, l+1)."""
    return lifting.lift_scale[:, :, None, None] * np.swapaxes(
        lifting.trace_q, 2, 3)


def lift_scalar_matrix(lifting: Lifting) -> csr_matrix:
    """Map scalar face data to broken scalar coefficients of the sum of
    the per-face liftings."""
    sp = lifting.spaces
    return block_sparse(
        _lift_blocks(lifting), _elem_dofs(lifting, sp.ndof_q),
        np.arange(dim_scalar_data(lifting)).reshape(-1, 1, lifting.n_modes),
        (sp.dim_Q, dim_scalar_data(lifting)), keep=lifting.side_mask)


def lift_vector_matrix(lifting: Lifting) -> csr_matrix:
    """Map vector face data to broken vector coefficients (layout
    (element, mode, component))."""
    sp = lifting.spaces
    # one copy of the scalar block per component c, (nf, 2, c, nq, nm)
    blocks = np.broadcast_to(_lift_blocks(lifting)[:, :, None],
                             (sp.mesh.num_faces, 2, 2, sp.ndof_q,
                              lifting.n_modes))
    rows = 2 * _elem_dofs(lifting, sp.ndof_q)[:, :, None] + np.arange(2)[:, None]
    cols = np.swapaxes(np.arange(dim_vector_data(lifting)).reshape(
        -1, 1, lifting.n_modes, 2), 2, 3)
    return block_sparse(blocks, rows, cols,
                        (2 * sp.dim_Q, dim_vector_data(lifting)),
                        keep=lifting.side_mask)


def project_scalar_data(lifting: Lifting, func,
                        boundary_only: bool = False) -> np.ndarray:
    """L^2-project a scalar callable onto the face mode basis."""
    mesh = lifting.spaces.mesh
    faces = (np.flatnonzero(mesh.boundary) if boundary_only
             else np.arange(mesh.num_faces))
    rule, phys = lifting._face_samples(faces)
    vals = np.asarray(func(phys[..., 0], phys[..., 1]))
    return lifting._face_data(faces, rule, vals)


def _dof_blocks(spaces: Spaces) -> tuple[np.ndarray, np.ndarray]:
    """Per element, the local curl-conforming dof matrix (3 x l edge
    moment rows, then interior rows) and its inverse."""
    mesh = spaces.mesh
    l = spaces.degree
    ne = mesh.num_elements
    rule = segment_rule(2 * l + 2)
    s, w = rule.points, rule.weights
    modes = face_modes(l - 1, s)                       # (np, l)
    # one pull-back of every face point into the element, per
    # (element, local face)
    faces = mesh.element_faces
    phys = spaces.face_points(faces, s)                # (ne, 3, np, 2)
    ref = spaces.ref_coords(np.arange(ne)[:, None], phys)
    npts = len(s)
    vals = spaces.vbasis.eval(ref.reshape(-1, 2)).reshape(
        ne, 3, npts * spaces.ndof_v, 2)
    # t . (inv(J)^T v) = (inv(J) t) . v, (ne, 3, 2, 1)
    pulled = (mesh.face_tangents[faces] @ spaces.inv_jac_t)[..., None]
    tang = (vals @ pulled).reshape(ne, 3, npts, spaces.ndof_v)
    # moment_m(v) = int_e (t . v) mode_m ds, global orientation
    edge = mesh.face_lengths[faces][..., None, None] * (
        (w[:, None] * modes).T @ tang)
    rows = [edge.reshape(ne, 3 * l, spaces.ndof_v)]
    if spaces.ndof_v > 3 * l:
        tri = triangle_rule(spaces.deg_stiff)
        # reference moments int_T v[n, k], (2, nv)
        ref_int = np.tensordot(tri.weights, spaces.vbasis.eval(tri.points),
                               axes=1).T
        rows.append((spaces.det_jac[:, None, None] * spaces.inv_jac_t)
                    @ ref_int)                          # (ne, 2, nv)
    dmats = np.concatenate(rows, axis=1)
    return dmats, inv(dmats)


def v_dof_matrices(spaces: Spaces) -> np.ndarray:
    return _dof_blocks(spaces)[0]


def v_dof_inverses(spaces: Spaces) -> np.ndarray:
    return _dof_blocks(spaces)[1]


def conforming_v_basis(spaces: Spaces) -> csc_matrix:
    """Tangentially continuous subspace with zero boundary trace, as
    columns of V-coefficient vectors: l columns per interior face, then
    the interior moments of each element."""
    mesh = spaces.mesh
    l = spaces.degree
    ne = mesh.num_elements
    n_int = spaces.ndof_v - 3 * l
    interior = ~mesh.boundary
    n_face_cols = l * int(interior.sum())
    face_cols = np.full((mesh.num_faces, l), -1)
    face_cols[interior] = np.arange(n_face_cols).reshape(-1, l)
    cols = np.concatenate([
        face_cols[mesh.element_faces].reshape(ne, 3 * l),
        n_face_cols + np.arange(ne * n_int).reshape(ne, n_int)], axis=1)
    return conforming_map(v_dof_inverses(spaces), cols,
                          n_face_cols + ne * n_int)


def local_v_grams(spaces: Spaces) -> np.ndarray:
    """Physical local V mass matrices, shape (ne, ndof_v, ndof_v)."""
    unit = np.broadcast_to(np.eye(2), (spaces.mesh.num_elements, 2, 2))
    return spaces.mapped_gram(spaces.ref_vcomp_gram, unit)


def gradient_map(spaces: Spaces) -> np.ndarray:
    """Local matrices carrying Q coefficients to the V coefficients of
    the elementwise gradient (exact: gradients of P_l lie in the local
    curl space).  Shape (ne, ndof_v, ndof_q)."""
    unit = np.broadcast_to(np.eye(2), (spaces.mesh.num_elements, 2, 2))
    return solve(local_v_grams(spaces),
                 spaces.mapped_gram(spaces.ref_v_qgrad, unit), assume_a="pos")


def seminorm_v(disc: Discretization, coeffs: np.ndarray) -> float:
    return np.sqrt(max(disc._seminorm_sq(coeffs), 0.0))


def norm_m(disc: Discretization, coeffs: np.ndarray) -> float:
    return np.sqrt(max(coeffs @ (disc.lift_gram_vector @ coeffs), 0.0))


def scalar_data_dofs(lifting: Lifting, face: int) -> np.ndarray:
    return np.arange(face * lifting.n_modes, (face + 1) * lifting.n_modes)


def v_dofs(spaces: Spaces, elem: int) -> np.ndarray:
    return np.arange(elem * spaces.ndof_v, (elem + 1) * spaces.ndof_v)


def q_dofs(spaces: Spaces, elem: int) -> np.ndarray:
    return np.arange(elem * spaces.ndof_q, (elem + 1) * spaces.ndof_q)


def eval_q(spaces: Spaces, coeffs: np.ndarray,
           ref_pts: np.ndarray) -> np.ndarray:
    """Values of a Q field, or of a broken scalar lifting-space field
    (the same mapped orthonormal basis), shape (ne, np)."""
    c = coeffs.reshape(spaces.mesh.num_elements, spaces.ndof_q)
    return c @ spaces.qbasis.eval(ref_pts).T


def eval_lift_vector(spaces: Spaces, coeffs: np.ndarray,
                     ref_pts: np.ndarray) -> np.ndarray:
    c = coeffs.reshape(spaces.mesh.num_elements, spaces.ndof_q, 2)
    return spaces.qbasis.eval(ref_pts) @ c


def project_v(spaces: Spaces, func, degree: int | None = None) -> np.ndarray:
    """Elementwise L^2 projection of func(x, y) -> (..., 2) onto V.

    Exact whenever func restricted to an element already lies in the
    local space.
    """
    rule = triangle_rule(spaces.deg_load if degree is None else degree)
    pts, wts = rule.points, rule.weights
    phys = spaces.phys_points(pts)
    target = np.asarray(func(phys[..., 0], phys[..., 1]))
    rhs = spaces.mapped_moments(spaces.vbasis.eval(pts), wts, target)
    return solve(local_v_grams(spaces), rhs[..., None], assume_a="pos").ravel()


def project_q(spaces: Spaces, func, degree: int | None = None) -> np.ndarray:
    """Elementwise L^2 projection of a scalar callable onto Q."""
    rule = triangle_rule(spaces.deg_load if degree is None else degree)
    pts, wts = rule.points, rule.weights
    phys = spaces.phys_points(pts)
    target = np.asarray(func(phys[..., 0], phys[..., 1]))
    # Mapped orthonormal basis: the local mass det_jac * identity
    # cancels the det_jac of the moments.
    return (target @ (wts[:, None] * spaces.qbasis.eval(pts))).ravel()


def element_areas(mesh: Mesh) -> np.ndarray:
    return np.abs(_signed_areas(mesh.vertices, mesh.elements))


def terminal_eoc(report: ConvergenceReport) -> tuple[float | None, float | None]:
    if not report.records:
        return None, None
    return report.records[-1].eoc_v, report.records[-1].eoc_q
