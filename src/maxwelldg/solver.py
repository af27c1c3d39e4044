"""Direct solution of the assembled saddle point systems.

The systems are symmetric indefinite, and their graph is the element
dual graph with dense element blocks.  They are factored by a
multifrontal LU in the mesh's nested-dissection order of the elements
(Duff and Reid, ACM Trans. Math. Softw. 1983; Liu, SIAM Rev. 1992), on the
elimination tree read from the matrix: each tree node eliminates a run of
elements in one dense front, with partial pivoting inside the
front's fully summed block only, and passes its Schur complement to its
parent, so nearly all the work is dense BLAS-3.  The auxiliary system's
face multiplier blocks are eliminated first, all faces at once.  Pivoting
restricted to the fronts may grow the factor's error, so every solve
takes one step of iterative refinement in working precision, which
restores a small backward error when the factor is not too unstable
(Skeel, Math. Comp. 1980).  A refined probe solve checks that at
factorization time; if it fails, or a front is singular, the matrix is
refactored by SuperLU with partial pivoting and a COLAMD column order.

A wavenumber at a discrete resonance makes the matrix singular.  That is
judged by a 1-norm condition estimate (Higham and Tisseur, SIAM J. Matrix
Anal. Appl. 2000), which, unlike the pivots of the factor, depends on
neither the scale of the system nor the fill-reducing ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetri
from scipy.sparse import bsr_matrix, csc_matrix
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from .assembly import Discretization, DofBlocks

__all__ = ["ResonanceError", "Factor", "MultifrontalLU", "Solution",
           "backward_error", "factorize", "refined_solve", "solve_mixed",
           "solve_auxiliary"]

# Normwise backward error of the refined probe solve above which the
# multifrontal factor is refused.  A stable factor stays near eps.
BACKWARD_TOL = 10.0 * np.finfo(float).eps
# Condition estimate above which the system is declared singular: past it
# the forward error bound cond * eps exceeds 1%.  Regular systems up to
# square:128 read below 1e10, exact discrete eigenvalues 1e16 and above.
COND_MAX = 0.01 / np.finfo(float).eps


class ResonanceError(RuntimeError):
    """The saddle point matrix is numerically singular for this wavenumber."""


@dataclass(frozen=True)
class Factor:
    """How a system was factored."""

    pivoting: str          # "symmetric" (inside the fronts), or "partial"
    ordering: str          # "nested_dissection", or "colamd" after fallback
    lu_nnz: int            # stored entries of the factor
    cond_estimate: float   # estimate of the 1-norm condition number
    norm: float            # 1-norm of the factored matrix


@dataclass
class Solution:
    """Coefficient vectors of the discrete fields (u in V, p in Q, the
    face multiplier lam in M or None) plus solver diagnostics."""

    u: np.ndarray
    p: np.ndarray
    lam: np.ndarray | None
    residual: float        # algebraic residual, relative to the load
    backward_error: float  # normwise 1-norm backward error of the solve
    factor: Factor         # how the system was factored
    constraint_gap: float  # ||B u - C p|| relative to operator/field scales


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


class _Count(NamedTuple):
    """Stored entries of one part of a factor, as SuperLU's L and U
    report them."""

    nnz: int


class MultifrontalLU:
    """Multifrontal factor of a symmetric matrix laid out in the element
    blocks of a `DofBlocks`; solves in the numbering of the matrix.

    The face blocks, if any, are inverted first, all at once, and their
    Schur complement is formed by sparse products.  The element-block
    system left is factored run by run, each run of elements one node of
    the elimination tree, which is read from the block pattern of that
    system (Liu, SIAM J. Matrix Anal. Appl. 1990).  The front of a tree
    node holds the blocks of its own elements (p unknowns) and of its
    update elements (u unknowns): the matrix blocks whose earlier element
    is its own, plus the updates of its children.  Its
    fully summed p x p block F11 is LU-factored by LAPACK with partial
    pivoting inside it and inverted; the node keeps F11^-1 and the panel
    V = F11^-1 F12, and hands F22 - F21 V to its parent.  So the factor
    is L D L^T with L unit lower triangular, its blocks V^T, and D block
    diagonal.  A node stores p^2 + p u entries, which with the face
    blocks make `nnz`, a count fixed by the mesh and the degree.

    A singular front raises `numpy.linalg.LinAlgError`; blocks that do
    not partition the unknowns, or face blocks coupled to each other,
    raise ValueError.
    """

    def __init__(self, matrix: csc_matrix, blocks: DofBlocks):
        elements, bounds, faces = blocks
        self.perm = elements.ravel()
        nb = elements.shape[1]
        self._factor(np.asarray(bounds, dtype=np.int64), nb,
                     self._element_system(matrix, faces, nb))
        # L holds the panels, and the pivot blocks split at the diagonal
        pivots = sum(block.shape[0] ** 2 for block, _ in self.fronts)
        panels = sum(block.size for block, _ in self.fronts) - pivots
        if faces is not None:
            pivots += faces.size * faces.shape[1]
        below = (pivots - matrix.shape[0]) // 2
        self.L = _Count(below + panels)
        self.U = _Count(pivots - below)
        self.nnz = self.L.nnz + self.U.nnz

    def _element_system(self, matrix: csc_matrix, faces,
                        nb: int) -> bsr_matrix:
        """The system left after the face blocks, in elimination order and
        in blocks of one element."""
        n, nw = matrix.shape[0], self.perm.size
        order = (self.perm if faces is None
                 else np.concatenate([self.perm, faces.ravel()]))
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError("the blocks do not partition the unknowns")
        system = _permuted(matrix, order)
        self.faces = None
        if faces is not None:
            nf, m = faces.shape
            gram = system[nw:, nw:].tobsr(blocksize=(m, m))
            if not (np.array_equal(gram.indptr, np.arange(nf + 1))
                    and np.array_equal(gram.indices, np.arange(nf))):
                raise ValueError("face blocks are coupled to each other")
            inverse = bsr_matrix((np.linalg.inv(gram.data), gram.indices,
                                  gram.indptr), shape=gram.shape).tocsr()
            transfer = system[nw:, :nw].tocsr()
            system = system[:nw, :nw] - transfer.T @ (inverse @ transfer)
            self.faces = (faces.ravel(), inverse, transfer)
        # one copy at a time: the permuted matrix, its CSR form, the blocks
        system = system.tocsr()
        return system.tobsr(blocksize=(nb, nb))

    def _factor(self, bounds: np.ndarray, nb: int, system: bsr_matrix):
        nodes = len(bounds) - 1
        own = np.diff(bounds)
        run = np.repeat(np.arange(nodes), own)
        # the matrix blocks, each to the front of its earlier element
        brow = np.repeat(np.arange(system.shape[0] // nb),
                         np.diff(system.indptr))
        node = run[np.minimum(brow, system.indices)]
        by_node = np.argsort(node, kind="stable")
        cut = np.searchsorted(node[by_node], np.arange(nodes + 1))
        node = node[by_node]
        brow, bcol = brow[by_node], system.indices[by_node]
        # symbolic elimination: a node's update elements are the later
        # elements its blocks join plus those of its children that it does
        # not eliminate itself; its parent eliminates the first of them
        joined = np.maximum(brow, bcol)
        parent = np.full(nodes, -1, dtype=np.int64)
        inherited = [[] for _ in range(nodes)]
        update = []
        for j in range(nodes):
            rows = np.unique(np.concatenate([joined[cut[j]:cut[j + 1]],
                                             *inherited[j]]))
            rows = rows[rows >= bounds[j + 1]]
            update.append(rows)
            if rows.size:
                parent[j] = run[rows[0]]
                inherited[parent[j]].append(rows)
        sizes = np.array([u.size for u in update], dtype=np.int64)
        later = np.concatenate(update)
        owner = np.repeat(np.arange(nodes), sizes)
        first = np.cumsum(sizes) - sizes
        # node * span + position of each update element of each node,
        # ascending; and its block slot in the front
        span = len(run)
        keys = owner * span + later
        slots = own[owner] + np.arange(later.size) - first[owner]

        def slot(node, pos):
            """Block slot of each position in the front of each node."""
            out = pos - bounds[node]
            outside = run[pos] != node
            out[outside] = slots[np.searchsorted(
                keys, node[outside] * span + pos[outside])]
            return out

        blk_row = slot(node, brow)
        blk_col = slot(node, bcol)
        # each node's update rows in its parent's front, as runs of
        # consecutive blocks: (start in the update, start in the front,
        # length), in unknowns
        dest = slot(parent[owner], later)
        head = np.ones(later.size, dtype=bool)
        head[1:] = (owner[1:] != owner[:-1]) | (dest[1:] != dest[:-1] + 1)
        head = np.flatnonzero(head)
        runs = nb * np.stack([head - first[owner[head]], dest[head],
                              np.diff(np.append(head, later.size))], axis=1)
        runs = np.split(runs, np.searchsorted(owner[head], np.arange(1, nodes)))
        rows = np.split((later[:, None] * nb + np.arange(nb)).ravel(),
                        nb * np.cumsum(sizes)[:-1])

        # per node [F11^-1, -V] and the positions of its own and update
        # unknowns
        piv, upd = own * nb, sizes * nb
        pending = [[] for _ in range(nodes)]
        self.offsets = bounds * nb
        self.fronts = []
        for j in range(nodes):
            k, p, u = own[j] + sizes[j], piv[j], upd[j]
            front = np.zeros((p + u, p + u))
            sl = slice(cut[j], cut[j + 1])
            front.reshape(k, nb, k, nb)[blk_row[sl], :, blk_col[sl], :] = (
                system.data[by_node[sl]])
            for segments, schur in pending[j]:
                for a, b, r in segments:
                    for c, d, s in segments:
                        front[b:b + r, d:d + s] += schur[a:a + r, c:c + s]
            pending[j] = None
            lu, ipiv, info = dgetrf(front[:p, :p])
            if info == 0:
                inverse, info = dgetri(lu, ipiv)
            if info:
                raise np.linalg.LinAlgError(f"front {j} is singular")
            block = np.empty((p, p + u))
            block[:, :p] = inverse
            if u:
                panel = inverse @ front[:p, p:]
                np.negative(panel, out=block[:, p:])
                schur = front[p:, p:]
                schur -= front[p:, :p] @ panel
                pending[parent[j]].append((runs[j].tolist(), schur))
            self.fronts.append((block, np.concatenate(
                [np.arange(self.offsets[j], self.offsets[j + 1]), rows[j]])))

    def _tree_solve(self, w: np.ndarray) -> None:
        """Solve in place with the element-block factor, in tree order:
        L^-1 in postorder, as F21 F11^-1 = V^T for a symmetric front, then
        D^-1 and L^-T from the root down, one product per node."""
        offsets, fronts = self.offsets, self.fronts
        for j, (block, at) in enumerate(fronts):
            p = block.shape[0]
            w[at[p:]] += block[:, p:].T @ w[offsets[j]:offsets[j + 1]]
        for j in range(len(fronts) - 1, -1, -1):
            block, at = fronts[j]
            w[offsets[j]:offsets[j + 1]] = block @ w[at]

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve with the matrix, or its transpose, which is the same."""
        rhs = np.asarray(rhs, dtype=float)
        out = np.empty_like(rhs)
        w = rhs[self.perm]
        if self.faces is None:
            self._tree_solve(w)
        else:
            dofs, inverse, transfer = self.faces
            r = rhs[dofs]
            w -= transfer.T @ (inverse @ r)
            self._tree_solve(w)
            out[dofs] = inverse @ (r - transfer @ w)
        out[self.perm] = w
        return out


def refined_solve(matrix, lu, rhs: np.ndarray) -> np.ndarray:
    """Solve with the factor plus one step of iterative refinement."""
    x = lu.solve(rhs)
    x += lu.solve(rhs - matrix @ x)
    return x


def backward_error(matrix, norm: float, x: np.ndarray, rhs: np.ndarray) -> float:
    """Normwise backward error of x as a solution of matrix x = rhs in the
    1-norm (Rigal and Gaches, J. ACM 1967), given the matrix's 1-norm."""
    gap = np.abs(rhs - matrix @ x).sum()
    scale = norm * np.abs(x).sum() + np.abs(rhs).sum()
    return float(gap / scale) if scale > 0 else float(gap)


def _stable(matrix, norm: float, lu) -> bool:
    """Whether a refined solve of a fixed probe has a backward error
    within tolerance."""
    probe = np.random.default_rng(0).standard_normal(matrix.shape[0])
    return backward_error(matrix, norm, refined_solve(matrix, lu, probe),
                          probe) <= BACKWARD_TOL


def factorize(matrix, blocks: DofBlocks):
    """LU of a symmetric system in the element blocks of its unknowns,
    with the fallback to partial pivoting and the condition check.
    Returns the factor (a `MultifrontalLU`, or SuperLU's after the
    fallback), which solves in the numbering of the matrix, and its
    `Factor` record."""
    matrix = matrix.tocsc()
    norm = float(abs(matrix).sum(axis=0).max())
    pivoting, ordering = "symmetric", "nested_dissection"
    try:
        lu = MultifrontalLU(matrix, blocks)
    except np.linalg.LinAlgError:
        lu = None
    if lu is None or not _stable(matrix, norm, lu):
        pivoting, ordering = "partial", "colamd"
        try:
            lu = splu(matrix)
        except RuntimeError as err:
            raise ResonanceError(
                f"saddle point factorization failed: {err}") from err
    # t=1 starts from the constant vector and draws no random columns
    inverse = LinearOperator(matrix.shape, matvec=lu.solve,
                             rmatvec=lambda y: lu.solve(y, trans="T"),
                             dtype=float)
    cond = float(onenormest(inverse, t=1)) * norm
    if not cond <= COND_MAX:
        raise ResonanceError(
            "saddle point matrix is numerically singular "
            f"(condition estimate {cond:.2e})")
    return lu, Factor(pivoting, ordering, int(lu.nnz), cond, norm)


def _residual(matrix, x, rhs) -> float:
    scale = np.linalg.norm(rhs)
    return float(np.linalg.norm(matrix @ x - rhs) / (scale if scale > 0 else 1.0))


def _constraint_gap(disc: Discretization, u: np.ndarray, p: np.ndarray) -> float:
    gap = np.linalg.norm(disc.b_matrix @ u - disc.c_matrix @ p)
    bscale = np.sqrt((disc.b_matrix.power(2)).sum())
    cscale = np.sqrt((disc.c_matrix.power(2)).sum())
    denom = bscale * np.linalg.norm(u) + cscale * np.linalg.norm(p)
    return float(gap / (denom if denom > 0 else 1.0))


def _solve(disc: Discretization, system, lu, factor: Factor,
           rhs: np.ndarray, multiplier: bool = False) -> Solution:
    """Refined solve, split into fields in (V, [M,] Q) layout."""
    sol = refined_solve(system, lu, rhs)
    nv = disc.spaces.dim_V
    nm = disc.spaces.dim_M if multiplier else 0
    u, lam, p = sol[:nv], sol[nv:nv + nm], sol[nv + nm:]
    return Solution(u, p, lam if multiplier else None,
                    _residual(system, sol, rhs),
                    backward_error(system, factor.norm, sol, rhs), factor,
                    _constraint_gap(disc, u, p))


def solve_mixed(disc: Discretization, ksq: float, load: np.ndarray) -> Solution:
    """Solve the two-field system for (u, p)."""
    system = disc.primal_system(ksq)
    return _solve(disc, system, *factorize(system, disc.dof_blocks()), load)


def solve_auxiliary(disc: Discretization, ksq: float, load: np.ndarray) -> Solution:
    """Solve the three-field system with the explicit face multiplier.

    The load is given in (V, Q) layout; the multiplier row carries no
    data.  The returned (u, p) match the two-field solve and the
    multiplier carries the normal jump of p.
    """
    sp = disc.spaces
    nv, nm = sp.dim_V, sp.dim_M
    full = np.zeros(nv + nm + sp.dim_Q)
    full[:nv] = load[:nv]
    full[nv + nm:] = load[nv:]
    system = disc.auxiliary_system(ksq)
    lu, factor = factorize(system, disc.dof_blocks(multiplier=True))
    return _solve(disc, system, lu, factor, full, multiplier=True)

