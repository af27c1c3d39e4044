"""Direct solution of the assembled saddle point systems.

The systems are symmetric indefinite, and their graph is the element
dual graph with dense element blocks.  They are assembled in those
blocks, the elements in the mesh's nested-dissection order, and factored
as they are by a multifrontal LU (Duff and Reid, ACM Trans. Math. Softw.
1983; Liu, SIAM Rev. 1992) on the elimination tree read from the
matrix: each tree node eliminates a run of elements in one dense front,
with partial pivoting inside the front's fully summed block only, and
passes its Schur complement to its parent, so nearly all the work is
dense BLAS-3.  The matrix is symmetric, so a front keeps its own columns
and its update block apart and never forms the block above its pivot
block: the factor reads only the diagonal blocks and those below them,
and LAPACK and BLAS work in place on the fronts.

Pivoting restricted to the fronts may grow the factor's error, so every
solve takes one step of iterative refinement in working precision, which
restores a small backward error when the factor is not too unstable
(Skeel, Math. Comp. 1980).  A factor is judged on the refined solves of
a fixed random probe and of the load; if either backward error is too
large, or a front is singular, the primal system is refactored by SuperLU
with partial pivoting and a COLAMD column order; only then is SuperLU's
module imported.  The load alone does not suffice: a smooth load can miss
the growth of a factor that the probe sees.

A wavenumber at a discrete resonance makes the matrix singular.  That is
judged by a 1-norm condition estimate (Hager, SIAM J. Sci. Stat. Comput.
1984; Higham, ACM Trans. Math. Softw. 1988, as LAPACK's dlacn2), which,
unlike the pivots of the factor, depends on neither the scale of the
system nor the fill-reducing ordering.  Its first two solves ride along
with the refined ones: one multi-column tree solve takes the probe, the
load and the estimator's two start vectors, the next the two residual
corrections and the estimator's sign vector, so a solve usually makes
four passes over the factor, the last two of one column each.  Every
pass, a unit vector's too, runs the same sweeps over the whole tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dgetrf, dgetri
from scipy.sparse import bsr_array

from .assembly import Discretization

__all__ = ["ResonanceError", "Factor", "MultifrontalLU", "Solution",
           "backward_error", "factorize", "refined_solve", "solve_mixed"]

# Normwise backward error of the refined probe or load solve above which
# the multifrontal factor is refused.  A stable factor stays near eps.
BACKWARD_TOL = 10.0 * np.finfo(float).eps
# Most unit vectors e_j whose solves the condition estimator tries
# (dlacn2's ITMAX - 1).
ESTIMATE_STEPS = 4
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
    lu_nnz: int            # entries of L and U
    stored_nnz: int        # entries the factor keeps (lu_nnz after fallback)
    cond_estimate: float   # estimate of the 1-norm condition number
    norm: float            # 1-norm of the factored matrix


@dataclass
class Solution:
    """Coefficient vectors of the discrete fields (u in V, p in Q) plus
    solver diagnostics."""

    u: np.ndarray
    p: np.ndarray
    residual: float        # algebraic residual, relative to the load
    backward_error: float  # normwise 1-norm backward error of the solve
    factor: Factor         # how the system was factored
    constraint_gap: float  # ||B u - C p|| relative to operator/field scales


class MultifrontalLU:
    """Multifrontal factor of a symmetric matrix in blocks of one element,
    the elements in elimination order, eliminated in the runs bounds[j]
    to bounds[j + 1] - 1; solves in the numbering of the matrix.

    Each run of elements is one node of the elimination tree, which is
    read from the block pattern of the matrix (Liu, SIAM J. Matrix Anal.
    Appl. 1990).  The front of a tree node holds the blocks of its own
    elements (p unknowns) and of its update elements (u unknowns): the
    matrix blocks whose earlier element is its own, plus the updates of
    its children, added in by runs of element blocks.  The matrix is
    symmetric, so a front is two arrays, its own columns [F11; F21],
    (p + u) x p, and its update block F22, u x u; F12 = F21^T is never
    formed.  A matrix block never lands in F22, and a block of F11 above
    its diagonal is taken as the transpose of the one below, so the
    factor reads only the diagonal blocks and those below them.  F11 is
    LU-factored by LAPACK with partial pivoting inside it and inverted in
    place; the node hands F22 - F21 V to its parent, X = F11^-1 and
    V = X F21^T, both products GEMMs that write in place into the arrays
    they are handed.  So the factor is L D L^T with L unit lower
    triangular, its blocks V^T, and D block diagonal.

    An inner node keeps X and -V in one block.  A leaf of the tree has no
    children, so its F21 is nothing but blocks of the matrix, and its
    panel would repeat them: a leaf writes -V into a temporary for its
    update and keeps X alone.  The solve applies all leaves at once, from
    their X, stacked by size, and the matrix's blocks below the leaves'
    own ones, read through a reference to the matrix's block array: the
    matrix must not change while the factor is used.  `nnz` counts the
    entries of L and U, p^2 + p u per node, a count fixed by the mesh and
    the degree; `stored_nnz` those the factor keeps, p^2 at a leaf.

    A leaf's solve applies X to sums of products with the matrix blocks,
    and the condition of F11 (about 1e4 on these saddle point fronts)
    magnifies their rounding; a stored panel froze that rounding into
    the factor.  So every product of the solve takes one right-hand side
    at a time, matrix-vector products batched over the columns, and a
    column gives the same bits alone or in a block.

    A singular front raises `numpy.linalg.LinAlgError`; runs that do not
    partition the elements raise ValueError.
    """

    def __init__(self, matrix: bsr_array, bounds):
        nb = matrix.blocksize[0]
        bounds = np.asarray(bounds, dtype=np.int64)
        if (bounds[0] != 0 or bounds[-1] != matrix.shape[0] // nb
                or np.any(np.diff(bounds) <= 0)):
            raise ValueError("the runs do not partition the elements")
        self._factor(bounds, nb, matrix)
        # entries of L and U, as SuperLU reports them: L holds the panels,
        # and the pivot blocks split at the diagonal
        pivots = sum(block.shape[0] ** 2 for block, _ in self.fronts)
        panels = sum(block.shape[0] * at.size
                     for block, at in self.fronts) - pivots
        below = (pivots - matrix.shape[0]) // 2
        self.L = SimpleNamespace(nnz=below + panels)
        self.U = SimpleNamespace(nnz=pivots - below)
        self.nnz = self.L.nnz + self.U.nnz
        self.stored_nnz = sum(block.size for block, _ in self.fronts)

    def _factor(self, bounds: np.ndarray, nb: int, system: bsr_array):
        nodes = len(bounds) - 1
        own = np.diff(bounds)
        run = np.repeat(np.arange(nodes), own)
        # the diagonal blocks and those below them, each to the front of
        # its column element, the earlier one; the blocks above are their
        # transposes, so the factor never reads them
        brow = np.repeat(np.arange(system.shape[0] // nb),
                         np.diff(system.indptr))
        lower = np.flatnonzero(brow >= system.indices)
        by_node = lower[np.argsort(run[system.indices[lower]], kind="stable")]
        brow, bcol = brow[by_node], system.indices[by_node]
        node = run[bcol]
        cut = np.searchsorted(node, np.arange(nodes + 1))
        # symbolic elimination: a node's update elements are the later
        # elements its blocks join plus those of its children that it does
        # not eliminate itself; its parent eliminates the first of them
        parent = np.full(nodes, -1, dtype=np.int64)
        inherited = [[] for _ in range(nodes)]
        update = []
        for j in range(nodes):
            rows = np.unique(np.concatenate([brow[cut[j]:cut[j + 1]],
                                             *inherited[j]]))
            rows = rows[rows >= bounds[j + 1]]
            update.append(rows)
            if rows.size:
                parent[j] = run[rows[0]]
                inherited[parent[j]].append(rows)
        self.parent = parent
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

        # a block goes to the own columns [F11; F21] of its front, and
        # one inside F11 also to its transpose's place above the diagonal
        blk_row, blk_col = slot(node, brow), bcol - bounds[node]
        mirror = np.flatnonzero((brow > bcol) & (run[brow] == node))
        mcut = np.searchsorted(node[mirror], np.arange(nodes + 1))
        # each node's update rows in its parent's front, as runs of
        # consecutive blocks, split where the parent's own blocks end:
        # (start in the update, start in the front, length), in unknowns
        dest = slot(parent[owner], later)
        edge = own[parent[owner]]
        head = np.ones(later.size, dtype=bool)
        head[1:] = ((owner[1:] != owner[:-1]) | (dest[1:] != dest[:-1] + 1)
                    | (dest[1:] == edge[1:]))
        head = np.flatnonzero(head)
        runs = nb * np.stack([head - first[owner[head]], dest[head],
                              np.diff(np.append(head, later.size))], axis=1)
        # per node: its runs, those into the parent's own columns, and
        # those into the parent's update block, counted from its start
        inside = dest[head] < edge[head]
        below = runs - nb * np.outer(edge[head], [0, 1, 0])
        split = np.searchsorted(owner[head], np.arange(1, nodes))
        moves = [(r.tolist(), r[i].tolist(), b[~i].tolist()) for r, i, b in
                 zip(*(np.split(a, split) for a in (runs, inside, below)))]
        rows = np.split((later[:, None] * nb + np.arange(nb)).ravel(),
                        nb * np.cumsum(sizes)[:-1])

        # the leaves' X, stacked by size, and the matrix blocks below their
        # own ones, which stand in for the leaves' panels: block-row ordered
        # for L^-1, block-column ordered for L^-T
        piv, upd = own * nb, sizes * nb
        self.offsets = bounds * nb
        leaf = np.ones(nodes, dtype=bool)
        leaf[parent[parent >= 0]] = False
        self._inner = np.flatnonzero(~leaf)
        self._leaves, stacked = [], {}
        for p in np.unique(piv[leaf]):
            group = np.flatnonzero(leaf & (piv == p))
            stack = np.empty((group.size, p, p))
            stacked.update(zip(group.tolist(), stack))
            self._leaves.append((stack, self.offsets[group, None] + np.arange(p)))
        beyond = leaf[node] & (run[brow] != node)
        pos, erow, ecol = by_node[beyond], brow[beyond], bcol[beyond]

        def sweep(order, source, target):
            """The panel blocks in that order, the element each multiplies,
            and the runs of blocks that add into one element."""
            target = target[order]
            starts = np.flatnonzero(np.diff(target, prepend=-1))
            return pos[order], source[order], starts, target[starts]
        self._data = system.data
        self._below = sweep(np.argsort(pos), ecol, erow)
        self._beside = sweep(np.lexsort((erow, ecol)), erow, ecol)

        # per node X = F11^-1, or [X, -V] with V = X F21^T for an inner
        # node, and the positions of its own and update unknowns
        pending = [[] for _ in range(nodes)]
        self.fronts = []
        for j in range(nodes):
            k, p, u = own[j] + sizes[j], piv[j], upd[j]
            left, schur = np.zeros((p + u, p)), np.zeros((u, u))
            view = left.reshape(k, nb, own[j], nb)
            sl, ml = slice(cut[j], cut[j + 1]), mirror[mcut[j]:mcut[j + 1]]
            view[blk_row[sl], :, blk_col[sl], :] = system.data[by_node[sl]]
            view[blk_col[ml], :, blk_row[ml], :] = np.swapaxes(
                system.data[by_node[ml]], 1, 2)
            for segments, columns, inner, child in pending[j]:
                for c, d, s in columns:
                    for a, b, r in segments:
                        left[b:b + r, d:d + s] += child[a:a + r, c:c + s]
                for c, d, s in inner:
                    for a, b, r in inner:
                        schur[b:b + r, d:d + s] += child[a:a + r, c:c + s]
            # the last child's update goes too, before the dense calls
            pending[j] = child = None
            # left[:p].T is F11^T in Fortran order: LAPACK factors and
            # inverts it in place, leaving X^T
            lu, ipiv, info = dgetrf(left[:p].T, overwrite_a=1)
            if info == 0:
                inverse, info = dgetri(lu, ipiv, overwrite_lu=1)
            if info:
                raise np.linalg.LinAlgError(f"front {j} is singular")
            if leaf[j]:
                block, panel = stacked.pop(j), np.empty((p, u), order="F")
                block[:] = inverse.T
            else:
                block = np.empty((p, p + u), order="F")
                block[:, :p] = inverse.T
                panel = block[:, p:]
            if u:
                # -V into the panel (the assignment copies only if the
                # wrapper did not write in place), then F22 - F21 V into
                # the update block through its Fortran-ordered transpose
                f21t = left[p:].T
                panel[:] = dgemm(-1.0, inverse, f21t, c=panel, trans_a=1,
                                 overwrite_c=1)
                schur = dgemm(1.0, panel, f21t, beta=1.0, c=schur.T,
                              trans_a=1, overwrite_c=1).T
                pending[parent[j]].append((*moves[j], schur))
            self.fronts.append((block, np.concatenate(
                [np.arange(self.offsets[j], self.offsets[j + 1]), rows[j]])))
            # the working front goes before the next node allocates its own
            left = view = lu = inverse = f21t = panel = None

    def _tree_solve(self, w: np.ndarray) -> None:
        """Solve in place with the element-block factor, in tree order, on
        the right-hand sides held as the rows of w: L^-1 in postorder, as
        F21 F11^-1 = V^T for a symmetric front, then D^-1 and L^-T from the
        root down, one product per inner node.  The leaves come first in
        L^-1 and last in L^-T, all in one step."""
        offsets, fronts = self.offsets, self.fronts
        self._leaves_lower(w)
        # gathers by take, not fancy indexing: faster, and each row comes
        # out contiguous, so its products take the same path in any block
        for j in self._inner:
            block, at = fronts[j]
            p = block.shape[0]
            w[:, at[p:]] = (w.take(at[p:], axis=1) + _row_products(
                w[:, offsets[j]:offsets[j + 1]], block[:, p:]))
        for j in self._inner[::-1]:
            block, at = fronts[j]
            w[:, offsets[j]:offsets[j + 1]] = _row_products(
                w.take(at, axis=1), block.T)
        self._leaves_upper(w)

    def _leaves_lower(self, w: np.ndarray) -> None:
        """L^-1 at every leaf: w_e -= A(e, o) (X w_own)_o over the matrix
        blocks below the leaves' own ones."""
        t = np.empty_like(w)
        for x, own in self._leaves:
            t[:, own] = _row_products(w.take(own, axis=1), np.swapaxes(x, 1, 2))
        self._panel_update(w, t, self._below, transpose=False)

    def _leaves_upper(self, w: np.ndarray) -> None:
        """D^-1 and L^-T at every leaf: w_own = X (w_own - A(e, o)^T w_e)
        over the same blocks."""
        self._panel_update(w, w, self._beside, transpose=True)
        for x, own in self._leaves:
            w[:, own] = _row_products(w.take(own, axis=1), np.swapaxes(x, 1, 2))

    def _panel_update(self, w: np.ndarray, source: np.ndarray, panel,
                      transpose: bool) -> None:
        """w_e -= A(e, o) source_o over the panel blocks A(e, o), or
        w_o -= A(e, o)^T source_e when transpose, summed block by block in
        the panel's order; w and source hold one right-hand side a row."""
        at, take, starts, into = panel
        blocks = self._data[at]
        if not transpose:
            blocks = np.swapaxes(blocks, 1, 2)
        cells = w.reshape(len(w), -1, self._data.shape[1])
        products = _row_products(source.reshape(cells.shape).take(take, axis=1),
                                 blocks)
        cells[:, into] -= np.add.reduceat(products, starts, axis=1)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve with the matrix for a vector or a block of columns.  Each
        column is solved by matrix-vector products, so it takes the same
        arithmetic, and gives the same bits, alone or in a block."""
        rhs = np.asarray(rhs, dtype=float)
        w = np.array(rhs.reshape(len(rhs), -1).T, order="C")
        self._tree_solve(w)
        return np.ascontiguousarray(w.T).reshape(rhs.shape)


def _row_products(rows: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """rows[..., i, :] @ matrices[i] for every row: one matrix-vector
    product per right-hand side, however many are solved together."""
    return (rows[..., None, :] @ matrices)[..., 0, :]


def refined_solve(matrix, lu, rhs: np.ndarray) -> np.ndarray:
    """Solve with the factor plus one step of iterative refinement."""
    x = lu.solve(rhs)
    x += lu.solve(rhs - matrix @ x)
    return x


def backward_error(matrix, norm: float, x: np.ndarray, rhs: np.ndarray,
                   product: np.ndarray | None = None) -> float:
    """Normwise backward error of x as a solution of matrix x = rhs in the
    1-norm (Rigal and Gaches, J. ACM 1967), given the matrix's 1-norm and,
    when the caller has it, the product matrix @ x."""
    if product is None:
        product = matrix @ x
    gap = np.abs(rhs - product).sum()
    scale = norm * np.abs(x).sum() + np.abs(rhs).sum()
    return float(gap / scale) if scale > 0 else float(gap)


def _one_norm(matrix: bsr_array) -> float:
    """Largest absolute column sum of a matrix in blocks.  Each column is
    summed block by block in block-row order and row by row inside a
    block, the order of scipy's `abs(matrix).sum(axis=0)`, so the sums are
    bitwise the same; gathering the blocks a few at a time keeps the
    peak memory below that of scipy's absolute copy and transpose.  Those
    copies are 26 MB of temporaries on the degree-2 square:32 system,
    freed below the factor's 50 MB traced peak, yet scipy's expression
    raised that solve's peak RSS by 10% (144-146 to 159-160 MB): the
    allocator keeps what they freed."""
    nb = matrix.blocksize[1]
    order = np.argsort(matrix.indices, kind="stable")
    count = np.bincount(matrix.indices, minlength=matrix.shape[1] // nb)
    first = np.cumsum(count) - count
    sums = np.zeros((count.size, nb))
    for k in range(count.max()):
        cols = np.flatnonzero(count > k)
        part = sums[cols]
        for row in np.swapaxes(np.abs(matrix.data[order[first[cols] + k]]), 0, 1):
            part += row
        sums[cols] = part
    return float(sums.max())


def _sign(y: np.ndarray) -> np.ndarray:
    return np.where(y >= 0.0, 1.0, -1.0)


def _two_passes(system, lu, loads: np.ndarray):
    """The refined solves of the columns of loads, and the start of the
    condition estimator, in two multi-column solves: the first with the
    loads, e/n and the alternating vector (-1)^i (1 + i/(n-1)), the second
    with the loads' residuals and the sign vector of the solve with e/n.
    Returns the refined solutions, the solve with e/n, the solve with its
    sign vector and that with the alternating vector."""
    n, k = loads.shape
    alternating = np.linspace(1.0, 2.0, n)
    alternating[1::2] *= -1.0
    first = lu.solve(np.column_stack([loads, np.full(n, 1.0 / n), alternating]))
    x = first[:, :k]
    second = lu.solve(np.column_stack([loads - system @ x, _sign(first[:, k])]))
    x += second[:, :k]
    return x, first[:, k], second[:, k], first[:, k + 1]


def _inverse_norm(lu, y: np.ndarray, z: np.ndarray,
                  alternating: np.ndarray) -> float:
    """Lower bound of ||A^-1||_1 by Hager and Higham's estimator, with
    dlacn2's stopping rules, from y = A^-1 e/n, z = A^-1 sign(y) and the
    solve with the alternating vector; A is symmetric.  Each further step
    solves with the unit vector e_j at the largest entry of z, and with
    the sign vector of that solve; the largest norm seen is kept."""
    n = y.size
    est, sign = float(np.abs(y).sum()), _sign(y)
    j = int(np.argmax(np.abs(z)))
    for step in range(ESTIMATE_STEPS):
        unit = np.zeros(n)
        unit[j] = 1.0
        y = lu.solve(unit)
        value = float(np.abs(y).sum())
        if not value > est:
            break
        est, last = value, sign
        sign = _sign(y)
        if np.array_equal(sign, last) or step == ESTIMATE_STEPS - 1:
            break
        z = lu.solve(sign)
        previous, j = j, int(np.argmax(np.abs(z)))
        if z[previous] == abs(z[j]):
            break
    return max(est, 2.0 * float(np.abs(alternating).sum()) / (3.0 * n))


def factorize(system: bsr_array, bounds, rhs: np.ndarray | None = None):
    """LU of a system in element blocks, the elements in elimination order
    and eliminated in the runs of bounds, with the fallback to partial
    pivoting and the condition check.  Returns the factor (a
    `MultifrontalLU`, or SuperLU's after the fallback), which solves in
    the numbering of the system, and its `Factor` record; given a load
    rhs, also the refined solution of system x = rhs."""
    norm = _one_norm(system)
    probe = np.random.default_rng(0).standard_normal(system.shape[0])
    loads = probe[:, None] if rhs is None else np.column_stack([probe, rhs])
    pivoting, ordering, stable = "symmetric", "nested_dissection", False
    try:
        lu = MultifrontalLU(system, bounds)
    except np.linalg.LinAlgError:
        pass
    else:
        passes = _two_passes(system, lu, loads)
        stable = all(backward_error(system, norm, x, b) <= BACKWARD_TOL
                     for x, b in zip(passes[0].T, loads.T))
    if not stable:
        from scipy.sparse.linalg import splu
        pivoting, ordering = "partial", "colamd"
        try:
            lu = splu(system.tocsc())
        except RuntimeError as err:
            raise ResonanceError(
                f"saddle point factorization failed: {err}") from err
        passes = _two_passes(system, lu, loads)
    cond = _inverse_norm(lu, *passes[1:]) * norm
    if not cond <= COND_MAX:
        raise ResonanceError(
            "saddle point matrix is numerically singular "
            f"(condition estimate {cond:.2e})")
    stored = lu.nnz if pivoting == "partial" else lu.stored_nnz
    factor = Factor(pivoting, ordering, int(lu.nnz), int(stored), cond, norm)
    if rhs is None:
        return lu, factor
    return lu, factor, np.ascontiguousarray(passes[0][:, 1])


def _constraint_gap(primal: bsr_array, nv: int, w: np.ndarray,
                    product: np.ndarray) -> float:
    """||B u - C p|| relative to ||B||_F ||u|| + ||C||_F ||p||, read from
    the Q rows of the primal system's blocks, [B -C], and of its product
    with w = (u, p)."""
    nb = primal.blocksize[0]
    rows = primal.data[:, nv:]
    w = w.reshape(-1, nb)
    gap = np.linalg.norm(product.reshape(-1, nb)[:, nv:])
    denom = (np.linalg.norm(rows[:, :, :nv]) * np.linalg.norm(w[:, :nv])
             + np.linalg.norm(rows[:, :, nv:]) * np.linalg.norm(w[:, nv:]))
    return float(gap / (denom if denom > 0 else 1.0))


def _check_inputs(ksq: float, load: np.ndarray, dim_v: int):
    """A non-finite input or a load that is not a V vector is an input
    error, caught before any assembly, not a discrete resonance."""
    if not np.isfinite(ksq):
        raise ValueError(f"ksq must be finite, got {ksq}")
    if np.shape(load) != (dim_v,) or not np.all(np.isfinite(load)):
        raise ValueError("the load must be finite and a V vector of shape "
                         f"({dim_v},), got shape {np.shape(load)}")


def solve_mixed(disc: Discretization, ksq: float, load: np.ndarray) -> Solution:
    """Solve the two-field system for (u, p): factor and refined solve in
    the numbering of the system.  The load is a V vector; it goes into
    the V rows of each element block, the elements in `disc.dissection[0]`
    order, and u and p are read back out of the same blocks."""
    _check_inputs(ksq, load, disc.spaces.dim_V)
    system = disc.primal_system(ksq)
    order, bounds = disc.dissection
    nv = disc.spaces.ndof_v
    blocks = np.zeros((len(order), system.blocksize[0]))
    blocks[:, :nv] = np.reshape(load, (-1, nv))[order]
    rhs = blocks.ravel()
    _, factor, x = factorize(system, bounds, rhs)
    # the one product with the system: residual, backward error and the
    # constraint gap
    product = system @ x
    scale = np.linalg.norm(rhs)
    residual = float(np.linalg.norm(product - rhs) / (scale if scale > 0 else 1.0))
    gap = _constraint_gap(system, nv, x, product)
    fields = np.empty_like(blocks)
    fields[order] = x.reshape(blocks.shape)
    return Solution(fields[:, :nv].ravel(), fields[:, nv:].ravel(), residual,
                    backward_error(system, factor.norm, x, rhs, product),
                    factor, gap)
