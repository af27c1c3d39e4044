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
and LAPACK and BLAS work in place on the fronts.  Eliminating the
auxiliary system's face multipliers leaves the primal system, so it is
factored the same way and the multipliers are recovered face by face.

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
four passes over the factor, the last two of one column each.  The
first of those two is a unit vector e_j, whose L^-1 sweep runs only along
the path from the tree node of j to the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dgetrf, dgetri
from scipy.sparse import bsr_matrix

from .assembly import AuxiliarySystem, Discretization

__all__ = ["ResonanceError", "Factor", "MultifrontalLU", "FaceElimination",
           "Solution", "backward_error", "factorize", "refined_solve",
           "solve_mixed", "solve_auxiliary"]

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
    place; the node keeps X = F11^-1 and the panel V = X F21^T, and hands
    F22 - F21 V to its parent, both products GEMMs that write into the
    node's stored block and its update block.  So the factor is L D L^T
    with L unit lower triangular, its blocks V^T, and D block diagonal.
    A node stores p^2 + p u entries, which make `nnz`, a count fixed by
    the mesh and the degree.

    A singular front raises `numpy.linalg.LinAlgError`; runs that do not
    partition the elements raise ValueError.
    """

    def __init__(self, matrix: bsr_matrix, bounds):
        nb = matrix.blocksize[0]
        bounds = np.asarray(bounds, dtype=np.int64)
        if (bounds[0] != 0 or bounds[-1] != matrix.shape[0] // nb
                or np.any(np.diff(bounds) <= 0)):
            raise ValueError("the runs do not partition the elements")
        self._factor(bounds, nb, matrix)
        # stored entries of L and U, as SuperLU reports them: L holds the
        # panels, and the pivot blocks split at the diagonal
        pivots = sum(block.shape[0] ** 2 for block, _ in self.fronts)
        panels = sum(block.size for block, _ in self.fronts) - pivots
        below = (pivots - matrix.shape[0]) // 2
        self.L = SimpleNamespace(nnz=below + panels)
        self.U = SimpleNamespace(nnz=pivots - below)
        self.nnz = self.L.nnz + self.U.nnz

    def _factor(self, bounds: np.ndarray, nb: int, system: bsr_matrix):
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

        # per node [X, -V], X = F11^-1 and V = X F21^T, and the positions
        # of its own and update unknowns
        piv, upd = own * nb, sizes * nb
        pending = [[] for _ in range(nodes)]
        self.offsets = bounds * nb
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
            block = np.empty((p, p + u), order="F")
            block[:, :p] = inverse.T
            if u:
                # -V straight into the block (the assignment copies only if
                # the wrapper did not write in place), then F22 - F21 V into
                # the update block through its Fortran-ordered transpose
                f21t = left[p:].T
                block[:, p:] = panel = dgemm(-1.0, inverse, f21t,
                                             c=block[:, p:], trans_a=1,
                                             overwrite_c=1)
                schur = dgemm(1.0, panel, f21t, beta=1.0, c=schur.T,
                              trans_a=1, overwrite_c=1).T
                pending[parent[j]].append((*moves[j], schur))
            self.fronts.append((block, np.concatenate(
                [np.arange(self.offsets[j], self.offsets[j + 1]), rows[j]])))

    def _lower_nodes(self, w: np.ndarray):
        """The nodes the L^-1 sweep visits, in postorder: all of them, or,
        for one column whose nonzeros all lie in one node, that node's
        path to the root, since every other node would add exact zeros."""
        nz = np.flatnonzero(w) if w.ndim == 1 else []
        if len(nz):
            first, last = np.searchsorted(self.offsets, nz[[0, -1]],
                                          side="right") - 1
            if first == last:
                path = [int(first)]
                while self.parent[path[-1]] >= 0:
                    path.append(int(self.parent[path[-1]]))
                return path
        return range(len(self.fronts))

    def _tree_solve(self, w: np.ndarray) -> None:
        """Solve in place with the element-block factor, in tree order:
        L^-1 in postorder, as F21 F11^-1 = V^T for a symmetric front, then
        D^-1 and L^-T from the root down, one product per node."""
        offsets, fronts = self.offsets, self.fronts
        # gathers by take, not fancy indexing: faster on blocks of columns
        for j in self._lower_nodes(w):
            block, at = fronts[j]
            p = block.shape[0]
            w[at[p:]] = (w.take(at[p:], axis=0)
                         + block[:, p:].T @ w[offsets[j]:offsets[j + 1]])
        for j in range(len(fronts) - 1, -1, -1):
            block, at = fronts[j]
            w[offsets[j]:offsets[j + 1]] = block @ w.take(at, axis=0)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve with the matrix for a vector or a block of columns."""
        w = np.array(rhs, dtype=float)
        self._tree_solve(w)
        return w


class FaceElimination:
    """Solves an `AuxiliarySystem` with a factor of its primal system K,
    which eliminating the face multipliers leaves: the element unknowns
    w solve K w = f_w + J^T f_m, then the multipliers are
    G^-1 f_m + J w, face by face.  The factor stores the inverse face
    Grams besides that of K.  Solves take a vector or a block of
    columns."""

    def __init__(self, system: AuxiliarySystem, lu):
        self.lu, self.jump = lu, system.jump
        self.inverse = np.linalg.inv(system.gram)
        nf, m, _ = system.gram.shape
        below = nf * m * (m - 1) // 2
        self.L = SimpleNamespace(nnz=lu.L.nnz + below)
        self.U = SimpleNamespace(nnz=lu.U.nnz + self.inverse.size - below)
        self.nnz = self.L.nnz + self.U.nnz

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        nw = self.jump.shape[1]
        faces = rhs[nw:]
        w = self.lu.solve(rhs[:nw] + self.jump.T @ faces)
        return np.concatenate([w, (self.inverse @ faces.reshape(
            *self.inverse.shape[:2], -1)).reshape(faces.shape) + self.jump @ w])


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


def _one_norm(matrix: bsr_matrix) -> float:
    """Largest absolute column sum of a matrix in blocks.  Each column is
    summed block by block in block-row order and row by row inside a
    block, the order of scipy's `abs(matrix).sum(axis=0)`, so the sums are
    bitwise the same; gathering the blocks a few at a time keeps the
    peak memory below that of scipy's absolute copy and transpose."""
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


def factorize(system, bounds, rhs: np.ndarray | None = None):
    """LU of a primal system in element blocks, the elements in
    elimination order and eliminated in the runs of bounds, or of an
    `AuxiliarySystem` through its primal system, with the fallback to
    partial pivoting and the condition check.  Returns the factor (a
    `MultifrontalLU`, or SuperLU's after the fallback, wrapped in a
    `FaceElimination` for the auxiliary system), which solves in the
    numbering of the system, and its `Factor` record; given a load rhs,
    also the refined solution of system x = rhs."""
    faces = isinstance(system, AuxiliarySystem)
    primal = system.primal if faces else system
    norm = system.one_norm() if faces else _one_norm(system)
    probe = np.random.default_rng(0).standard_normal(system.shape[0])
    loads = probe[:, None] if rhs is None else np.column_stack([probe, rhs])

    def eliminate(lu):
        return FaceElimination(system, lu) if faces else lu
    pivoting, ordering, stable = "symmetric", "nested_dissection", False
    try:
        lu = eliminate(MultifrontalLU(primal, bounds))
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
            lu = eliminate(splu(primal.tocsc()))
        except RuntimeError as err:
            raise ResonanceError(
                f"saddle point factorization failed: {err}") from err
        passes = _two_passes(system, lu, loads)
    cond = _inverse_norm(lu, *passes[1:]) * norm
    if not cond <= COND_MAX:
        raise ResonanceError(
            "saddle point matrix is numerically singular "
            f"(condition estimate {cond:.2e})")
    factor = Factor(pivoting, ordering, int(lu.nnz), cond, norm)
    if rhs is None:
        return lu, factor
    return lu, factor, np.ascontiguousarray(passes[0][:, 1])


def _constraint_gap(primal: bsr_matrix, nv: int, w: np.ndarray,
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


def _solve(disc: Discretization, system, load: np.ndarray) -> Solution:
    """Factor and refined solve in the numbering of the system, element
    blocks then any face multipliers; the load is in the (V, Q) layout and
    carries no multiplier data."""
    order = disc.system_order
    nw = order.size
    rhs = np.zeros(system.shape[0])
    rhs[:nw] = load[order]
    _, factor, x = factorize(system, disc.dissection[1], rhs)
    # the one product with the system: residual, backward error and, for
    # the primal system, the constraint gap
    product = system @ x
    scale = np.linalg.norm(rhs)
    residual = float(np.linalg.norm(product - rhs) / (scale if scale > 0 else 1.0))
    primal = system if x.size == nw else system.primal
    gap = _constraint_gap(primal, disc.spaces.ndof_v, x[:nw],
                          product if primal is system else primal @ x[:nw])
    fields = np.empty(nw)
    fields[order] = x[:nw]
    nv = disc.spaces.dim_V
    return Solution(fields[:nv], fields[nv:], x[nw:] if x.size > nw else None,
                    residual, backward_error(system, factor.norm, x, rhs, product),
                    factor, gap)


def _check_finite(ksq: float, load: np.ndarray):
    """Non-finite inputs are input errors, caught before any assembly,
    not discrete resonances."""
    if not np.isfinite(ksq):
        raise ValueError(f"ksq must be finite, got {ksq}")
    if not np.all(np.isfinite(load)):
        raise ValueError("the load must be finite")


def solve_mixed(disc: Discretization, ksq: float, load: np.ndarray) -> Solution:
    """Solve the two-field system for (u, p)."""
    _check_finite(ksq, load)
    return _solve(disc, disc.primal_system(ksq), load)


def solve_auxiliary(disc: Discretization, ksq: float, load: np.ndarray) -> Solution:
    """Solve the three-field system with the explicit face multiplier.

    The load is given in (V, Q) layout; the multiplier row carries no
    data.  The returned (u, p) match the two-field solve and the
    multiplier carries the normal jump of p.
    """
    _check_finite(ksq, load)
    return _solve(disc, disc.auxiliary_system(ksq), load)
