"""Direct solution of the assembled saddle point systems.

The systems are symmetric indefinite.  They are factored in SuperLU's
symmetric mode: a fill-reducing symmetric ordering and a diagonal pivot
whenever it is nonzero.  The ordering is the discretization's nested
dissection where it gives one (degree 1), else minimum degree on A + A^T.
The relaxed pivoting cuts the fill of a partial-pivoting factor, to about
a third at degree 2, but it may grow the factor's error.  Every solve
therefore takes one step of iterative refinement in working precision,
which restores a small backward error when the factor is not too
unstable (Skeel, Math. Comp. 1980).  A refined probe solve checks that at
factorization time; if it fails, the matrix is refactored with partial
pivoting and a COLAMD column order.

A wavenumber at a discrete resonance makes the matrix singular.  That is
judged by a 1-norm condition estimate (Higham and Tisseur, SIAM J. Matrix
Anal. Appl. 2000), which, unlike the pivots of the factor, depends on
neither the scale of the system nor the fill-reducing ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from .assembly import Discretization
from .spaces import FemField

__all__ = ["ResonanceError", "Factor", "PermutedLU", "Solution",
           "factorize", "refined_solve", "solve_mixed", "solve_auxiliary",
           "SolutionOperator"]

# Symmetric mode takes the diagonal pivot whenever it is nonzero.
DIAG_PIVOT_THRESH = 0.0
# Normwise backward error of the refined probe solve above which the
# symmetric factor is refused.  A stable factor stays near eps.
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

    pivoting: str          # "symmetric", or "partial" after the fallback
    ordering: str          # "nested_dissection", "mmd", or "colamd"
    lu_nnz: int            # stored entries of the supernodal L and U
    cond_estimate: float   # estimate of the 1-norm condition number


@dataclass
class Solution:
    """Discrete fields plus solver diagnostics."""

    u: FemField
    p: FemField
    lam: FemField | None
    residual: float        # algebraic residual, relative to the load
    factor: Factor         # how the system was factored
    constraint_gap: float  # ||B u - C p|| relative to operator/field scales

    @property
    def cond_estimate(self) -> float:
        return self.factor.cond_estimate


class PermutedLU:
    """SuperLU factor of P A P^T, applied in the numbering of A."""

    def __init__(self, lu, order: np.ndarray):
        self.lu = lu
        self.order = order        # row i of P A P^T is row order[i] of A

    L = property(lambda self: self.lu.L)
    U = property(lambda self: self.lu.U)
    nnz = property(lambda self: self.lu.nnz)

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        out = np.empty_like(rhs, dtype=float)
        out[self.order] = self.lu.solve(rhs[self.order], trans)
        return out


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


def refined_solve(matrix, lu, rhs: np.ndarray) -> np.ndarray:
    """Solve with the factor plus one step of iterative refinement."""
    x = lu.solve(rhs)
    x += lu.solve(rhs - matrix @ x)
    return x


def _stable(matrix, norm: float, lu) -> bool:
    """Whether a refined solve of a fixed probe has a normwise backward
    error (Rigal and Gaches, 1-norm) within tolerance."""
    probe = np.random.default_rng(0).standard_normal(matrix.shape[0])
    x = refined_solve(matrix, lu, probe)
    gap = np.abs(probe - matrix @ x).sum()
    return bool(gap <= BACKWARD_TOL * (norm * np.abs(x).sum()
                                       + np.abs(probe).sum()))


def factorize(matrix, order: np.ndarray | None = None):
    """Sparse LU of a symmetric system, with the fallback to partial
    pivoting and the condition check.  With a symmetric permutation
    order, the symmetric factor is of P A P^T in that order, else of A in
    a minimum degree order.  Returns the factor, which solves in the
    numbering of A (SuperLU's, or a `PermutedLU`), and its `Factor`
    record."""
    matrix = matrix.tocsc()
    norm = float(abs(matrix).sum(axis=0).max())
    try:
        if order is None:
            ordering = "mmd"
            lu = splu(matrix, permc_spec="MMD_AT_PLUS_A",
                      diag_pivot_thresh=DIAG_PIVOT_THRESH,
                      options={"SymmetricMode": True})
        else:
            ordering = "nested_dissection"
            lu = PermutedLU(splu(_permuted(matrix, order),
                                 permc_spec="NATURAL",
                                 diag_pivot_thresh=DIAG_PIVOT_THRESH,
                                 options={"SymmetricMode": True}), order)
    except RuntimeError:
        lu = None
    pivoting = "symmetric"
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
    return lu, Factor(pivoting, ordering, int(lu.nnz), cond)


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
    return Solution(FemField("V", u), FemField("Q", p),
                    FemField("M", lam) if multiplier else None,
                    _residual(system, sol, rhs), factor,
                    _constraint_gap(disc, u, p))


def solve_mixed(disc: Discretization, ksq: float, load: np.ndarray) -> Solution:
    """Solve the two-field system for (u, p)."""
    system = disc.primal_system(ksq)
    return _solve(disc, system, *factorize(system, disc.dof_order()), load)


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
    lu, factor = factorize(system, disc.dof_order(multiplier=True))
    return _solve(disc, system, lu, factor, full, multiplier=True)


class SolutionOperator:
    """Factorized solution operator at a fixed wavenumber (default 0).

    At ksq = 0 this is the discrete source-to-field map whose spectral
    properties mirror the continuous solution operator; the
    factorization is reused across right hand sides.
    """

    def __init__(self, disc: Discretization, ksq: float = 0.0):
        self.disc = disc
        self.ksq = ksq
        self._system = disc.primal_system(ksq)
        self._lu, self.factor = factorize(self._system, disc.dof_order())

    def solve(self, load: np.ndarray) -> Solution:
        return _solve(self.disc, self._system, self._lu, self.factor, load)

    def apply(self, load_v: np.ndarray) -> FemField:
        """Field part of the solution for a V-layout load."""
        full = np.zeros(self._system.shape[0])
        full[:self.disc.spaces.dim_V] = load_v
        return self.solve(full).u

    def apply_density(self, coeffs: np.ndarray) -> Solution:
        """Solve with the source eps times the V field with these
        coefficients; (j, v) is then a weighted mass product."""
        sp = self.disc.spaces
        load = np.zeros(sp.dim_V + sp.dim_Q)
        load[:sp.dim_V] = self.disc.mass_eps @ coeffs
        return self.solve(load)
