"""Quadrature on the reference triangle and the unit segment.

Triangle rules come from the collapsed-coordinate product of Gauss-Legendre
(in the first coordinate) with Gauss-Jacobi weighted by (1-b) (in the
second), which integrates every bivariate polynomial up to the requested
total degree exactly and has strictly positive weights.  Reference triangle:
{(x, y) : x >= 0, y >= 0, x + y <= 1}, measure 1/2.  Segment rules are plain
Gauss-Legendre on [0, 1], total weight 1.

The Gauss-Jacobi rule is computed as Golub and Welsch do (Math. Comp. 23,
1969): its nodes are the eigenvalues of the symmetric tridiagonal Jacobi
matrix of the orthogonal polynomials, and its weights the total weight
times the squared first components of the normalized eigenvectors.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = ["QuadratureRule", "triangle_rule", "segment_rule", "MAX_EXACTNESS"]

MAX_EXACTNESS = 20


class QuadratureRule(NamedTuple):
    points: np.ndarray   # (npts, dim) for triangles, (npts,) for segments
    weights: np.ndarray  # (npts,), strictly positive


def _check_degree(degree: int):
    if not 0 <= degree <= MAX_EXACTNESS:
        raise ValueError(f"exactness degree must lie in [0, {MAX_EXACTNESS}], got {degree}")


@lru_cache(maxsize=None)
def segment_rule(degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1] exact for polynomials of degree <= degree."""
    _check_degree(degree)
    npts = degree // 2 + 1
    nodes, weights = np.polynomial.legendre.leggauss(npts)
    rule = QuadratureRule(0.5 * (nodes + 1.0), 0.5 * weights)
    rule.points.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


def _gauss_jacobi_10(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule on [-1, 1] for the weight 1 - t (Jacobi alpha = 1,
    beta = 0), nodes ascending, by Golub-Welsch.  The Jacobi matrix of the
    Jacobi polynomials P_k^(1,0) has diagonal -1/((2k+1)(2k+3)) and
    off-diagonal sqrt(k(k+1))/(2k+1), k >= 1; the total weight is 2.  Both
    triangles are filled: eigh reads only one."""
    k = np.arange(n, dtype=float)
    off = np.sqrt(k[1:] * (k[1:] + 1.0)) / (2.0 * k[1:] + 1.0)
    jacobi = np.diag(-1.0 / ((2.0 * k + 1.0) * (2.0 * k + 3.0)))
    jacobi += np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    return nodes, 2.0 * vectors[0] ** 2


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadratureRule:
    """Rule on the reference triangle exact for total degree <= degree."""
    _check_degree(degree)
    ga, wa = segment_rule(degree)       # n = degree // 2 + 1 points on [0, 1]
    n = len(ga)
    # Gauss-Jacobi(1, 0): weight (1-t) on [-1, 1]; the map t -> (t+1)/2
    # carries the weight to 2*(1-b) with jacobian 1/2.
    gb, wb = _gauss_jacobi_10(n)
    gb = 0.5 * (gb + 1.0)
    wb = 0.25 * wb
    # Collapsed map (a, b) -> (a(1-b), b) has jacobian (1-b), absorbed by wb;
    # point i * n + j pairs ga[i] with gb[j].
    pts = np.column_stack([np.outer(ga, 1.0 - gb).ravel(), np.tile(gb, n)])
    wts = np.outer(wa, wb).ravel()
    pts.flags.writeable = False
    wts.flags.writeable = False
    return QuadratureRule(pts, wts)
