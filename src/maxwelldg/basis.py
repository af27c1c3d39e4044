"""Reference-element bases.

Three families, all with deterministic orderings:

* ``ScalarBasis(m)``: orthonormal basis of P_m on the reference triangle,
  obtained by Cholesky-orthonormalizing the graded-lexicographic monomials
  against the closed-form moments int x^p y^q = p! q! / (p+q+2)!.  Graded
  ordering makes the family hierarchical: the first dim P_{m-1} functions
  are exactly the degree-(m-1) basis.

* ``CurlBasis(l)``: the curl-conforming space of degree l,
  (P_{l-1})^2 + { p * (-y, x) : p homogeneous of degree l-1 },
  of dimension l(l+2).  The homogeneous tail consists of the degree-l vector
  fields orthogonal to the position vector, so tangential edge traces stay in
  P_{l-1} on every straight edge.  Ordering: component pairs (psi_k, 0),
  (0, psi_k) over the scalar degree-(l-1) basis, then the rotated monomials
  x^{l-1}(-y,x), ..., y^{l-1}(-y,x).

* ``face_modes``: Legendre polynomials rescaled to be orthonormal in
  L^2(0, 1), used to expand all face data.  They are evaluated by the
  three-term recurrence of ``numpy.polynomial.legendre.legvander``.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np

__all__ = ["ScalarBasis", "CurlBasis", "face_modes"]


def _monomial_exponents(degree: int) -> np.ndarray:
    """Graded lexicographic exponents: (0,0); (1,0),(0,1); (2,0),(1,1),..."""
    out = []
    for d in range(degree + 1):
        for q in range(d + 1):
            out.append((d - q, q))
    return np.array(out, dtype=np.int64)


def _monomial_moment(p: int, q: int) -> float:
    return factorial(p) * factorial(q) / factorial(p + q + 2)


class ScalarBasis:
    """Orthonormal polynomial basis of P_degree on the reference triangle."""

    def __init__(self, degree: int):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.degree = degree
        self.exponents = _monomial_exponents(degree)
        self.dim = len(self.exponents)
        gram = np.empty((self.dim, self.dim))
        for i, (pi, qi) in enumerate(self.exponents):
            for j, (pj, qj) in enumerate(self.exponents):
                gram[i, j] = _monomial_moment(pi + pj, qi + qj)
        lower = np.linalg.cholesky(gram)
        # Rows of C = L^-1 give orthonormal combinations: C G C^T = I.  By
        # forward substitution, so that C is exactly lower triangular.
        self.coeff = np.zeros_like(lower)
        for i in range(self.dim):
            self.coeff[i, i] = 1.0
            self.coeff[i] -= lower[i, :i] @ self.coeff[:i]
            self.coeff[i] /= lower[i, i]

    def _monomials(self, pts: np.ndarray) -> np.ndarray:
        x = pts[:, 0][:, None]
        y = pts[:, 1][:, None]
        return x ** self.exponents[:, 0] * y ** self.exponents[:, 1]

    def eval(self, pts: np.ndarray) -> np.ndarray:
        """Values, shape (npts, dim)."""
        return self._monomials(np.atleast_2d(pts)) @ self.coeff.T

    def grad(self, pts: np.ndarray) -> np.ndarray:
        """Gradients, shape (npts, dim, 2)."""
        pts = np.atleast_2d(pts)
        x = pts[:, 0][:, None]
        y = pts[:, 1][:, None]
        p = self.exponents[:, 0]
        q = self.exponents[:, 1]
        with np.errstate(invalid="ignore"):
            dx = np.where(p > 0, p * x ** np.maximum(p - 1, 0) * y ** q, 0.0)
            dy = np.where(q > 0, q * x ** p * y ** np.maximum(q - 1, 0), 0.0)
        out = np.empty((len(pts), self.dim, 2))
        out[:, :, 0] = dx @ self.coeff.T
        out[:, :, 1] = dy @ self.coeff.T
        return out


class CurlBasis:
    """Curl-conforming reference basis of degree l, dimension l(l+2)."""

    def __init__(self, degree: int):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        self.degree = degree
        self.scalar = ScalarBasis(degree - 1)
        self.dim = degree * (degree + 2)
        self._n_pairs = self.scalar.dim  # pairs (psi_k, 0), (0, psi_k)

    def eval(self, pts: np.ndarray) -> np.ndarray:
        """Values, shape (npts, dim, 2)."""
        pts = np.atleast_2d(pts)
        npts = len(pts)
        vals = np.zeros((npts, self.dim, 2))
        sc = self.scalar.eval(pts)
        for k in range(self._n_pairs):
            vals[:, 2 * k, 0] = sc[:, k]
            vals[:, 2 * k + 1, 1] = sc[:, k]
        x = pts[:, 0]
        y = pts[:, 1]
        l = self.degree
        for m in range(l):
            # p = x^{l-1-m} y^m multiplying the rotation field (-y, x)
            p = x ** (l - 1 - m) * y ** m
            vals[:, 2 * self._n_pairs + m, 0] = -p * y
            vals[:, 2 * self._n_pairs + m, 1] = p * x
        return vals

    def curl(self, pts: np.ndarray) -> np.ndarray:
        """Scalar curls d/dx v_2 - d/dy v_1, shape (npts, dim)."""
        pts = np.atleast_2d(pts)
        npts = len(pts)
        out = np.zeros((npts, self.dim))
        gr = self.scalar.grad(pts)
        for k in range(self._n_pairs):
            out[:, 2 * k] = -gr[:, k, 1]
            out[:, 2 * k + 1] = gr[:, k, 0]
        x = pts[:, 0]
        y = pts[:, 1]
        l = self.degree
        for m in range(l):
            # curl of p*(-y, x) with p homogeneous of degree l-1 is (l+1) p.
            out[:, 2 * self._n_pairs + m] = (l + 1) * x ** (l - 1 - m) * y ** m
        return out


def face_modes(degree: int, s: np.ndarray) -> np.ndarray:
    """L^2(0,1)-orthonormal Legendre modes, shape (npts, degree + 1)."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    scale = np.sqrt(2.0 * np.arange(degree + 1) + 1.0)
    # legvander returns a transposed view; the product is laid out in rows
    modes = np.polynomial.legendre.legvander(2.0 * s - 1.0, degree)
    return np.multiply(modes, scale, order="C")


@lru_cache(maxsize=None)
def scalar_basis(degree: int) -> ScalarBasis:
    return ScalarBasis(degree)


@lru_cache(maxsize=None)
def curl_basis(degree: int) -> CurlBasis:
    return CurlBasis(degree)
