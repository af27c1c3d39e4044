"""Sparse operators in dense blocks.

Every sparse operator of the package, the forms, the saddle point
system, the block diagonals and the conforming scalar basis, is a
`BlockMatrix`: a block-row table of dense blocks, the layout of BSR
(block compressed sparse row) storage.  Its product with a vector or a
block of columns takes one right-hand side at a time, one matrix-vector
product per block, so a column gives the same bits alone or in a block;
it gathers one block of every block row at a time, so a product with
many columns allocates no more than its result per step.  `tobsr` gives
scipy's `bsr_array` of the same blocks, and imports scipy only then.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BlockMatrix"]


def _row_products(rows: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """rows[..., i, :] @ matrices[i] for every row: one matrix-vector
    product per right-hand side, however many are solved together."""
    return (rows[..., None, :] @ matrices)[..., 0, :]


class BlockMatrix:
    """A sparse matrix of dense (r, c) blocks: block row i holds the
    blocks data[indptr[i]:indptr[i + 1]] in the block columns
    indices[indptr[i]:indptr[i + 1]]."""

    def __init__(self, data: np.ndarray, indices: np.ndarray,
                 indptr: np.ndarray, shape: tuple[int, int]):
        self.data = data
        self.indices = np.asarray(indices, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.shape = (int(shape[0]), int(shape[1]))
        self.blocksize = data.shape[1:]

    @property
    def nnz(self) -> int:
        """Stored entries, as scipy counts them for BSR storage."""
        return self.data.size

    def __matmul__(self, x) -> np.ndarray:
        """The product with a vector or with the columns of a 2-D array."""
        x = np.asarray(x, dtype=float)
        if x.shape[:1] != self.shape[1:]:
            raise ValueError(f"dimension mismatch: {self.shape} @ {x.shape}")
        r, c = self.blocksize
        columns = x[:, None] if x.ndim == 1 else x
        w = np.ascontiguousarray(columns.T).reshape(
            columns.shape[1], self.shape[1] // c, c)
        out = np.zeros((len(w), len(self.indptr) - 1, r))
        count = np.diff(self.indptr)
        for k in range(count.max(initial=0)):
            rows = np.flatnonzero(count > k)
            at = self.indptr[rows] + k
            out[:, rows] += _row_products(w.take(self.indices[at], axis=1),
                                          np.swapaxes(self.data[at], 1, 2))
        return np.ascontiguousarray(out.reshape(len(w), self.shape[0]).T).reshape(
            self.shape[0], *x.shape[1:])

    def toarray(self) -> np.ndarray:
        """The dense matrix."""
        r, c = self.blocksize
        out = np.zeros((self.shape[0] // r, r, self.shape[1] // c, c))
        rows = np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))
        out[rows, :, self.indices, :] = self.data
        return out.reshape(self.shape)

    def tobsr(self):
        """scipy's `bsr_array` of the same blocks."""
        from scipy.sparse import bsr_array
        return bsr_array((self.data, self.indices, self.indptr),
                         shape=self.shape)
