"""Piecewise-constant material tensors keyed by element tag."""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigvalsh

from .mesh import Mesh

__all__ = ["Coefficients", "MaterialArrays"]


def _as_tensor(value) -> np.ndarray:
    mat = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"material tensor must be finite, got {value}")
    if mat.ndim == 0:
        mat = float(mat) * np.eye(2)
    if mat.shape != (2, 2):
        raise ValueError(f"material tensor must be scalar or 2x2, got shape {mat.shape}")
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12):
        raise ValueError("material tensor must be symmetric")
    if eigvalsh(mat)[0] <= 0.0:
        raise ValueError("material tensor must be positive definite")
    return mat


class Coefficients:
    """Magnetic permeability mu and permittivity eps per mesh tag.

    Entries may be scalars (isotropic) or symmetric positive definite 2x2
    matrices.  Tags without an entry raise on expansion.
    """

    def __init__(self, mu=None, eps=None):
        self.mu = {k: _as_tensor(v) for k, v in (mu or {0: 1.0}).items()}
        self.eps = {k: _as_tensor(v) for k, v in (eps or {0: 1.0}).items()}

    def missing_tags(self, mesh: Mesh) -> list:
        """Tags of the mesh that lack a mu or an eps entry, sorted."""
        tags = set(int(t) for t in np.unique(mesh.tags))
        return sorted(tags - (set(self.mu) & set(self.eps)))

    def expand(self, mesh: Mesh) -> "MaterialArrays":
        tags = mesh.tags
        missing = self.missing_tags(mesh)
        if missing:
            raise ValueError(f"no material data for tags {missing}")
        mu = np.array([self.mu[int(t)] for t in tags])
        eps = np.array([self.eps[int(t)] for t in tags])
        return MaterialArrays(mu=mu, eps=eps)


class MaterialArrays:
    """Per-element material tensors plus the derived scalar curl weight.

    The scalar weight attached to the curl-curl terms is the inverse
    mu_bar_inv of the geometric mean stiffness sqrt(det mu) of the 2x2
    tensor, which reduces to 1/mu for isotropic materials.
    """

    def __init__(self, mu: np.ndarray, eps: np.ndarray):
        self.mu = mu
        self.eps = eps
        det = mu[:, 0, 0] * mu[:, 1, 1] - mu[:, 0, 1] * mu[:, 1, 0]
        self.mu_bar_inv = 1.0 / np.sqrt(det)
