"""Manufactured model problems for verification runs.

Each problem fixes a domain family, wavenumber, materials, source, and
(where known) the exact solution with its curl, so the convergence and
consistency machinery can be pointed at a problem by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .assembly import Discretization
from .materials import Coefficients
from .mesh import Mesh, lshape, unit_square

__all__ = ["ModelProblem", "sine_problem", "lshape_problem",
           "gradient_null_data", "PROBLEMS", "get_problem"]


@dataclass
class ModelProblem:
    name: str
    ksq: float
    mesh_factory: Callable[[int], Mesh]
    source: Callable
    exact_u: Callable | None = None      # also gives the boundary data
    exact_curl_u: Callable | None = None
    exact_grad_p: Callable | None = None
    coeffs: Coefficients = field(default_factory=Coefficients)


def sine_problem(ksq: float = 1.0) -> ModelProblem:
    """Smooth field on the unit square with homogeneous tangential trace.

    u = (sin(pi y), sin(pi x)) is divergence free, so p = 0 and the
    source is (pi^2 - ksq) u.  The first interior resonance of the unit
    square sits at pi^2, well away from the default ksq.
    """

    def exact_u(x, y):
        return np.stack([np.sin(np.pi * y), np.sin(np.pi * x)], axis=-1)

    def exact_curl(x, y):
        return np.pi * (np.cos(np.pi * x) - np.cos(np.pi * y))

    def source(x, y):
        return (np.pi ** 2 - ksq) * exact_u(x, y)

    return ModelProblem(
        name="sine",
        ksq=ksq,
        mesh_factory=lambda level: unit_square(2 ** (level + 2)),
        source=source,
        exact_u=exact_u,
        exact_curl_u=exact_curl,
        exact_grad_p=lambda x, y: np.zeros(np.shape(x) + (2,)),
    )


def lshape_problem(ksq: float = 1.0) -> ModelProblem:
    """Singular gradient field on the L-shaped domain.

    u is the gradient of the harmonic function r^(2/3) sin(2 theta / 3)
    at the reentrant corner, so curl u = 0, p = 0, and the source is
    -ksq u.  The tangential trace vanishes on the two legs through the
    corner and is prescribed on the outer boundary.  Near the corner the
    field lies in H^s only for s < 2/3, so the asymptotic energy rate is
    2/3 for every degree.  On the meshes a study reaches the discrete error
    is still pre-asymptotic: its rates between levels read 0.55-1.0 at
    degree 1 up to lshape:64 and 0.97-1.11 at degree 2 up to lshape:32.  The
    first resonance of this domain is near 1.4756, separating it from
    the default ksq.
    """

    lam = 2.0 / 3.0

    def polar(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        theta = np.where(theta < 0.0, theta + 2.0 * np.pi, theta)
        return r, theta

    def exact_u(x, y):
        r, theta = polar(x, y)
        with np.errstate(divide="ignore"):
            amp = lam * r ** (lam - 1.0)
        amp = np.where(np.isfinite(amp), amp, 0.0)
        return np.stack([-amp * np.sin((1.0 - lam) * theta),
                         amp * np.cos((1.0 - lam) * theta)], axis=-1)

    def source(x, y):
        return -ksq * exact_u(x, y)

    return ModelProblem(
        name="lshape",
        ksq=ksq,
        mesh_factory=lambda level: lshape(2 ** (level + 1)),
        source=source,
        exact_u=exact_u,
        exact_curl_u=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        exact_grad_p=lambda x, y: np.zeros(np.shape(x) + (2,)),
    )


PROBLEMS = {"sine": sine_problem, "lshape": lshape_problem}


def get_problem(name: str, ksq: float = 1.0) -> ModelProblem:
    try:
        factory = PROBLEMS[name]
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; "
                         f"choose from {sorted(PROBLEMS)}") from None
    return factory(ksq)


def gradient_null_data(disc: Discretization, seed: int = 0):
    """Source eps grad q for a random continuous zero-trace q.

    The exact discrete solution of the mixed system for this source is
    (u, p) = (0, -q): the field vanishes and the multiplier eats the
    gradient.  Returns the load vector and the Q coefficients of q.
    The load is exact: the element blocks of the pairing (eps v, grad q),
    not quadrature of a callable.
    """
    rng = np.random.default_rng(seed)
    sp = disc.spaces
    conf = sp.conforming_q_basis()
    if conf.shape[1] == 0:
        raise ValueError("mesh has no interior scalar degrees of freedom")
    q_coeffs = conf @ rng.standard_normal(conf.shape[1])
    pair = sp.mapped_gram(sp.ref_v_qgrad, disc.materials.eps)
    load = np.zeros(sp.dim_V + sp.dim_Q)
    load[:sp.dim_V] = (pair @ q_coeffs.reshape(len(pair), -1, 1)).ravel()
    return load, q_coeffs
