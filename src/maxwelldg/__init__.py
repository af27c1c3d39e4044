"""Mixed interior penalty discretization of the 2D time-harmonic Maxwell
system, with lifting-based numerical fluxes and a verification harness
for stability constants and convergence rates."""

from .analysis import (ConvergenceReport, coercivity_margin, constants_sweep,
                       convergence_study, error_norms, friedrichs_constant,
                       indefinite_infsup, infsup_constant_B,
                       kernel_ellipticity, setup_problem)
from .assembly import Discretization
from .lifting import Lifting
from .materials import Coefficients
from .mesh import (Mesh, MeshFormatError, lshape, read_mesh, refine_uniform,
                   unit_square, write_mesh)
from .problems import ModelProblem, get_problem, gradient_null_data, sine_problem, lshape_problem
from .solver import ResonanceError, Solution, solve_mixed
from .spaces import Spaces

__version__ = "0.1.0"

__all__ = [
    "Mesh", "MeshFormatError", "unit_square", "lshape", "read_mesh",
    "write_mesh", "refine_uniform",
    "Spaces", "Lifting", "Coefficients",
    "Discretization",
    "Solution", "ResonanceError",
    "solve_mixed",
    "ModelProblem", "sine_problem", "lshape_problem", "get_problem",
    "gradient_null_data",
    "coercivity_margin", "friedrichs_constant", "infsup_constant_B",
    "kernel_ellipticity", "indefinite_infsup", "error_norms",
    "setup_problem", "convergence_study",
    "constants_sweep", "ConvergenceReport",
    "__version__",
]
