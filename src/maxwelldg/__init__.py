"""Mixed interior penalty discretization of the 2D time-harmonic Maxwell
system, with lifting-based numerical fluxes and a verification harness
for stability constants and convergence rates."""

from .analysis import (ConvergenceReport, best_approximation_error,
                       coercivity_margin, conforming_average, constants_sweep,
                       consistency_check_R1, convergence_study, error_norms,
                       friedrichs_constant, indefinite_infsup,
                       infsup_constant_B, kernel_ellipticity, residual_R2,
                       setup_problem)
from .assembly import Discretization
from .lifting import Lifting
from .materials import Coefficients
from .mesh import (Mesh, MeshFormatError, lshape, read_mesh, refine_uniform,
                   unit_square, write_mesh)
from .problems import ModelProblem, get_problem, gradient_null_data, sine_problem, lshape_problem
from .solver import (ResonanceError, Solution, SolutionOperator,
                     solve_auxiliary, solve_mixed)
from .spaces import FemField, Spaces

__version__ = "0.1.0"

__all__ = [
    "Mesh", "MeshFormatError", "unit_square", "lshape", "read_mesh",
    "write_mesh", "refine_uniform",
    "Spaces", "FemField", "Lifting", "Coefficients",
    "Discretization",
    "Solution", "SolutionOperator", "ResonanceError",
    "solve_mixed", "solve_auxiliary",
    "ModelProblem", "sine_problem", "lshape_problem", "get_problem",
    "gradient_null_data",
    "conforming_average", "consistency_check_R1", "residual_R2",
    "coercivity_margin", "friedrichs_constant", "infsup_constant_B",
    "kernel_ellipticity", "indefinite_infsup", "error_norms",
    "best_approximation_error", "setup_problem", "convergence_study",
    "constants_sweep", "ConvergenceReport",
    "__version__",
]
