"""Command line front end.

Three subcommands, each driven by a JSON config file:

* ``solve``: one mesh, one solve, diagnostics as JSON;
* ``study``: refinement sweep with a CSV table (plus markdown and JSON
  diagnostics when an output prefix is given);
* ``constants``: stability constants across a refinement sweep.

The config accepts mesh specs "square:n", "lshape:n", or a mesh file
path; --levels, --degree, and --output override the config.  Runs are
deterministic at a fixed BLAS thread count: the same config produces
byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .analysis import (constants_sweep, convergence_study, error_norms,
                       setup_problem)
from .assembly import DEFAULT_ALPHA, DEFAULT_GAMMA, Discretization
from .materials import Coefficients
from .mesh import Mesh, MeshFormatError, lshape, read_mesh, refine_uniform, unit_square
from .problems import get_problem, gradient_null_data
from .solver import BACKWARD_TOL, ResonanceError, solve_mixed

__all__ = ["main", "RunConfig", "ConfigError", "load_config",
           "resolve_penalties"]

# Exit status contract: a solve passes when the normwise backward error
# of its refined solution is within solver.BACKWARD_TOL, which, unlike
# the residual relative to the load, does not grow with the condition
# number as the mesh is refined, and its constraint gap within this.
CONSTRAINT_TOL = 1e-10


def _passes(backward_error: float, constraint_gap: float,
            where: str = "") -> bool:
    """The exit gate of one solve, on the two bounds above.  Each bound
    the solve misses gets an error line on stderr with its value."""
    missed = [(name, value, bound) for name, value, bound in (
        ("backward error", backward_error, BACKWARD_TOL),
        ("constraint gap", constraint_gap, CONSTRAINT_TOL))
        if not value <= bound]
    for name, value, bound in missed:
        print(f"error: {where}{name} {value:.3e} exceeds its bound {bound:.3e}",
              file=sys.stderr)
    return not missed


CONFIG_KEYS = {"command", "mesh", "degree", "k", "coefficients", "alpha",
               "gamma", "levels", "problem", "output", "formulation"}
PROBLEM_NAMES = ("sine", "lshape", "gradient", "zero")
DEFAULT_MESH = {"sine": "square:4", "lshape": "lshape:2",
                "gradient": "square:4", "zero": "square:4"}


class ConfigError(ValueError):
    """Structured configuration failure with a user-readable message."""


@dataclasses.dataclass
class RunConfig:
    command: str
    mesh: str
    degree: int
    ksq: float
    coeffs: Coefficients
    alpha: float
    gamma: float
    levels: int
    problem: str
    output: str | None
    formulation: str


def _is_number(value) -> bool:
    """JSON numbers only: bool is an int subclass, but true is no number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value, what: str) -> np.ndarray:
    """The number or nested list as a float array.  Rejects NaN and
    infinities, which Python's json accepts, and integers too large for a
    float."""
    try:
        out = np.asarray(value, dtype=float)
    except OverflowError:
        out = np.array(np.inf)
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"{what} must be finite, got {value}")
    return out


def _parse_tensor(value, what: str):
    if _is_number(value):
        return float(_finite(value, what))
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(row, list) and len(row) == 2
                    and all(map(_is_number, row)) for row in value)):
        return _finite(value, what)
    raise ConfigError(f"{what} must be a scalar or a 2x2 matrix")


def _parse_coefficients(table) -> Coefficients:
    if table is None:
        return Coefficients()
    if not isinstance(table, dict):
        raise ConfigError("coefficients must map material tags to entries")
    mu, eps = {}, {}
    for key, entry in table.items():
        try:
            tag = int(key)
        except ValueError:
            raise ConfigError(f"material tag {key!r} is not an integer") from None
        if tag in mu:
            first = next(k for k in table if int(k) == tag)
            raise ConfigError(f"material tags {first!r} and {key!r} both name tag {tag}")
        if not isinstance(entry, dict) or not set(entry) <= {"mu", "eps"}:
            raise ConfigError(
                f"coefficient entry for tag {key!r} must hold 'mu' and/or 'eps'")
        mu[tag] = _parse_tensor(entry.get("mu", 1.0), f"mu[{key}]")
        eps[tag] = _parse_tensor(entry.get("eps", 1.0), f"eps[{key}]")
    try:
        return Coefficients(mu=mu, eps=eps)
    except ValueError as err:
        raise ConfigError(f"coefficients: {err}") from None


def _penalty(value, what: str, default: float) -> float:
    if value == "auto":
        return default
    if not _is_number(value):
        raise ConfigError(f"{what} must be 'auto' or a number")
    return float(_finite(value, what))


def resolve_penalties(alpha, gamma) -> tuple[float, float]:
    """Penalty weights from config values: "auto" gives the thresholds
    6.5 and 0.5; a number below its threshold is admitted with a warning,
    since the coercivity or well-posedness guarantee no longer applies."""
    alpha = _penalty(alpha, "alpha", DEFAULT_ALPHA)
    if alpha < DEFAULT_ALPHA:
        warnings.warn(
            f"alpha = {alpha} is below 1/2 + 2n_K = {DEFAULT_ALPHA}; "
            "coercivity of the curl form is not guaranteed")
    gamma = _penalty(gamma, "gamma", DEFAULT_GAMMA)
    if gamma < DEFAULT_GAMMA:
        warnings.warn(
            f"gamma = {gamma} is below the threshold {DEFAULT_GAMMA}; "
            "well-posedness of the mixed system is not guaranteed")
    if alpha <= 0.0 or gamma <= 0.0:
        raise ConfigError("penalty weights must be positive")
    return alpha, gamma


def load_config(path: str, command: str, levels: int | None = None,
                degree: int | None = None,
                output: str | None = None) -> RunConfig:
    """Read and validate a JSON config, applying CLI overrides."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"config parse error at line {err.lineno} column {err.colno}: "
            f"{err.msg}") from err
    except ValueError as err:      # an integer past Python's digit limit
        raise ConfigError(f"config parse error: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "command" in raw and raw["command"] != command:
        raise ConfigError(
            f"config is for command {raw['command']!r}, invoked as {command!r}")

    problem = raw.get("problem", "sine")
    if problem not in PROBLEM_NAMES:
        raise ConfigError(
            f"unknown problem {problem!r}; choose from {list(PROBLEM_NAMES)}")

    deg = degree if degree is not None else raw.get("degree", 1)
    if type(deg) is not int or deg not in (1, 2):
        raise ConfigError(f"degree must be 1 or 2, got {deg}")

    nlev = levels if levels is not None else raw.get("levels", 3)
    if type(nlev) is not int or nlev < 1:
        raise ConfigError(f"levels must be a positive integer, got {nlev}")

    k = raw.get("k", 1.0)
    if not _is_number(k):
        raise ConfigError("k must be a number")
    k = float(_finite(k, "k"))
    try:
        ksq = k ** 2
    except OverflowError:
        raise ConfigError(f"k squared must be finite, got k = {k}") from None

    # both formulations run the same solve: eliminating the auxiliary
    # formulation's face multiplier leaves the primal system
    formulation = raw.get("formulation", "primal")
    if formulation not in ("primal", "auxiliary"):
        raise ConfigError(
            f"formulation must be 'primal' or 'auxiliary', got {formulation!r}")

    coeffs = _parse_coefficients(raw.get("coefficients"))
    alpha, gamma = resolve_penalties(raw.get("alpha", "auto"),
                                     raw.get("gamma", "auto"))

    mesh = raw.get("mesh", DEFAULT_MESH[problem])
    if not isinstance(mesh, str):
        raise ConfigError("mesh must be a string spec or file path")

    out = output if output is not None else raw.get("output")
    if not isinstance(out, (str, type(None))):
        raise ConfigError(f"output must be a string prefix, got {out!r}")
    return RunConfig(command=command, mesh=mesh, degree=deg, ksq=ksq,
                     coeffs=coeffs, alpha=alpha, gamma=gamma,
                     levels=nlev, problem=problem, output=out,
                     formulation=formulation)


# ----------------------------------------------------------------------
# mesh construction

def _base_mesh(spec: str) -> tuple[str, int] | Mesh:
    if ":" in spec:
        kind, _, num = spec.partition(":")
        if kind in ("square", "lshape"):
            try:
                n = int(num)
            except ValueError:
                raise ConfigError(f"bad mesh spec {spec!r}") from None
            if n < 1:
                raise ConfigError(f"mesh spec {spec!r} needs a positive size")
            return kind, n
    try:
        text = Path(spec).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read mesh {spec!r}: {err}") from err
    try:
        return read_mesh(text)
    except MeshFormatError as err:
        raise ConfigError(f"bad mesh file {spec!r}: {err}") from err


def mesh_family(spec: str):
    """Level-indexed mesh factory: structured specs double their size per
    level, mesh files refine uniformly."""
    base = _base_mesh(spec)
    if isinstance(base, Mesh):
        cache = [base]

        def factory(level: int) -> Mesh:
            while len(cache) <= level:
                cache.append(refine_uniform(cache[-1]))
            return cache[level]

        return factory
    kind, n = base
    builder = unit_square if kind == "square" else lshape
    return lambda level: builder(n * 2 ** level)


def _conforming_nodes(mesh: Mesh, degree: int) -> int:
    """Columns of `Spaces.conforming_q_basis`: the interior vertices, and
    at degree 2 the interior faces too."""
    faces = np.count_nonzero(~mesh.boundary) if degree == 2 else 0
    return mesh.num_vertices - np.unique(mesh.faces[mesh.boundary]).size + faces


def _check_tags(cfg: RunConfig, mesh: Mesh):
    """Every material tag of the mesh needs a coefficient entry; checked
    on the coarsest mesh, since refinement keeps the tags."""
    missing = cfg.coeffs.missing_tags(mesh)
    if missing:
        raise ConfigError(f"coefficients have no entry for mesh tags {missing}")


# ----------------------------------------------------------------------
# output plumbing

def _make_output_dir(prefix: str, suffixes):
    """Create the prefix's directory and refuse a target that is one, so
    that a prefix that cannot be written is rejected before any numerics."""
    try:
        Path(f"{prefix}.csv").parent.mkdir(parents=True, exist_ok=True)
        for suffix in suffixes:
            if Path(prefix + suffix).is_dir():
                raise IsADirectoryError(f"{prefix}{suffix} is a directory")
    except OSError as err:
        raise ConfigError(f"cannot write output prefix {prefix!r}: {err}") from err


def _emit(cfg: RunConfig, suffix: str, text: str):
    if cfg.output:
        Path(f"{cfg.output}{suffix}").write_text(text)
    else:
        sys.stdout.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# subcommands

def run_solve(cfg: RunConfig) -> int:
    mesh = mesh_family(cfg.mesh)(0)
    _check_tags(cfg, mesh)
    summary: dict = {"command": "solve", "problem": cfg.problem,
                     "mesh": cfg.mesh, "degree": cfg.degree, "ksq": cfg.ksq,
                     "formulation": cfg.formulation}
    if cfg.problem in ("sine", "lshape"):
        problem = get_problem(cfg.problem, cfg.ksq)
        problem = dataclasses.replace(problem, coeffs=cfg.coeffs)
        disc, load, g_data = setup_problem(problem, mesh, cfg.degree,
                                           cfg.alpha, cfg.gamma)
    else:
        if cfg.problem == "gradient" and not _conforming_nodes(mesh, cfg.degree):
            raise ConfigError(f"mesh {cfg.mesh!r} has no interior scalar node "
                              f"at degree {cfg.degree} for the gradient problem")
        disc = Discretization(mesh, cfg.degree, cfg.coeffs,
                              alpha=cfg.alpha, gamma=cfg.gamma)
        problem = g_data = None
        if cfg.problem == "gradient":
            load, q_coeffs = gradient_null_data(disc)
            summary["gradient_norm_q"] = disc.norm_q(q_coeffs)
        else:
            load = np.zeros(disc.spaces.dim_V)
    sol = solve_mixed(disc, cfg.ksq, load)
    summary.update({
        "dofs_u": disc.spaces.dim_V,
        "dofs_p": disc.spaces.dim_Q,
        "norm_u": disc.norm_v(sol.u),
        "norm_p": disc.norm_q(sol.p),
        "residual": sol.residual,
        "backward_error": sol.backward_error,
        "cond_estimate": sol.factor.cond_estimate,
        "constraint_residual": sol.constraint_gap,
        "factor": {"pivoting": sol.factor.pivoting,
                   "ordering": sol.factor.ordering,
                   "lu_nnz": sol.factor.lu_nnz,
                   "stored_nnz": sol.factor.stored_nnz},
    })
    if problem is not None:
        errs = error_norms(disc, problem, sol.u, sol.p, g_data=g_data)
        summary["e_v"] = errs["e_v"]
        summary["e_q"] = errs["e_q"]
    text = _json_text(summary)
    sys.stdout.write(text)
    if cfg.output:
        _emit(cfg, ".json", text)
    return 0 if _passes(sol.backward_error, sol.constraint_gap) else 1


def run_study(cfg: RunConfig) -> int:
    if cfg.problem not in ("sine", "lshape"):
        raise ConfigError(
            f"study needs a problem with an exact solution, not {cfg.problem!r}")
    factory = mesh_family(cfg.mesh)
    _check_tags(cfg, factory(0))
    problem = get_problem(cfg.problem, cfg.ksq)
    problem = dataclasses.replace(problem, coeffs=cfg.coeffs,
                                  mesh_factory=factory)
    report = convergence_study(problem, cfg.degree, cfg.levels,
                               alpha=cfg.alpha, gamma=cfg.gamma)
    _emit(cfg, ".csv", report.to_csv())
    if cfg.output:
        _emit(cfg, ".md", report.to_markdown())
        _emit(cfg, ".json", _json_text(report.diagnostics()))
    # a list, not a generator: every level's missed gates are printed
    ok = all([_passes(r.backward_error, r.constraint_residual,
                      f"level {r.level}: ") for r in report.records])
    return 0 if ok else 1


CONSTANT_COLUMNS = ["level", "h", "dofs", "lift_c1", "lift_c2",
                    "coercivity_margin", "friedrichs", "infsup_b",
                    "kernel_ellipticity", "indefinite_infsup"]


def run_constants(cfg: RunConfig) -> int:
    factory = mesh_family(cfg.mesh)
    meshes = [factory(i) for i in range(cfg.levels)]
    _check_tags(cfg, meshes[0])
    rows = constants_sweep(meshes, cfg.degree, cfg.coeffs, ksq=cfg.ksq,
                           alpha=cfg.alpha, gamma=cfg.gamma)
    lines = [",".join(CONSTANT_COLUMNS)]
    for level, row in enumerate(rows):
        cells = [str(level), repr(row["h"]), str(row["dofs"])]
        cells += [repr(row[c]) for c in CONSTANT_COLUMNS[3:]]
        lines.append(",".join(cells))
    _emit(cfg, ".csv", "\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="maxwelldg",
        description="Mixed interior penalty solver for the time-harmonic "
                    "Maxwell system")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (("solve", "solve one problem on one mesh"),
                        ("study", "run a refinement convergence study"),
                        ("constants", "estimate stability constants")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--levels", type=int, help="override config levels")
        p.add_argument("--degree", type=int, help="override config degree")
        p.add_argument("--output", help="override config output prefix")
    args = parser.parse_args(argv)
    commands = {"solve": (run_solve, [".json"]),
                "study": (run_study, [".csv", ".md", ".json"]),
                "constants": (run_constants, [".csv"])}
    try:
        cfg = load_config(args.config, command=args.command,
                          levels=args.levels, degree=args.degree,
                          output=args.output)
        run, suffixes = commands[cfg.command]
        if cfg.output:
            _make_output_dir(cfg.output, suffixes)
        return run(cfg)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ResonanceError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
