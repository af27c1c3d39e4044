"""Seeded inputs and output checks of the four benchmark workloads.

A workload turns a seed into a set of input files (JSON configs and
plain-text mesh files, nothing else) and one op: the argument list of a
``maxwelldg.cli.main`` call on those files, run from the directory that
holds them.  ``check`` inspects what the op printed or wrote and returns a
list of failed conditions (empty when the output is correct).

Every workload also has a tiny variant on a ``2 x 2`` mesh with one level.
The benchmark runs it untimed as its warm-up op, and ``--smoke`` times it
in place of the full size.

The generator depends on nothing from the package under test, so a change
to the package cannot change the inputs: the same seed gives the same
files, and ``inputs_sha256`` of those files, on every commit.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Exit-status contract of the CLI: exit 0 implies solver residual and
# constraint gap at most this.
RESIDUAL_TOL = 1e-10
# Coercivity margins are sampled minima of a nonnegative quantity; the
# harness tolerates this much roundoff below zero.
MARGIN_TOL = -1e-10
# AC7: the gradient source is annihilated, u = 0 up to roundoff.
GRADIENT_U_TOL = 1e-9
# Energy error of the sine problem at degree 1 on square:32.  Over k in
# [0.5, 2] it moves only in the fifth digit (0.0628156 at k = 0.5,
# 0.0628151 at k = 1, 0.0628122 at k = 2), so one reference serves every
# seed.
SINE_D1_SQ32_EV = 0.06281
SINE_EV_RTOL = 0.01

CONSTANT_NAMES = ("lift_c1", "lift_c2", "friedrichs", "infsup_b",
                  "kernel_ellipticity", "indefinite_infsup")


@dataclass
class Op:
    """One CLI call: its argument list and the checks on its output."""

    argv: list
    check: Callable[[int, str, Path], list]   # -> failed conditions


@dataclass
class Inputs:
    files: dict            # file name -> text
    op: Op

    def write(self, workdir: Path) -> None:
        for name, text in self.files.items():
            (workdir / name).write_text(text)

    def sha256(self) -> str:
        digest = hashlib.sha256()
        for name in sorted(self.files):
            digest.update(name.encode() + b"\0")
            digest.update(self.files[name].encode() + b"\0")
        return digest.hexdigest()


# ----------------------------------------------------------------------
# input pieces

def square_mesh_text(n: int, tags: list) -> str:
    """Uniform n x n grid of the unit square, cells cut along the lower
    left to upper right diagonal, counterclockwise triangles, in the
    plain-text mesh format; tags[i] is the tag of triangle i."""
    lines = [f"nodes {(n + 1) ** 2}"]
    for i in range(n + 1):
        for j in range(n + 1):
            lines.append(f"{repr(i / n)} {repr(j / n)}")
    lines.append(f"elements {2 * n * n}")
    t = iter(tags)
    for i in range(n):
        for j in range(n):
            p00, p10 = i * (n + 1) + j, (i + 1) * (n + 1) + j
            p01, p11 = p00 + 1, p10 + 1
            lines.append(f"{p00} {p10} {p11} {next(t)}")
            lines.append(f"{p00} {p11} {p01} {next(t)}")
    return "\n".join(lines) + "\n"


def spd_tensor(rng: random.Random) -> list:
    """Full symmetric positive definite 2x2 tensor: eigenvalues in
    [0.5, 2], principal axes at a random angle."""
    lam1, lam2 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    theta = rng.uniform(0.0, math.pi)
    c, s = math.cos(theta), math.sin(theta)
    xx = lam1 * c * c + lam2 * s * s
    yy = lam1 * s * s + lam2 * c * c
    xy = (lam1 - lam2) * c * s
    return [[xx, xy], [xy, yy]]


def aniso_coefficients(rng: random.Random, ntags: int) -> dict:
    return {str(t): {"mu": spd_tensor(rng), "eps": spd_tensor(rng)}
            for t in range(ntags)}


def _json(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# output checks

def _solve_summary(rc, stdout, failures):
    if rc != 0:
        failures.append(f"exit status {rc}")
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        failures.append("solve printed no JSON summary")
        return None


def _check_residuals(summary, failures):
    for key in ("residual", "constraint_residual"):
        if not summary[key] <= RESIDUAL_TOL:
            failures.append(f"{key} {summary[key]!r} > {RESIDUAL_TOL}")


def check_sine_solve(reference_ev):
    def check(rc, stdout, workdir):
        failures = []
        summary = _solve_summary(rc, stdout, failures)
        if summary is not None:
            _check_residuals(summary, failures)
            if reference_ev is not None and not (
                    abs(summary["e_v"] - reference_ev)
                    <= SINE_EV_RTOL * reference_ev):
                failures.append(f"e_v {summary['e_v']!r} is not within "
                                f"{SINE_EV_RTOL:.0%} of {reference_ev}")
        return failures
    return check


def check_gradient_solve(rc, stdout, workdir):
    failures = []
    summary = _solve_summary(rc, stdout, failures)
    if summary is not None:
        _check_residuals(summary, failures)
        bound = GRADIENT_U_TOL * summary["gradient_norm_q"]
        if not summary["norm_u"] <= bound:
            failures.append(f"norm_u {summary['norm_u']!r} > {bound!r}")
    return failures


def check_study(levels):
    def check(rc, stdout, workdir):
        failures = []
        if rc != 0:
            failures.append(f"exit status {rc}")
        try:
            diag = json.loads((workdir / "study.json").read_text())
            rows = list(csv.DictReader(
                io.StringIO((workdir / "study.csv").read_text())))
        except (OSError, json.JSONDecodeError) as err:
            return failures + [f"study output unreadable: {err}"]
        finally:
            # the next op must write its own output, not pass on this one
            for suffix in (".json", ".csv", ".md"):
                (workdir / f"study{suffix}").unlink(missing_ok=True)
        if len(rows) != levels or len(diag["levels"]) != levels:
            failures.append(f"expected {levels} levels")
        for lev in diag["levels"]:
            for key in ("solver_residual", "constraint_residual"):
                if not lev[key] <= RESIDUAL_TOL:
                    failures.append(f"level {lev['level']} {key} {lev[key]!r}")
        for row in rows:
            if not float(row["coercivity_margin"]) >= MARGIN_TOL:
                failures.append(f"level {row['level']} coercivity margin "
                                f"{row['coercivity_margin']}")
        errors = [float(row["eV"]) for row in rows]
        if any(b >= a for a, b in zip(errors, errors[1:])):
            failures.append(f"e_V not decreasing: {errors}")
        return failures
    return check


def check_constants(levels):
    def check(rc, stdout, workdir):
        failures = []
        if rc != 0:
            failures.append(f"exit status {rc}")
        rows = list(csv.DictReader(io.StringIO(stdout)))
        if len(rows) != levels:
            failures.append(f"expected {levels} rows, got {len(rows)}")
        for row in rows:
            for name in CONSTANT_NAMES:
                value = float(row[name])
                if not (math.isfinite(value) and value > 0.0):
                    failures.append(f"level {row['level']} {name} {value!r}")
            if not float(row["coercivity_margin"]) >= MARGIN_TOL:
                failures.append(f"level {row['level']} coercivity margin "
                                f"{row['coercivity_margin']}")
        return failures
    return check


# ----------------------------------------------------------------------
# workloads

def solve_d1_sq32(rng: random.Random, tiny: bool) -> Inputs:
    mesh = "square:2" if tiny else "square:32"
    cfg = {"command": "solve", "problem": "sine", "degree": 1, "mesh": mesh,
           "k": rng.uniform(0.5, 2.0)}
    return Inputs({"solve.json": _json(cfg)},
                  Op(["solve", "--config", "solve.json"],
                     check_sine_solve(None if tiny else SINE_D1_SQ32_EV)))


def solve_d2_aniso_sq32(rng: random.Random, tiny: bool) -> Inputs:
    n = 2 if tiny else 32
    coeffs = aniso_coefficients(rng, 4)
    cfg = {"command": "solve", "problem": "gradient", "degree": 2,
           "mesh": "mesh.txt", "k": rng.uniform(0.5, 1.0),
           "coefficients": coeffs}
    tags = [rng.randrange(4) for _ in range(2 * n * n)]
    return Inputs({"solve.json": _json(cfg),
                   "mesh.txt": square_mesh_text(n, tags)},
                  Op(["solve", "--config", "solve.json"],
                     check_gradient_solve))


def study_aux_lshape_d2(rng: random.Random, tiny: bool) -> Inputs:
    levels = 1 if tiny else 4
    cfg = {"command": "study", "problem": "lshape", "degree": 2,
           "mesh": "lshape:1" if tiny else "lshape:2", "levels": levels,
           "formulation": "auxiliary", "k": rng.uniform(0.5, 1.0)}
    return Inputs({"study_cfg.json": _json(cfg)},
                  Op(["study", "--config", "study_cfg.json",
                      "--output", "study"], check_study(levels)))


def constants_d2_aniso(rng: random.Random, tiny: bool) -> Inputs:
    levels = 1 if tiny else 3
    coeffs = aniso_coefficients(rng, 4)
    cfg = {"command": "constants", "degree": 2, "mesh": "mesh.txt",
           "levels": levels, "k": rng.uniform(0.5, 1.0),
           "coefficients": coeffs}
    tags = [rng.randrange(4) for _ in range(8)]
    return Inputs({"constants.json": _json(cfg),
                   "mesh.txt": square_mesh_text(2, tags)},
                  Op(["constants", "--config", "constants.json"],
                     check_constants(levels)))


WORKLOADS = {
    "solve-d1-sq32": solve_d1_sq32,
    "solve-d2-aniso-sq32": solve_d2_aniso_sq32,
    "study-aux-lshape-d2": study_aux_lshape_d2,
    "constants-d2-aniso": constants_d2_aniso,
}


def make_inputs(workload: str, seed: int, tiny: bool) -> Inputs:
    """The same (workload, seed) gives the same values at either size;
    only the mesh size and level count differ."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), tiny)
