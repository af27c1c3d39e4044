"""Per-layer spans around the public callables of ``maxwelldg``.

The tracer patches the package from outside: no source module knows it
exists.  ``install`` wraps every callable of ``LAYERS`` and ``uninstall``
puts the originals back, so traced and untraced ops can alternate in one
process.  Functions are replaced at every binding site (a module that did
``from .solver import solve_mixed`` holds its own reference), methods on
their class, and ``cached_property`` operators through their getter, so
the span of an operator's first access is its build time.

Each wrapped call records a span (op, parent span, metric, start, end) in
memory.  A metric's self time is the summed duration of its spans minus
the part covered by their child spans; the self times of one op add up to
the duration of its ``cli.main`` span.  Callables a later version of the
package no longer has are skipped and listed in ``missing``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

_ASM = "maxwelldg.assembly.Discretization"
_LIFT = "maxwelldg.lifting.Lifting"
_SP = "maxwelldg.spaces.Spaces"

# metric -> owner -> names; an owner is a module (functions) or a class
# (methods and cached properties).  "*" stands for every cached property
# of the class not named elsewhere.
LAYERS = {
    "mesh.build_s": {"maxwelldg.mesh": ["unit_square", "lshape", "read_mesh",
                                        "refine_uniform"]},
    "spaces.init_s": {_SP: ["__init__"]},
    "spaces.conforming_s": {_SP: ["conforming_q_basis", "conforming_v_basis",
                                  "gradient_map", "v_dof_inverses"]},
    "lifting.init_s": {_LIFT: ["__init__"]},
    "lifting.jump_s": {_ASM: ["jump_t", "jump_n"]},
    "lifting.pair_s": {_LIFT: ["curl_pair", "vector_value_pair"]},
    "lifting.gram_s": {_LIFT: ["block_diag_scalar", "block_diag_vector",
                               "face_grams_scalar", "face_grams_vector",
                               "stability_constants"]},
    "assembly.init_s": {_ASM: ["__init__"]},
    "assembly.b_s": {_ASM: ["b_matrix"]},
    "assembly.forms_s": {_ASM: ["*", "mass_v", "assemble_a"]},
    "assembly.system_s": {_ASM: ["primal_system", "auxiliary_system"]},
    "assembly.load_s": {_ASM: ["load_volume", "load_boundary"],
                        _LIFT: ["tangential_boundary_data"],
                        "maxwelldg.problems": ["gradient_null_data"]},
    "solver.factorize_s": {"maxwelldg.solver": ["factorize"]},
    "solver.check_s": {"maxwelldg.solver": ["solve_mixed", "solve_auxiliary"]},
    "analysis.error_s": {"maxwelldg.analysis": ["error_norms"]},
    "analysis.margin_s": {"maxwelldg.analysis": ["coercivity_margin"]},
    "analysis.eig_s": {"maxwelldg.analysis": [
        "friedrichs_constant", "infsup_constant_B", "kernel_ellipticity",
        "indefinite_infsup"]},
    "analysis.sweep_self_s": {"maxwelldg.analysis": ["constants_sweep"]},
    "analysis.study_self_s": {"maxwelldg.analysis": ["setup_problem",
                                                      "convergence_study"]},
    "cli.self_s": {"maxwelldg.cli": ["main"]},
}
# lu.solve is a method of a compiled type; factorize hands out a proxy
SOLVE_METRIC = "solver.solve_s"
TIME_METRICS = list(LAYERS) + [SOLVE_METRIC]

# count metric -> (time metric whose calls it counts, value of one call)
COUNTS = {
    "mesh.faces": ("mesh.build_s", lambda args, out: out.num_faces),
    "spaces.dofs": ("spaces.init_s",
                    lambda args, out: args[0].dim_V + args[0].dim_Q),
    "assembly.system_nnz": ("assembly.system_s", lambda args, out: out.nnz),
    "solver.lu_nnz": ("solver.factorize_s",
                      lambda args, out: out[0].L.nnz + out[0].U.nnz),
}
COUNT_METRICS = list(COUNTS)


@dataclass
class Span:
    op: int
    parent: int            # index into Tracer.spans, -1 at the root
    metric: str
    start: float
    end: float


class _TracedLU:
    """Stands in for a SuperLU factor so that its solves are spans."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _resolve(owner: str):
    """The module or class a dotted path names; None if it is gone."""
    try:
        return importlib.import_module(owner)
    except ImportError:
        module, _, name = owner.rpartition(".")
        try:
            return getattr(importlib.import_module(module), name, None)
        except ImportError:
            return None


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts = defaultdict(lambda: defaultdict(int))   # op -> name -> n
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    # ------------------------------------------------------------------
    # recording

    def wrap(self, metric: str, fn):
        count = [(name, value) for name, (src, value) in COUNTS.items()
                 if src == metric]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = Span(self.op, parent, metric, start, end)
            for name, value in count:
                self.counts[self.op][name] += value(args, out)
            if metric == "solver.factorize_s":
                out = (_TracedLU(out[0], self.wrap(SOLVE_METRIC, out[0].solve)),
                       *out[1:])
            return out

        return traced

    def self_times(self, op: int) -> dict:
        """Self time of every metric in one op."""
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for span in self.spans:
            if span is None or span.op != op:
                continue
            dur = span.end - span.start
            out[span.metric] += dur
            if span.parent >= 0:
                out[self.spans[span.parent].metric] -= dur
        return out

    def op_counts(self, op: int) -> dict:
        return {name: self.counts[op][name] for name in COUNT_METRICS}

    # ------------------------------------------------------------------
    # patching

    def _set(self, obj, name, value):
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def install(self):
        """Wrap every traced callable; ``uninstall`` undoes it."""
        named = {(owner, name) for layer in LAYERS.values()
                 for owner, names in layer.items() for name in names}
        modules = [m for key, m in list(sys.modules.items())
                   if key == "maxwelldg" or key.startswith("maxwelldg.")]
        self.missing = []
        for metric, layer in LAYERS.items():
            for owner, names in layer.items():
                target = _resolve(owner)
                if target is None:
                    self.missing.append(owner)
                    continue
                if "*" in names:
                    names = [n for n, v in vars(target).items()
                             if isinstance(v, cached_property)
                             and (owner, n) not in named] + names
                for name in names:
                    if name == "*":
                        continue
                    orig = vars(target).get(name)
                    if orig is None:
                        self.missing.append(f"{owner}.{name}")
                    elif isinstance(orig, cached_property):
                        self._set(orig, "func", self.wrap(metric, orig.func))
                    elif isinstance(target, type):
                        self._set(target, name, self.wrap(metric, orig))
                    else:
                        wrapped = self.wrap(metric, orig)
                        for mod in modules:
                            for attr, value in list(vars(mod).items()):
                                if value is orig:
                                    self._set(mod, attr, wrapped)

    def uninstall(self):
        while self._undo:
            obj, name, value = self._undo.pop()
            setattr(obj, name, value)
