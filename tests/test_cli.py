import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse

from maxwelldg import analysis, cli, solver
from maxwelldg.analysis import ConvergenceReport
from maxwelldg.cli import (
    CONSTANT_COLUMNS,
    ConfigError,
    load_config,
    main,
    mesh_family,
    resolve_penalties,
)
from maxwelldg.assembly import Discretization
from maxwelldg.mesh import Mesh, lshape, unit_square, write_mesh
from maxwelldg.solver import BACKWARD_TOL, COND_MAX
from maxwelldg.spaces import Spaces, conforming_columns

from conftest import holed_square


# 1 followed by this: an integer beyond the float range
BIG = "0" * 400


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoadConfig:
    def test_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {}), command="solve")
        assert cfg.problem == "sine"
        assert cfg.degree == 1
        assert cfg.levels == 3
        assert cfg.ksq == 1.0
        assert cfg.alpha == 6.5
        assert cfg.gamma == 0.5
        assert cfg.mesh == "square:4"
        assert cfg.formulation == "primal"
        assert cfg.output is None

    def test_k_is_squared(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"k": 2.0}), command="solve")
        assert cfg.ksq == 4.0

    def test_cli_overrides_beat_config(self, tmp_path):
        path = write_config(tmp_path, {"levels": 2, "degree": 1,
                                       "output": "from_config"})
        cfg = load_config(path, command="study", levels=4, degree=2,
                          output="from_cli")
        assert cfg.levels == 4
        assert cfg.degree == 2
        assert cfg.output == "from_cli"

    def test_unknown_keys(self, tmp_path):
        path = write_config(tmp_path, {"mesh_size": 4})
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(path, command="solve")

    def test_command_mismatch(self, tmp_path):
        path = write_config(tmp_path, {"command": "study"})
        with pytest.raises(ConfigError, match="config is for command"):
            load_config(path, command="solve")

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "degree": 1,\n}\n')
        with pytest.raises(ConfigError, match="line 3 column"):
            load_config(str(path), command="solve")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "absent.json"), command="solve")

    @pytest.mark.parametrize("payload,match", [
        ({"degree": 3}, "degree must be 1 or 2"),
        ({"levels": 0}, "levels must be a positive"),
        ({"problem": "plane_wave"}, "unknown problem"),
        ({"formulation": "dual"}, "formulation must be"),
        ({"k": "one"}, "k must be a number"),
        ({"alpha": "big"}, "alpha must be 'auto' or a number"),
        ({"mesh": 4}, "mesh must be a string"),
        ({"gamma": float("inf")}, "gamma must be finite"),
        ({"degree": True}, "degree must be 1 or 2"),
        ({"levels": True}, "levels must be a positive"),
        ({"k": True}, "k must be a number"),
        ({"alpha": True}, "alpha must be 'auto' or a number"),
        ({"gamma": False}, "gamma must be 'auto' or a number"),
        pytest.param({"gamma": 0.0}, "penalty weights must be positive",
                     marks=pytest.mark.filterwarnings("ignore::UserWarning")),
    ])
    def test_field_validation(self, tmp_path, payload, match):
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match=match):
            load_config(path, command="solve")

    def test_low_alpha_warns(self, tmp_path):
        path = write_config(tmp_path, {"alpha": 2.0})
        with pytest.warns(UserWarning, match=r"below 1/2 \+ 2n_K = 6.5; "
                                             "coercivity"):
            cfg = load_config(path, command="solve")
        assert cfg.alpha == 2.0

    def test_low_gamma_warns(self, tmp_path):
        path = write_config(tmp_path, {"gamma": 0.1})
        with pytest.warns(UserWarning, match="below the threshold 0.5; "
                                             "well-posedness"):
            cfg = load_config(path, command="solve")
        assert cfg.gamma == 0.1

    def test_coefficient_table(self, tmp_path):
        path = write_config(tmp_path, {"coefficients": {
            "0": {"mu": 2.0, "eps": [[2.0, 0.5], [0.5, 3.0]]},
            "1": {"eps": 4.0}}})
        cfg = load_config(path, command="solve")
        mats = cfg.coeffs.expand(unit_square(2))
        assert mats.eps[0][0, 1] == 0.5
        assert mats.mu[0][0, 0] == 2.0

    @pytest.mark.parametrize("table,match", [
        ({"iron": {"mu": 1.0}}, "not an integer"),
        ({"0": {"mu": 1.0, "rho": 2.0}}, "must hold 'mu' and/or 'eps'"),
        ({"0": {"eps": [[1.0, 0.0]]}}, "2x2 matrix"),
        ([1.0, 2.0], "must map material tags"),
        ({"0": {"mu": float("-inf")}}, "must be finite"),
        ({"0": {"eps": [[1.0, float("nan")], [float("nan"), 1.0]]}},
         "must be finite"),
        ({"0": {"eps": [[1.0, 0.5], [0.0, 1.0]]}}, "must be symmetric"),
        ({"0": {"mu": True}}, "2x2 matrix"),
        ({"0": {"eps": [[True, 0.0], [0.0, 1.0]]}}, "2x2 matrix"),
        ({"0": {"eps": [[1.0, "0"], ["0", 1.0]]}}, "2x2 matrix"),
        # keys that parse to one tag are refused, naming both
        ({"0": {"mu": 2.0}, "-0": {"mu": 3.0}},
         "material tags '0' and '-0' both name tag 0"),
        ({"1": {}, "0": {}, "01": {}}, "material tags '1' and '01' both name tag 1"),
        ({"+0": {}, "00": {}}, "material tags '\\+0' and '00' both name tag 0"),
    ])
    def test_coefficient_validation(self, tmp_path, table, match):
        path = write_config(tmp_path, {"coefficients": table})
        with pytest.raises(ConfigError, match=match):
            load_config(path, command="solve")


class TestResolvePenalties:
    def test_auto_defaults(self):
        assert resolve_penalties("auto", "auto") == (6.5, 0.5)

    def test_low_alpha_warns(self):
        with pytest.warns(UserWarning, match=r"below 1/2 \+ 2n_K = 6.5; "
                                             "coercivity"):
            alpha, gamma = resolve_penalties(2.0, "auto")
        assert (alpha, gamma) == (2.0, 0.5)


class TestMeshFamily:
    def test_square_spec_doubles(self):
        factory = mesh_family("square:2")
        assert factory(0).num_elements == 8
        assert factory(1).num_elements == 32

    def test_lshape_spec(self):
        factory = mesh_family("lshape:2")
        assert factory(0).num_elements == 6 * 4

    def test_file_path_refines(self, tmp_path):
        path = tmp_path / "coarse.mesh"
        path.write_text(write_mesh(unit_square(2)))
        factory = mesh_family(str(path))
        assert factory(0).num_elements == 8
        assert factory(1).num_elements == 32
        assert factory(2).num_elements == 128

    @pytest.mark.parametrize("spec", ["square:x", "square:0", "lshape:-1"])
    def test_bad_spec(self, spec):
        with pytest.raises(ConfigError):
            mesh_family(spec)

    def test_missing_mesh_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read mesh"):
            mesh_family(str(tmp_path / "absent.mesh"))

    def test_bad_mesh_file(self, tmp_path):
        path = tmp_path / "broken.mesh"
        path.write_text("nodes two\n")
        with pytest.raises(ConfigError, match="bad mesh file"):
            mesh_family(str(path))


class TestSolveCommand:
    def test_zero_problem(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "zero", "mesh": "square:2"})
        code = main(["solve", "--config", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["norm_u"] == 0.0
        assert out["norm_p"] == 0.0
        assert out["dofs_u"] == 8 * 3

    def test_gradient_problem(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "gradient",
                                       "mesh": "square:2"})
        code = main(["solve", "--config", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["norm_u"] < 1e-9 * out["gradient_norm_q"]

    def test_sine_reports_errors(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "sine", "mesh": "square:2"})
        code = main(["solve", "--config", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert 0 < out["e_v"] < 2.0
        assert out["residual"] <= 1e-10
        assert out["constraint_residual"] <= 1e-10

    def test_reports_factor(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "sine", "mesh": "square:2"})
        code = main(["solve", "--config", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert 1.0 <= out["cond_estimate"] < COND_MAX
        assert out["factor"]["pivoting"] == "symmetric"
        assert out["factor"]["ordering"] == "nested_dissection"
        assert out["factor"]["lu_nnz"] > 0
        assert "pivot_ratio" not in out
        for formulation in ("primal", "auxiliary"):
            path = write_config(tmp_path, {"problem": "sine", "degree": 2,
                                           "mesh": "square:2",
                                           "formulation": formulation})
            code = main(["solve", "--config", path])
            text = capsys.readouterr().out
            out = json.loads(text)
            assert code == 0
            assert (out["factor"]["ordering"], out["factor"]["pivoting"]) == (
                "nested_dissection", "symmetric")
            # the same run prints the same bytes
            main(["solve", "--config", path])
            assert capsys.readouterr().out == text

    def test_reports_backward_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "sine", "mesh": "square:2"})
        code = main(["solve", "--config", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert np.isfinite(out["backward_error"])
        assert 0.0 <= out["backward_error"] <= 1e-14

    def test_constraint_gap_of_a_large_eps(self, tmp_path, capsys):
        # the squares of the entries of B and C overflow at eps = 1e155;
        # the gap read 0.0 then, a value never measured, and passed
        path = write_config(tmp_path, {"problem": "sine", "mesh": "square:2",
                                       "coefficients": {"0": {"eps": 1e155}}})
        code = main(["solve", "--config", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert 0.0 < out["constraint_residual"] <= cli.CONSTRAINT_TOL

    def test_solve_loads_no_superlu(self, tmp_path):
        """SuperLU's module is imported on the fallback only, and a solve
        that keeps the multifrontal factor or a study runs on numpy alone:
        in a fresh interpreter no scipy module is loaded after the import,
        solves of both formulations at both degrees, a degree-2 gradient
        solve on a mesh file with full-tensor materials, or a degree-2
        study; the constants probes then do load it."""
        base = unit_square(3)
        mesh = tmp_path / "tags.mesh"
        mesh.write_text(write_mesh(Mesh(base.vertices, base.elements,
                                        np.arange(base.num_elements) % 2)))
        tensors = {"0": {"eps": [[2.0, 0.5], [0.5, 1.0]], "mu": 1.5},
                   "1": {"eps": 1.0, "mu": [[1.0, -0.3], [-0.3, 3.0]]}}
        runs = [("solve", {"problem": "sine", "mesh": "square:4",
                           "degree": degree, "formulation": formulation})
                for degree in (1, 2) for formulation in ("primal", "auxiliary")]
        runs += [("solve", {"problem": "gradient", "degree": 2,
                            "mesh": str(mesh), "coefficients": tensors}),
                 ("study", {"problem": "lshape", "mesh": "lshape:1",
                            "degree": 2, "levels": 2}),
                 ("constants", {"mesh": "square:2", "levels": 1})]
        args = [arg for i, (command, payload) in enumerate(runs)
                for arg in (command, write_config(tmp_path, payload,
                                                  f"{i}.json"))]
        script = (
            "import contextlib, io, json, sys\n"
            "def scipy():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.partition('.')[0] == 'scipy')\n"
            "import maxwelldg.cli\n"
            "assert not scipy(), scipy()\n"
            "for command, path in zip(sys.argv[1::2], sys.argv[2::2]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        assert maxwelldg.cli.main([command, '--config', path]) == 0\n"
            "    if command == 'solve':\n"
            "        factor = json.loads(out.getvalue())['factor']\n"
            "        assert factor['pivoting'] == 'symmetric', factor\n"
            "    assert bool(scipy()) == (command == 'constants'), (path, scipy())\n")
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script, *args],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr

    def test_commands_load_no_scipy_special(self, tmp_path):
        """The Gauss rules and the face modes come from numpy: in a fresh
        interpreter, neither the import nor a solve, a study or a constants
        run loads scipy.special."""
        runs = [("solve", {"problem": "sine", "mesh": "square:2"}),
                ("study", {"problem": "sine", "mesh": "square:2", "levels": 2}),
                ("constants", {"mesh": "square:2", "levels": 2})]
        args = [arg for command, payload in runs
                for arg in (command, write_config(tmp_path, payload,
                                                  f"{command}.json"))]
        script = (
            "import contextlib, io, sys\n"
            "import maxwelldg.cli\n"
            "if 'scipy.special' in sys.modules:\n"
            "    sys.exit('import maxwelldg.cli loaded scipy.special')\n"
            "for command, path in zip(sys.argv[1::2], sys.argv[2::2]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        status = maxwelldg.cli.main([command, '--config', path])\n"
            "    loaded = 'scipy.special' in sys.modules\n"
            "    if status or loaded:\n"
            "        sys.exit(f'{command}: exit {status}, scipy.special '\n"
            "                 f'loaded: {loaded}')\n")
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script, *args],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr

    def test_output_file(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "zero", "mesh": "square:2",
                                       "output": str(tmp_path / "out" / "run")})
        code = main(["solve", "--config", path])
        stdout = capsys.readouterr().out
        assert code == 0
        written = (tmp_path / "out" / "run.json").read_text()
        assert written == stdout


class TestExitGate:
    """solve and study exit 0 on the backward error of the refined solve
    and the constraint gap, not on the residual relative to the load,
    which grows with the condition number under refinement."""

    @pytest.fixture
    def doctor(self, monkeypatch):
        """Overrides fields of every primal solve's `Solution`."""
        def apply(**fields):
            real = solver.solve_mixed
            for module in (cli, analysis):
                monkeypatch.setattr(module, "solve_mixed", lambda *args: (
                    dataclasses.replace(real(*args), **fields)))
        return apply

    @pytest.mark.parametrize("command", ["solve", "study"])
    @pytest.mark.parametrize("fields, code", [
        ({"residual": 1e-8}, 0),
        ({"backward_error": BACKWARD_TOL}, 0),
        ({"backward_error": 2.0 * BACKWARD_TOL}, 1),
        ({"constraint_gap": 1e-9}, 1),
    ])
    def test_gate(self, tmp_path, capsys, doctor, command, fields, code):
        doctor(**fields)
        path = write_config(tmp_path, {"problem": "sine", "mesh": "square:2",
                                       "levels": 1})
        assert main([command, "--config", path]) == code
        err = capsys.readouterr().err.splitlines()
        if code == 0:
            assert err == []
            return
        # one line names the failed gate, its value and its bound
        (field, value), = fields.items()
        name, bound = {"backward_error": ("backward error", BACKWARD_TOL),
                       "constraint_gap": ("constraint gap",
                                          cli.CONSTRAINT_TOL)}[field]
        level = "level 0: " if command == "study" else ""
        assert err == [f"error: {level}{name} {value:.3e} exceeds its bound "
                       f"{bound:.3e}"]

    def test_perturbed_solution_fails(self, tmp_path, capsys, monkeypatch):
        """A solution off by 1e-13 relative passes the residual bound of
        1e-10 but not the backward error bound."""
        real = solver.factorize

        def perturbed(system, *args):
            lu, factor, x, _ = real(system, *args)
            noise = np.random.default_rng(1).standard_normal(x.size)
            x = x + 1e-13 * np.abs(x).max() * noise
            return lu, factor, x, system @ x
        monkeypatch.setattr(solver, "factorize", perturbed)
        path = write_config(tmp_path, {"problem": "sine", "mesh": "square:4"})
        assert main(["solve", "--config", path]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["residual"] <= 1e-10
        assert out["backward_error"] > BACKWARD_TOL


class TestFormulationKey:
    """Eliminating the auxiliary formulation's face multiplier leaves the
    primal system, so both values of the key run the same solve: the
    key is echoed, and nothing else in the output changes."""

    def test_solve_json_differs_only_in_the_key(self, tmp_path, capsys):
        outs = {}
        for formulation in ("primal", "auxiliary"):
            path = write_config(tmp_path, {"problem": "sine", "degree": 2,
                                           "mesh": "square:2",
                                           "formulation": formulation})
            assert main(["solve", "--config", path]) == 0
            outs[formulation] = json.loads(capsys.readouterr().out)
            assert outs[formulation].pop("formulation") == formulation
        assert outs["auxiliary"] == outs["primal"]

    def test_study_csv_is_byte_identical(self, tmp_path, capsys):
        texts = []
        for formulation in ("primal", "auxiliary"):
            path = write_config(tmp_path, {"problem": "lshape",
                                           "mesh": "lshape:1", "levels": 2,
                                           "formulation": formulation})
            assert main(["study", "--config", path]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]


class TestSolveAllocations:
    """A solve or a study builds its forms, its load, its norms, its error
    norms and its sampled coercivity margin from the per-element and
    per-face blocks, and every sparse operator it reads is a `bsr_array`
    of them: no conversion between sparse formats."""

    SPARSE = (sparse.bsr_array, sparse.bsr_matrix, sparse.csr_array,
              sparse.csr_matrix, sparse.csc_array, sparse.csc_matrix,
              sparse.coo_array, sparse.coo_matrix)

    @pytest.mark.parametrize("command, problem, mesh, degree", [
        pytest.param(command, problem, mesh, degree, id=f"{id}{degree}")
        for command, problem, mesh, id in [
            ("solve", "sine", "square:4", "sine-"),
            ("solve", "gradient", "square:4", "gradient-"),
            ("study", "sine", "square:2", "study-sine-"),
            ("study", "lshape", "lshape:1", "study-lshape-")]
        for degree in (1, 2)])
    def test_builds_no_sparse_copies(self, tmp_path, capsys, monkeypatch,
                                     command, problem, mesh, degree):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper
        for cls in self.SPARSE:
            for name in ("tocsr", "tocsc", "tobsr", "tocoo"):
                monkeypatch.setattr(cls, name, counted(
                    f"{cls.__name__}.{name}", getattr(cls, name)))
        path = write_config(tmp_path, {"problem": problem, "mesh": mesh,
                                       "degree": degree, "levels": 2})
        assert main([command, "--config", path]) == 0
        out = capsys.readouterr().out
        if command == "solve":
            assert "norm_u" in json.loads(out)
        else:
            assert out.startswith(",".join(ConvergenceReport.CSV_COLUMNS))
        assert calls == []


class TestStudyCommand:
    def test_csv_to_stdout(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "sine", "mesh": "square:2",
                                       "levels": 2})
        code = main(["study", "--config", path])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(ConvergenceReport.CSV_COLUMNS)
        assert len(lines) == 3

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "sine", "mesh": "square:2",
                                       "levels": 2})
        main(["study", "--config", path])
        first = capsys.readouterr().out
        main(["study", "--config", path])
        second = capsys.readouterr().out
        assert first == second

    def test_output_prefix_writes_three_files(self, tmp_path, capsys):
        prefix = tmp_path / "results" / "sweep"
        path = write_config(tmp_path, {"problem": "sine", "mesh": "square:2",
                                       "levels": 2, "output": str(prefix)})
        code = main(["study", "--config", path])
        capsys.readouterr()
        assert code == 0
        csv_text = (tmp_path / "results" / "sweep.csv").read_text()
        assert csv_text.startswith(",".join(ConvergenceReport.CSV_COLUMNS))
        md_text = (tmp_path / "results" / "sweep.md").read_text()
        assert "| level | h |" in md_text
        diag = json.loads((tmp_path / "results" / "sweep.json").read_text())
        assert diag["problem"] == "sine"
        assert len(diag["levels"]) == 2
        assert {level["ordering"] for level in diag["levels"]} == {
            "nested_dissection"}
        assert all(np.isfinite(level["backward_error"])
                   for level in diag["levels"])
        assert "r2" not in diag["levels"][0]

    def test_levels_override(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "sine", "mesh": "square:2",
                                       "levels": 3})
        code = main(["study", "--config", path, "--levels", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.strip().split("\n")) == 2

    def test_rejects_problem_without_exact_solution(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "zero"})
        code = main(["study", "--config", path])
        err = capsys.readouterr().err
        assert code == 2
        assert "exact solution" in err


class TestConstantsCommand:
    def test_csv_schema(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mesh": "square:2", "levels": 2})
        code = main(["constants", "--config", path])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(CONSTANT_COLUMNS)
        assert len(lines) == 3
        first = dict(zip(CONSTANT_COLUMNS, lines[1].split(",")))
        assert float(first["kernel_ellipticity"]) == pytest.approx(0.5,
                                                                   rel=1e-6)

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mesh": "square:2", "levels": 2})
        assert main(["constants", "--config", path]) == 0
        first = capsys.readouterr().out
        assert main(["constants", "--config", path]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_dense_guard_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mesh": "square:24", "levels": 1})
        code = main(["constants", "--config", path])
        err = capsys.readouterr().err
        assert code == 1
        assert "guard" in err

    def test_hole_exits_one(self, tmp_path, capsys):
        # the harmonic field of a hole has zero seminorm: the Friedrichs
        # probe refuses the mesh by name instead of reading it as a number
        (tmp_path / "hole.txt").write_text(write_mesh(holed_square()))
        path = write_config(tmp_path, {"mesh": str(tmp_path / "hole.txt"),
                                       "levels": 1})
        code = main(["constants", "--config", path])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "hole" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestExitCodes:
    def test_config_error_is_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {"degree": 7})
        code = main(["solve", "--config", path])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")

    def test_parse_error_is_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json}")
        code = main(["solve", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config parse error at line 1 column" in err

    @pytest.mark.parametrize("text,message", [
        ('{"k": NaN}', "k must be finite"),
        ('{"alpha": Infinity}', "alpha must be finite"),
        ('{"coefficients": {"0": {"mu": -1}}}', "positive definite"),
        pytest.param('{"alpha": -1}', "penalty weights must be positive",
                     marks=pytest.mark.filterwarnings("ignore::UserWarning")),
        ('{"degree": true}', "degree must be 1 or 2, got True"),
        # integers too large for a float
        pytest.param('{"k": 1%s}' % BIG, "k must be finite", id="k-big-int"),
        pytest.param('{"alpha": 1%s}' % BIG, "alpha must be finite",
                     id="alpha-big-int"),
        pytest.param('{"coefficients": {"0": {"mu": 1%s}}}' % BIG,
                     "mu[0] must be finite", id="mu-big-int"),
        pytest.param('{"coefficients": {"0": {"eps": [[1, 1%s], [0, 1]]}}}'
                     % BIG, "eps[0] must be finite", id="tensor-big-int"),
        # past the digit limit of Python's int parsing
        pytest.param('{"k": 1%s}' % ("0" * 5000), "config parse error",
                     id="k-digit-limit"),
        # a finite k whose square overflows
        pytest.param('{"k": 1e200}', "k squared must be finite",
                     id="k-square-overflow"),
        # a mu whose curl weight 1/sqrt(det mu) underflows to 0, which
        # dropped the curl terms, or overflows, which failed the factor as
        # if at a resonance
        *(pytest.param(
            '{"problem": "sine", "mesh": "square:2", '
            '"coefficients": {"0": {"mu": %s}}}' % mu,
            "coefficients: mu of tag 0", id=f"mu-{mu}",
            marks=pytest.mark.filterwarnings("error::RuntimeWarning"))
          for mu in ("1e200", "1e-200")),
        pytest.param('[1, 2]', "config must be a JSON object", id="not-an-object"),
        # an output prefix that is not a string wrote "5.json" or
        # "True.json"
        *(pytest.param('{"problem": "zero", "mesh": "square:2", "output": %s}'
                       % value, f"output must be a string prefix, got {shown}",
                       id=f"output-{value}")
          for value, shown in (("5", "5"), ("true", "True"),
                               ('{"a": 1}', "{'a': 1}"))),
        pytest.param('{"problem": "zero", "mesh": "square:2", '
                     '"coefficients": {"0": {"mu": 2}, "-0": {"mu": 3}}}',
                     "material tags '0' and '-0' both name tag 0",
                     id="one-tag-twice"),
        # a NUL in the prefix failed the write after the whole solve
        pytest.param('{"problem": "zero", "mesh": "square:2", '
                     '"output": "res\\u0000x"}',
                     "output prefix must not hold a NUL character",
                     id="output-nul"),
        # a NUL in the mesh path was an exit 1 after the config was read
        pytest.param('{"problem": "zero", "mesh": "a\\u0000b"}',
                     "cannot read mesh 'a\\x00b': embedded null byte",
                     id="mesh-nul"),
        # json keeps the last of a repeated key: k = 5 was solved
        pytest.param('{"problem": "sine", "mesh": "square:2", "k": 1, "k": 5}',
                     "config key 'k' is given twice", id="key-twice"),
        pytest.param('{"problem": "zero", "mesh": "square:2", '
                     '"coefficients": {"0": {"mu": 2, "mu": 3}}}',
                     "config key 'mu' is given twice",
                     id="coefficient-key-twice"),
        pytest.param('{"problem": "zero", "mesh": "square:2", '
                     '"coefficients": {"0": {"mu": 2}, "0": {"eps": 3}}}',
                     "config key '0' is given twice", id="tag-key-twice"),
    ])
    def test_invalid_values_exit_two(self, tmp_path, capsys, monkeypatch,
                                     text, message):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.json"
        path.write_text(text)
        code = main(["solve", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines()[-1].startswith("error:")
        assert message in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["run.json"]

    @pytest.mark.parametrize("name", ["run.json", "bad.mesh"])
    def test_undecodable_file_exits_two(self, tmp_path, capsys, name):
        # bytes that are not UTF-8 in the config or in a mesh file
        (tmp_path / "bad.mesh").write_bytes(b"nodes 3\n\xff\n")
        path = tmp_path / "run.json"
        if name == "run.json":
            path.write_bytes(b'{"problem": "\xff"}')
        else:
            path.write_text(json.dumps({"problem": "zero",
                                        "mesh": str(tmp_path / name)}))
        code = main(["solve", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot read")
        assert "codec can't decode" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,problem", [
        ("solve", "zero"), ("study", "sine"), ("constants", "sine")])
    def test_missing_material_tag_exits_two(self, tmp_path, capsys, command,
                                            problem):
        base = unit_square(2)
        mesh_path = tmp_path / "two_tags.mesh"
        mesh_path.write_text(write_mesh(
            Mesh(base.vertices, base.elements, np.arange(8) % 2)))
        path = write_config(tmp_path, {
            "problem": problem, "mesh": str(mesh_path), "levels": 1,
            "coefficients": {"0": {"mu": 2.0}}})
        code = main([command, "--config", path])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines()[-1] == (
            "error: coefficients have no entry for mesh tags [1]")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text,message", [
        ("nodes 3\n0 0\nnan 0\n0 1\nelements 1\n0 1 2\n",
         "vertex coordinates must be finite"),
        ("nodes 5\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n"
         "elements 3\n0 1 2\n0 4 3\n4 2 3\n", "hanging node"),
        ("nodes 5\n0 0\n1 0\n0.5 1\n0.5 -1\n0.5 2\n"
         "elements 3\n0 1 2\n0 1 3\n0 1 4\n",
         "face shared by more than two elements"),
        ("nodes 100000000000000\n0 0\n1 0\n0 1\nelements 1\n0 1 2\n",
         "100000000000000 node lines declared"),
        ("nodes 3\n0 0\n1 0\n0 1\nelements 100000000000000\n0 1 2\n",
         "100000000000000 element lines declared"),
        ("nodes 5\n0 0\n1 0\n1 1\n0 1\n0.4 0.3\n"
         "elements 2\n0 1 2\n0 2 3\n", "vertex 4 belongs to no element"),
        ("nodes 3\n0 0\n1 0\n0 1\nelements 1\n0 1 99999999999999999999999\n",
         "integer out of range on element line 0"),
        ("nodes 3\n0 0\n1 0\n0 1\nelements 1\n0 1 2 99999999999999999999999\n",
         "integer out of range on element line 0"),
        ("nodes 3\n0 0\n1 0\n0 1\nelements 2\n0 1 2\n0 1 2\n",
         "elements 0 and 1 overlap"),
        ("nodes 4\n0 0\n1 0\n0 1\n1 1\nelements 3\n0 1 2\n1 3 2\n0 1 3\n",
         "elements 0 and 2 overlap"),
    ], ids=["nan-vertex", "hanging-node", "three-elements-on-a-face",
            "huge-node-count", "huge-element-count", "unused-vertex",
            "index-past-int64", "tag-past-int64", "repeated-element",
            "folded-mesh"])
    def test_bad_mesh_exits_two(self, tmp_path, capsys, text, message):
        mesh_path = tmp_path / "bad.mesh"
        mesh_path.write_text(text)
        path = write_config(tmp_path, {"problem": "zero",
                                       "mesh": str(mesh_path)})
        code = main(["solve", "--config", path])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: bad mesh file")
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("degree, status", [(1, 2), (2, 0)])
    def test_gradient_needs_an_interior_node(self, tmp_path, capsys,
                                             monkeypatch, degree, status):
        # square:1 has no interior vertex and one interior face, so only
        # degree 2 has a conforming node; degree 1 is refused before the
        # discretization is built
        built = []

        def recorded(*args, **kwargs):
            built.append(args)
            return Discretization(*args, **kwargs)
        monkeypatch.setattr(cli, "Discretization", recorded)
        path = write_config(tmp_path, {"problem": "gradient",
                                       "mesh": "square:1", "degree": degree})
        code = main(["solve", "--config", path])
        err = capsys.readouterr().err
        assert code == status
        if status == 2:
            assert built == []
            assert err.splitlines()[-1].startswith("error:")
            assert "no interior scalar node" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("mesh", [unit_square(1), unit_square(3),
                                      lshape(1), holed_square()],
                             ids=["square1", "square3", "lshape1", "holed"])
    def test_conforming_node_count(self, mesh, degree):
        # the count the command line refuses on is the basis's: the
        # interior vertices, and at degree 2 the interior faces too
        count = conforming_columns(mesh, degree)[1]
        faces = np.count_nonzero(~mesh.boundary) if degree == 2 else 0
        assert count == (mesh.num_vertices
                         - np.unique(mesh.faces[mesh.boundary]).size + faces)
        assert count == Spaces(mesh, degree).conforming_q_basis().shape[1]

    @pytest.mark.parametrize("command", ["solve", "study"])
    def test_unwritable_output_prefix_exits_two(self, tmp_path, capsys,
                                                command):
        # the prefix's directory is a file: rejected before any numerics
        path = write_config(tmp_path, {"problem": "sine", "mesh": "square:2",
                                       "levels": 1})
        code = main([command, "--config", path, "--output", f"{path}/out"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].startswith("error: cannot write output")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, suffix, status", [
        ("solve", ".json", 2), ("study", ".csv", 2), ("study", ".md", 2),
        ("study", ".json", 2), ("constants", ".csv", 2),
        # a directory where the command writes nothing is no obstacle
        ("solve", ".csv", 0)])
    def test_output_target_that_is_a_directory(self, tmp_path, capsys,
                                               command, suffix, status):
        # refused before any numerics, with nothing written; it was an
        # IsADirectoryError traceback after the whole run
        path = write_config(tmp_path, {"problem": "sine", "mesh": "square:2",
                                       "levels": 1})
        (tmp_path / f"res{suffix}").mkdir()
        code = main([command, "--config", path,
                     "--output", str(tmp_path / "res")])
        out, err = capsys.readouterr()
        assert code == status
        if status == 2:
            assert out == ""
            assert err.splitlines()[-1] == (
                f"error: cannot write output prefix {str(tmp_path / 'res')!r}: "
                f"{tmp_path / 'res'}{suffix} is a directory")
            assert sorted(os.listdir(tmp_path)) == ["res" + suffix, "run.json"]
        else:
            assert (tmp_path / "res.json").is_file()

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])
