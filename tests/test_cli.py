import json

import numpy as np
import pytest

from maxwelldg.analysis import ConvergenceReport
from maxwelldg.cli import (
    CONSTANT_COLUMNS,
    ConfigError,
    load_config,
    main,
    mesh_family,
    resolve_penalties,
)
from maxwelldg.mesh import Mesh, unit_square, write_mesh


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

    def test_output_file(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "zero", "mesh": "square:2",
                                       "output": str(tmp_path / "out" / "run")})
        code = main(["solve", "--config", path])
        stdout = capsys.readouterr().out
        assert code == 0
        written = (tmp_path / "out" / "run.json").read_text()
        assert written == stdout


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

    def test_dense_guard_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mesh": "square:24", "levels": 1})
        code = main(["constants", "--config", path])
        err = capsys.readouterr().err
        assert code == 1
        assert "guard" in err


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
    ])
    def test_invalid_values_exit_two(self, tmp_path, capsys, text, message):
        path = tmp_path / "run.json"
        path.write_text(text)
        code = main(["solve", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines()[-1].startswith("error:")
        assert message in err
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
    ], ids=["nan-vertex", "hanging-node"])
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

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])
