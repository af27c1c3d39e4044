"""Smoke test of the benchmark on tiny inputs (square:2, one level).

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

# every workload run.py knows, also those BENCHMARK.json leaves out
WORKLOADS = sorted(workloads.WORKLOADS)


def run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return json.loads(lines[-3]), result["metrics"]


def assert_named(metrics: dict, spec: list):
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, entry in metrics.items():
        assert math.isfinite(entry["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    record, metrics = result_of(run(workload, 0))
    assert_named(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())
    assert record["fail_ratio"] == 0.0
    # one probe before the first op and one after each op
    assert len(record["probe_s_samples"]) == len(record["op_s_samples"]) + 1
    assert all(p > 0 for p in record["probe_s_samples"])
    assert record["inputs_sha256"] == workloads.make_inputs(
        workload, 3, tiny=True).sha256()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_cover_the_op(workload):
    _, metrics = result_of(run(workload, 1))
    assert_named(metrics, SPEC["per_layer"])
    self_sum = sum(metrics[name]["value"] for name in tracer.TIME_METRICS)
    untraced = metrics["trace.op_s"]["value"] - metrics["trace.overhead_s"]["value"]
    # means of a few tiny ops: allow their run-to-run noise
    assert abs(self_sum - untraced) <= 0.25 * untraced + 0.005
    assert all(metrics[name]["value"] > 0
               for name in ("cli.self_s", "mesh.build_s", "spaces.init_s",
                            "lifting.init_s", "assembly.b_s", "mesh.faces",
                            "spaces.dofs"))


def test_same_seed_same_inputs():
    for workload in WORKLOADS:
        first = workloads.make_inputs(workload, 11, tiny=False)
        again = workloads.make_inputs(workload, 11, tiny=False)
        other = workloads.make_inputs(workload, 12, tiny=False)
        assert first.files == again.files
        assert first.sha256() == again.sha256() != other.sha256()
        assert all(name.endswith((".json", ".txt")) for name in first.files)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
