"""Layered benchmark of the maxwelldg solver.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload solve-d1-sq32 --seed 1 \\
        --seconds 25 --trace 0

Imports ``maxwelldg`` from the checkout's ``src``, writes the workload's
seeded inputs to a scratch directory in the checkout, and runs ops (one
in-process ``maxwelldg.cli.main`` call each, stdout captured and checked)
in a closed loop, one after another, while the next op is expected to end
within ``--seconds``; at least one op always runs.  A child process
(``probe.py``) runs a fixed reference computation before the first op and
after every op, so the ops' time can be read in reference units as well
as in seconds.  ``--trace 1`` alternates untraced and traced ops, runs no
probe and reports per-layer self times instead of the end-to-end metrics.
``--smoke`` times the tiny warm-up inputs in place of the full ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
inputs' hash, the environment and the raw op times.  See README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up (the imports in a fresh interpreter, input generation and the
# warm-up op) is repeated this often and its median reported.
SETUP_REPS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The probe runs this long before the first op, and after each op for this
# share of the op's time: short and right next to the op, it follows the
# host's slow phases while taking little time from the ops.
FIRST_PROBE_S = 0.5
PROBE_SHARE = 0.15


def single_thread_pools() -> dict:
    """Run BLAS/OpenMP on one thread; must happen before numpy is imported.

    On a small shared host a second BLAS thread made the dense probes of
    the constants workload both slower and far noisier (tiny-input ops
    0.06-0.21 s with two threads against a steady 0.045 s with one)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: 1 for var in THREAD_VARS}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc: int, threads: dict) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "nproc": nproc,
            "machine": platform.machine()}


class Runner:
    """Runs ops of one workload and keeps their times and failures."""

    def __init__(self, cli, tracer):
        self.cli = cli
        self.tracer = tracer
        self.failures: list[str] = []

    def op(self, op, workdir: Path, traced: bool = False) -> tuple:
        """Run one op in workdir; returns (seconds, ok)."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        cwd = os.getcwd()
        os.chdir(workdir)
        if traced:
            self.tracer.op += 1
            self.tracer.install()
        try:
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    rc = self.cli.main(list(op.argv))
                problems = []
            except SystemExit as exc:
                rc, problems = (0 if exc.code is None else exc.code), []
            except Exception:  # an op that raises is a failed op
                rc, problems = None, [traceback.format_exc(limit=3)]
            seconds = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
            os.chdir(cwd)
        if rc is not None:
            problems += op.check(rc, out.getvalue(), workdir)
        if problems:
            tail = err.getvalue().strip().splitlines()[-1:]
            self.failures.append("; ".join(problems + tail))
        return seconds, not problems


class Probe:
    """The reference computation of probe.py, run in a child process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def seconds(self, target: float) -> float:
        """Mean seconds of one pass, over passes that last about target."""
        self.proc.stdin.write(f"{target!r}\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def quantile_note(times: list) -> str:
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(times)
    best = None
    for p in (75, 90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return ""
    cut = statistics.quantiles(times, n=100)[best - 1]
    return f", p{best} {cut:.4f} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="time the tiny warm-up inputs instead")
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    threads = single_thread_pools()
    if not (SRC / "maxwelldg" / "__init__.py").is_file():
        print(f"error: no maxwelldg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import maxwelldg.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: maxwelldg imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracer
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0

    runner = Runner(cli, tracer.Tracer())
    probe = None
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    warm_dir, run_dir = work / "warmup", work / "run"
    try:
        setup_reps = []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import maxwelldg.cli"],
                           env={**os.environ, "PYTHONPATH": str(SRC)},
                           check=True)
            warm = workloads.make_inputs(args.workload, args.seed, tiny=True)
            full = workloads.make_inputs(args.workload, args.seed,
                                         tiny=args.smoke)
            for d, inputs in ((warm_dir, warm), (run_dir, full)):
                d.mkdir(parents=True, exist_ok=True)
                inputs.write(d)
            runner.op(warm.op, warm_dir)
            setup_reps.append(time.perf_counter() - t)
        setup_s = statistics.median(setup_reps)
        warm_ok = not runner.failures

        untraced, traced, layer_ops, probes, oks = [], [], [], [], []
        if not args.trace:
            probe = Probe()
            probe.seconds(0.0)  # warm-up: the child's imports and first calls
            probes.append(probe.seconds(FIRST_PROBE_S))
        start = time.perf_counter()
        while True:
            seconds, ok = runner.op(full.op, run_dir)
            untraced.append(seconds)
            oks.append(ok)
            if probe is not None:
                probes.append(probe.seconds(PROBE_SHARE * seconds))
            if args.trace:
                seconds, ok = runner.op(full.op, run_dir, traced=True)
                traced.append(seconds)
                oks.append(ok)
                layer_ops.append(runner.tracer.op)
            # stop before a round (op and probe) that would end after the
            # deadline
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(untraced) > args.seconds:
                break
    finally:
        if probe is not None:
            probe.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_work").rmdir()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    attempted, failed = len(oks), oks.count(False)
    untraced_ok = oks[::2 if args.trace else 1]
    good = [t for t, ok in zip(untraced, untraced_ok) if ok]
    op_s = statistics.median(good or untraced)
    if args.trace:
        tr = runner.tracer
        per_op = [{**tr.self_times(i), **tr.op_counts(i)} for i in layer_ops]
        # means, not medians, so that the self times of a run still add up
        metrics = {name: (statistics.fmean(op[name] for op in per_op), unit)
                   for name, unit in
                   [(m, "s") for m in tracer.TIME_METRICS]
                   + [(m, "count") for m in tracer.COUNT_METRICS]}
        traced_mean = statistics.fmean(traced)
        metrics["trace.op_s"] = (traced_mean, "s")
        metrics["trace.overhead_s"] = (traced_mean - statistics.fmean(untraced),
                                       "s")
    else:
        # the ops' total time over the probe's pass time around each op,
        # summed: totals, not medians, because a run holds only a few ops
        around = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
        pairs = [(t, p) for t, p, ok in zip(untraced, around, untraced_ok)
                 if ok] or list(zip(untraced, around))
        op_rel = sum(t for t, _ in pairs) / sum(p for _, p in pairs)
        metrics = {"op_rel": (op_rel, "ref"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}

    record = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "trace": args.trace, "inputs_sha256": full.sha256(),
        "env": environment(nproc, threads),
        "op_s_samples": untraced, "probe_s_samples": probes,
        "traced_op_s_samples": traced,
        "setup": {"import_s": import_s, "reps_s": setup_reps},
        "fail_ratio": failed / attempted, "failures": runner.failures[:5],
        "untraced_callables": runner.tracer.missing,
    }
    print(json.dumps(record))
    rel_note = "" if args.trace else f"op_rel {op_rel:.4f} ref, "
    print(f"{args.workload}: op_s {op_s:.4f} s (median of {len(untraced)}"
          f"{quantile_note(untraced)}), {rel_note}"
          f"setup_s {setup_s:.4f} s, peak_rss_mb {peak_rss_mb:.1f} MB, fail_ratio "
          f"{failed / attempted:.4f} ({failed}/{attempted})")
    print(json.dumps({
        "correct": warm_ok and failed == 0, "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
