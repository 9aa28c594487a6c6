"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload spin-sweep-emerge --seed 7 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  Each repetition is a
fresh single-threaded Python process (``child.py``) with the BLAS/OpenMP
thread variables pinned to 1: one client, closed loop, ``--jobs`` at its
default of 1.

``--trace 0`` repeats the workload while the ``--seconds`` budget allows and
reports the fastest repetition's ``wall_s`` and ``rows_per_s`` and the
medians of ``setup_s`` and ``peak_rss_mb``.  ``--trace 1`` runs it once
untraced and once with the span recorder of ``tracing.py`` and reports the
per-layer metrics, the tracing overhead and the layer-isolation self-check.
Every table written is checked (``checks.py``).  The last line of standard
output is the result object; the line before it is the full record,
including the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

# BLAS/OpenMP thread variables given to every repetition: the plain
# single-threaded baseline, whatever the caller's environment says.
PINNED_THREADS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# A run, with every repetition in it, ends within this many seconds.
RUN_LIMIT_S = 170
# Share of a traced run's work time (set-up start to last command end) that
# the span self times must cover; the rest is argument parsing and manifest
# bookkeeping inside cli.dispatch.
MIN_SELF_COVERAGE = 0.95
MEASUREMENT = [f"measurement.{name}.calls" for name in tracing.LAYERS["measurement"]]
PREDICTED_ZEROS = {
    "spin-sweep-emerge": [],
    "ring-flight": MEASUREMENT + ["hilbert.eigh_hermitian.calls"],
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def environment() -> dict:
    """Machine, numeric stack and source version the numbers were taken on."""
    import platform

    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": PINNED_THREADS,
        "git_commit": commit,
    }


def prepare(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's configs and the plan the child process follows."""
    plan = []
    for index, (command, config) in enumerate(workloads.commands(workload, seed)):
        name = f"{index}-{command}"
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(config, indent=1))
        plan.append({"name": name, "command": command, "config": str(path)})
    (workdir / "plan.json").write_text(json.dumps(plan))
    return plan


def child_env() -> dict:
    """Environment of every child process: pinned threads, sources from src/."""
    return dict(os.environ, **PINNED_THREADS, PYTHONPATH=str(ROOT / "src"))


def warm_up(deadline: float) -> None:
    """Import the package once, untimed, so that byte-code compilation and a
    cold file cache never land in a timed repetition."""
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import actionlab.cli, actionlab.experiments"],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"warm-up exceeded {RUN_LIMIT_S} s") from err
    if proc.returncode != 0:
        raise BenchmarkError(f"warm-up import failed:\n{proc.stderr[-4000:]}")


def run_rep(workload: str, workdir: Path, plan: list[dict], outdir: Path, trace: bool,
            deadline: float) -> dict:
    """One fresh process over the whole plan; returns its timings and counts."""
    outdir.mkdir()
    env = child_env()
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), str(workdir), str(outdir),
             "1" if trace else "0"],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"run exceeded {RUN_LIMIT_S} s") from err
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchmarkError(f"child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    child = json.loads((outdir / "child.json").read_text())
    rows = 0
    failures = []
    problems = []
    for step, command in zip(plan, child["commands"]):
        if command["exit_code"] != 0:
            reason = command["error"].strip().splitlines()[-1] if command["error"] else ""
            failures.append(f"{step['name']}: exit {command['exit_code']} {reason}")
            continue
        table = checks.read_table(outdir / step["name"] / checks.TABLE_FILES[step["command"]])
        config = json.loads(Path(step["config"]).read_text())
        rows += len(table)
        problems += [f"{step['name']}: {p}" for p in
                     checks.check_command(step["command"], table, config)]
        if config["seed"] == workloads.DEFAULT_SEED:
            reference = BENCH_DIR / "reference" / workload / f"{step['name']}.csv"
            problems += [f"{step['name']} vs reference: {p}" for p in
                         checks.compare_reference(step["command"], table, reference)]
    commands = child["commands"]
    return {
        "wall_s": wall,
        "setup_s": child["setup_s"],
        "import_s": child["import_s"],
        "work_s": commands[-1]["end"] - commands[0]["start"],
        "rows": rows,
        "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
        "attempted": len(commands),
        "failures": failures,
        "problems": problems,
        "child": child,
    }


def layer_metrics(rep: dict, untraced: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced repetition, and self-check failures."""
    child = rep["child"]
    totals = tracing.self_times(child["spans"])
    counters = child["counters"]
    metrics = {"actionlab.import_s": child["import_s"]}
    for module, names in tracing.LAYERS.items():
        for name in names:
            entry = totals.get(f"{module}.{name}", {"calls": 0, "self_s": 0.0})
            metrics[f"{module}.{name}.calls"] = entry["calls"]
            metrics[f"{module}.{name}.self_s"] = entry["self_s"]
        metrics[f"{module}.errors"] = counters["errors"][module]
    lookups = counters["spin_cache_lookups"]
    metrics["models.spin_system.hit_ratio"] = (
        counters["spin_cache_hits"] / lookups if lookups else 0.0)
    grid = counters["grid_points"]
    metrics["action.action_profile.valid_ratio"] = counters["valid_points"] / grid if grid else 0.0
    metrics["cli.write_outputs.bytes"] = counters["bytes_written"]
    metrics["trace.overhead"] = rep["wall_s"] / untraced["wall_s"]
    work = child["commands"][-1]["end"] - child["setup_start"]
    coverage = sum(entry["self_s"] for entry in totals.values()) / work
    metrics["trace.self_coverage"] = coverage
    failures = []
    if not MIN_SELF_COVERAGE <= coverage <= 1.0 + 1e-9:
        failures.append(f"span self times cover {coverage:.3f} of the work time")
    return metrics, failures


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the full record (result, metrics, environment)."""
    if not (ROOT / "src" / "actionlab" / "__init__.py").is_file():
        raise BenchmarkError(f"no actionlab sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        plan = prepare(workload, seed, workdir)
        start = time.perf_counter()
        deadline = start + RUN_LIMIT_S
        warm_up(deadline)
        start = time.perf_counter()
        reps = []
        self_check = []
        if trace:
            untraced = run_rep(workload, workdir, plan, workdir / "rep0", False, deadline)
            traced = run_rep(workload, workdir, plan, workdir / "rep1", True, deadline)
            reps = [untraced, traced]
            values, self_check = layer_metrics(traced, untraced)
            self_check += [f"{name} = {values[name]}, predicted 0"
                           for name in PREDICTED_ZEROS[workload] if values[name] != 0]
        else:
            while True:
                reps.append(run_rep(workload, workdir, plan, workdir / f"rep{len(reps)}", False,
                                    deadline))
                elapsed = time.perf_counter() - start
                if elapsed + max(r["wall_s"] for r in reps) > seconds:
                    break
            # Other tenants of a shared host only ever slow a repetition down,
            # so the fastest repetition is the least disturbed estimate of the
            # program's own time; set-up time and memory take the median.
            values = {
                "setup_s": statistics.median(r["setup_s"] for r in reps),
                "wall_s": min(r["wall_s"] for r in reps),
                "rows_per_s": max(r["rows"] / r["work_s"] for r in reps),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any((ROOT / ".perfbench_work").iterdir()):
            (ROOT / ".perfbench_work").rmdir()

    if sorted(values) != sorted(m["name"] for m in declared):
        raise BenchmarkError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    problems = [p for r in reps for p in r["problems"]]
    return {
        "workload": workload,
        "seed": seed,
        "default_seed": workloads.DEFAULT_SEED,
        "trace": int(trace),
        "repetitions": len(reps),
        "error_rate": len(failures) / attempted,
        "wrong_rows": len(problems),
        "failures": failures[:50],
        "problems": problems[:50],
        "self_check": self_check,
        "per_rep": [{k: r[k] for k in ("wall_s", "setup_s", "import_s", "work_s", "rows",
                                        "peak_rss_mb")} for r in reps],
        "environment": environment(),
        "result": {
            "correct": not failures and not problems and not self_check,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared},
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    for name, metric in record["result"]["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} error_rate = {record['error_rate']:.6g} fraction")
    print(f"{args.workload} wrong_rows = {record['wrong_rows']} count")
    for line in record["failures"] + record["problems"] + record["self_check"]:
        print(f"{args.workload} check failed: {line}")
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
