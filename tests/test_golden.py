"""Golden-table gate: every bundled config and the invariant suite, rerun
in-process, must reproduce the reference tables in ``tests/golden/``.

Provenance lines, the header and every string, integer and bool cell must
match exactly; NaN must match NaN.  Float cells must satisfy

    |a - b| <= 1e-12 * max(1, |a|, |b|).

A plain relative 1e-12 would be wrong: difference and residual columns
inherit the roundoff of their O(1) operands, not of their own small value.
The reference ``ring256_propagation`` ``deviation`` (t_peak - dS/dE, about
1.25e-6) differs from a fresh run by 8.3e-14: 6.6e-8 relative, yet only the
roundoff of the O(1) ``t_peak`` it is computed from.

The references are regenerated only on purpose; ``scripts/run_all_experiments.py``
writes its tables to ``out/``, which is not tracked.

The benchmark's default-seed commands are also run here, in-process, against
the benchmark's own output checks and reference tables (``perfbench/``, read
only), so a roundoff change that the benchmark would count as wrong rows
fails the suite first.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from actionlab.cli import dispatch, load_config
from actionlab.experiments import (
    run_emergence_experiment,
    run_profile,
    run_propagation_time_experiment,
    run_resolution_sweep,
)
from actionlab.verify import run_invariant_suite
from conftest import bench_module

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
BENCH = ROOT / "perfbench"
FLOAT_TOLERANCE = 1e-12


checks = bench_module("checks")
workloads = bench_module("workloads")

RUNNERS = {
    "qubit_profile": run_profile,
    "spin20_sweep": run_resolution_sweep,
    "spin50_emergence": run_emergence_experiment,
    "ring256_emergence": run_emergence_experiment,
    "ring256_propagation": run_propagation_time_experiment,
}


def assert_matches_golden(table, golden: Path):
    fresh = table.to_csv().splitlines()
    want = golden.read_text().splitlines()
    head = sum(1 for line in fresh if line.startswith("#")) + 1
    assert fresh[:head] == want[:head], "provenance or header differs"
    assert len(fresh) == len(want), "row count differs"
    names = list(table.columns)
    for i, (got_line, want_line) in enumerate(zip(fresh[head:], want[head:])):
        for name, got, ref in zip(names, got_line.split(","), want_line.split(",")):
            where = f"{golden.name} row {i} column {name}: {got} vs {ref}"
            if not isinstance(table.columns[name][i], (float, np.floating)):
                assert got == ref, where
                continue
            a, b = float(got), float(ref)
            if a == b or (np.isnan(a) and np.isnan(b)):
                continue
            assert abs(a - b) <= FLOAT_TOLERANCE * max(1.0, abs(a), abs(b)), where


@pytest.mark.parametrize("stem", sorted(RUNNERS))
def test_bundled_config_matches_golden(stem):
    cfg, _ = load_config(ROOT / "configs" / f"{stem}.json")
    assert_matches_golden(RUNNERS[stem](cfg), GOLDEN / f"{stem}.csv")


def test_invariant_suite_matches_golden():
    assert_matches_golden(run_invariant_suite("all", seed=20260808), GOLDEN / "invariants.csv")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_benchmark_workload_matches_reference(workload, tmp_path):
    for index, (command, config) in enumerate(
            workloads.commands(workload, workloads.DEFAULT_SEED)):
        name = f"{index}-{command}"
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        assert dispatch([command, "--config", str(path), "--out", str(tmp_path / name),
                         "--quiet"]) == 0
        rows = checks.read_table(tmp_path / name / checks.TABLE_FILES[command])
        assert checks.check_command(command, rows, config) == []
        reference = BENCH / "reference" / workload / f"{name}.csv"
        assert checks.compare_reference(command, rows, reference) == []
        if command == "sweep":
            # The reference comparison reads argmax_r without its sign; the
            # +-r ties resolve to the largest x_r by rule, so the sign holds too.
            assert ([row["argmax_r"] for row in rows]
                    == [row["argmax_r"] for row in checks.read_table(reference)])
