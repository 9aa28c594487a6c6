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
"""

from pathlib import Path

import numpy as np
import pytest

from actionlab.cli import load_config
from actionlab.experiments import (
    run_emergence_experiment,
    run_invariant_suite,
    run_profile,
    run_propagation_time_experiment,
    run_resolution_sweep,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FLOAT_TOLERANCE = 1e-12

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
