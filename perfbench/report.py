"""Run several workloads and seeds and print their metrics side by side.

    python3 perfbench/report.py                        # every workload, default seed
    python3 perfbench/report.py --seeds 1 2 3 4 5      # spread over seeds
    python3 perfbench/report.py --trace 1              # per-layer table

With ``--trace 0`` it prints, per run, every end-to-end metric with its unit
plus ``error_rate`` and ``wrong_rows``; with two or more seeds it adds, per
metric, the median and the spread (distance between the first and third
quartile as a share of the median) next to the metric's bound.  With
``--trace 1`` it prints every per-layer metric, one column per workload, and
the layer-isolation self-check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[workloads.DEFAULT_SEED])
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    declared = spec["per_layer" if args.trace else "end_to_end"]

    records = {}
    for workload in args.workloads:
        for seed in args.seeds:
            try:
                record = run.run(workload, seed, seconds, bool(args.trace))
            except run.BenchmarkError as err:
                print(f"benchmark error: {err}", file=sys.stderr)
                return 1
            records.setdefault(workload, []).append(record)
            metrics = record["result"]["metrics"]
            if not args.trace:
                cells = [f"{name}={m['value']:.4g} {m['unit']}" for name, m in metrics.items()]
                print(f"{workload:12s} seed={seed:<10d} " + "  ".join(cells)
                      + f"  error_rate={record['error_rate']:g} fraction"
                      + f"  wrong_rows={record['wrong_rows']} count"
                      + f"  reps={record['repetitions']}", flush=True)
            for line in record["failures"] + record["problems"] + record["self_check"]:
                print(f"{workload:12s} seed={seed:<10d} check failed: {line}", flush=True)

    if args.trace:
        names = list(records)
        print(f"{'metric':48s} {'unit':9s} " + " ".join(f"{n:>13s}" for n in names))
        for metric in declared:
            values = [records[n][0]["result"]["metrics"][metric["name"]]["value"] for n in names]
            print(f"{metric['name']:48s} {metric['unit']:9s} "
                  + " ".join(f"{v:13.6g}" for v in values))
        for n in names:
            verdict = "; ".join(records[n][0]["self_check"]) or "predicted zeros hold"
            print(f"self-check {n}: {verdict}")
    elif len(args.seeds) > 1:
        for workload, recs in records.items():
            for metric in declared:
                values = [r["result"]["metrics"][metric["name"]]["value"] for r in recs]
                q1, median, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                print(f"{workload:12s} {metric['name']:12s} median={median:.4g} {metric['unit']}"
                      f"  spread={spread:.4f}  bound={metric['bound']}"
                      f"  {'ok' if spread < metric['bound'] / 3 else 'WIDE'}")
    failed = any(not r["result"]["correct"] for recs in records.values() for r in recs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
