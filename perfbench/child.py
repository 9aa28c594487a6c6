"""One benchmark repetition, in a fresh process.

Usage: python3 perfbench/child.py WORKDIR OUTDIR TRACE

WORKDIR holds ``plan.json`` (the commands and config paths of the workload)
written by ``run.py``.  The process imports ``actionlab``, builds the
workload's model once through ``experiments.build_system`` (the set-up), then
runs every command through ``cli.dispatch`` with its output under OUTDIR.
With TRACE = 1 it first installs the span recorder of ``tracing.py``.  It
writes its timings to OUTDIR/child.json; ``run.py`` checks the tables.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(workdir: Path, outdir: Path, trace: bool) -> None:
    plan = json.loads((workdir / "plan.json").read_text())
    t0 = time.perf_counter()
    import actionlab.cli
    import actionlab.experiments
    import_s = time.perf_counter() - t0

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    setup_start = time.perf_counter()
    cfg, _ = actionlab.cli.load_config(plan[0]["config"])
    actionlab.experiments.build_system(cfg.model, cfg.constants)
    setup_end = time.perf_counter()

    commands = []
    for request, step in enumerate(plan, start=1):
        if tracer is not None:
            tracer.request = request
        argv = [step["command"], "--config", step["config"],
                "--out", str(outdir / step["name"]), "--quiet"]
        start = time.perf_counter()
        try:
            code = actionlab.cli.dispatch(argv)
            error = None
        except Exception:  # a crash is a measured failure, not a benchmark bug
            code = None
            error = traceback.format_exc()
        commands.append({"name": step["name"], "exit_code": code, "error": error,
                         "start": start, "end": time.perf_counter()})

    result = {
        "import_s": import_s,
        "setup_s": import_s + (setup_end - setup_start),
        "setup_start": setup_start,
        "commands": commands,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters()
    (outdir / "child.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3] == "1")
