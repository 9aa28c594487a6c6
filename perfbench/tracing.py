"""Span recorder for the traced benchmark run.

Tracing is installed from outside the package: every public function listed
in ``LAYERS`` is replaced, in each ``actionlab`` module that holds a
reference to it, by a wrapper that records a span.  Lazy imports (such as
``measurement.nondisturbance_check`` importing ``stationary_points`` at call
time) read the rebound module attribute, so they are traced too.  The
``LabeledBasis`` constructor is traced by wrapping ``LabeledBasis.__init__``.

A span is ``(name, request, parent, start, end)``: ``request`` is the index
of the command being run (0 is set-up) and ``parent`` the index of the
enclosing span, or -1.  Spans stay in memory and are written out once, when
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# Public functions traced per module, in the package's own layering.
LAYERS = {
    "hilbert": ("eigh_hermitian", "LabeledBasis", "expand"),
    "models": ("spin_system", "ring_system"),
    "action": ("action_profile", "stationary_points"),
    "measurement": ("gaussian_kernel", "build_measurement", "joint_distribution",
                    "nondisturbance_check"),
    "experiments": ("build_system", "build_state", "run_resolution_sweep",
                    "run_emergence_experiment", "run_propagation_time_experiment"),
    "cli": ("load_config", "write_outputs"),
}


class Tracer:
    """Collects spans and the counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self.errors = {module: 0 for module in LAYERS}
        self.valid_points = 0
        self.grid_points = 0
        self.bytes_written = 0
        self._stack: list[int] = []
        self._spin_cache = None

    def _traced(self, module: str, name: str, fn, after=None):
        span_name = f"{module}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [span_name, self.request, self._stack[-1] if self._stack else -1,
                    time.perf_counter(), 0.0]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _count_profile(self, profile):
        self.valid_points += int(profile.valid.sum())
        self.grid_points += int(profile.dim)

    def _count_bytes(self, paths):
        self.bytes_written += sum(os.path.getsize(p) for p in paths)

    def install(self):
        """Rebind every traced name in every loaded ``actionlab`` module."""
        packages = [m for name, m in sys.modules.items()
                    if name == "actionlab" or name.startswith("actionlab.")]
        hooks = {"action_profile": self._count_profile, "write_outputs": self._count_bytes}
        for module, names in LAYERS.items():
            owner = importlib.import_module(f"actionlab.{module}")
            for name in names:
                original = getattr(owner, name)
                if isinstance(original, type):
                    original.__init__ = self._traced(module, name, original.__init__)
                    continue
                if name == "spin_system":
                    self._spin_cache = original
                wrapper = self._traced(module, name, original, hooks.get(name))
                for package in packages:
                    if getattr(package, name, None) is original:
                        setattr(package, name, wrapper)

    def counters(self) -> dict:
        info = self._spin_cache.cache_info()
        lookups = info.hits + info.misses
        return {
            "errors": self.errors,
            "spin_cache_hits": info.hits,
            "spin_cache_lookups": lookups,
            "valid_points": self.valid_points,
            "grid_points": self.grid_points,
            "bytes_written": self.bytes_written,
        }


def self_times(spans: list[list]) -> dict[str, dict]:
    """Calls and self time per span name.

    A span's self time is its duration minus the durations of its direct
    children; the run is single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, _, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict] = {}
    for (name, _, _, start, end), inner in zip(spans, child_time):
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - inner
    return totals
