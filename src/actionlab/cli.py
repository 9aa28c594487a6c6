"""Command-line front door.

Subcommands map onto the experiment runners:

    actionlab profile   --config cfg.json   action profile CSV/JSON
    actionlab sweep     --config cfg.json   resolution sweep
    actionlab emerge    --config cfg.json   emergence-of-classicality table
    actionlab propagate --config cfg.json   propagation-time table
    actionlab verify                         invariant suite (exit 1 on failures)
    actionlab models                         list built-in models / dump one

Exit codes: 0 success, 1 check failures, 2 usage or configuration errors.
Every run writes the result table plus a manifest (inputs, constants,
defaults applied, timings) into the output directory.  The default output
directory may come from the ACTIONLAB_OUT environment variable; the manifest
records when it does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .errors import ConfigError
from .experiments import (
    SCOPE_RULE,
    SEED_RULE,
    ExperimentConfig,
    ResultTable,
    config_from_dict,
    build_system,
    run_emergence_experiment,
    run_invariant_suite,
    run_profile,
    run_propagation_time_experiment,
    run_resolution_sweep,
)

OUTPUT_ENV_VAR = "ACTIONLAB_OUT"

EXIT_OK = 0
EXIT_CHECK_FAILURES = 1
EXIT_USAGE = 2


def load_config(path: str | Path) -> tuple[ExperimentConfig, list[str]]:
    """Read, parse and validate a JSON config; returns (config, defaults applied)."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    return config_from_dict(raw)


def write_outputs(
    table: ResultTable,
    out_dir: Path,
    fmt: str,
    manifest_extra: dict | None = None,
) -> list[Path]:
    """Write the table (CSV and/or JSON) plus a manifest; returns written paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if fmt in ("csv", "both"):
        path = out_dir / f"{table.name}.csv"
        path.write_text(table.to_csv())
        written.append(path)
    if fmt in ("json", "both"):
        path = out_dir / f"{table.name}.json"
        path.write_text(table.to_json() + "\n")
        written.append(path)
    manifest = {
        "table": table.name,
        "provenance": table.provenance,
        "rows": table.n_rows,
        "files": [p.name for p in written],
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    manifest_path = out_dir / f"{table.name}.manifest.json"
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    written.append(manifest_path)
    return written


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actionlab",
        description="Action phases, least-action causality and intermediate measurements.",
    )
    parser.add_argument("--version", action="version", version=f"actionlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("profile", "compute the action profile of the configured pair"),
        ("sweep", "run the measurement-resolution sweep"),
        ("emerge", "run the emergence-of-classicality experiment"),
        ("propagate", "run the propagation-time experiment"),
        ("verify", "run the invariant suite"),
        ("models", "list built-in models or dump the configured one"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="path to the JSON experiment config")
        p.add_argument("--out", help="output directory (default: config value, "
                                     f"or ${OUTPUT_ENV_VAR}, or '.')")
        p.add_argument("--format", choices=("csv", "json", "both"),
                       help="output format override")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--quiet", action="store_true", help="suppress the summary")
        if name == "verify":
            p.add_argument("--scope", default="all",
                           help="comma-separated module list (default: all)")
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def _resolve_out(args, cfg: ExperimentConfig | None) -> tuple[Path, str | None]:
    if args.out:
        return Path(args.out), None
    env = os.environ.get(OUTPUT_ENV_VAR)
    if env:
        return Path(env), env
    if cfg is not None:
        return Path(cfg.output.directory), None
    return Path("."), None


def _run(args) -> int:
    command = args.command
    needs_config = command in ("profile", "sweep", "emerge", "propagate")
    cfg = None
    defaults: list[str] = []
    if args.seed is not None:
        SEED_RULE(args.seed, "--seed")
    if args.config:
        cfg, defaults = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
    elif needs_config:
        print(f"error: '{command}' requires --config <path>", file=sys.stderr)
        print(_build_parser().format_usage().rstrip(), file=sys.stderr)
        return EXIT_USAGE

    if command == "models":
        return _run_models(args, cfg)

    t0 = time.perf_counter()
    if command == "verify":
        scope = "all" if args.scope == "all" else SCOPE_RULE(
            [s.strip() for s in args.scope.split(",")], "--scope")
        seed = args.seed if args.seed is not None else (cfg.seed if cfg else 20260808)
        table = run_invariant_suite(scope, seed=seed)
    elif command == "profile":
        table = run_profile(cfg)
    elif command == "sweep":
        table = run_resolution_sweep(cfg)
    elif command == "emerge":
        table = run_emergence_experiment(cfg)
    else:
        table = run_propagation_time_experiment(cfg)
    elapsed = time.perf_counter() - t0

    out_dir, env_used = _resolve_out(args, cfg)
    fmt = args.format or (cfg.output.format if cfg else "csv")
    manifest_extra = {
        "elapsed_seconds": round(elapsed, 6),
        "defaults_applied": defaults,
        "command": command,
    }
    if env_used:
        manifest_extra["output_dir_from_env"] = env_used
    if cfg is not None:
        manifest_extra["config"] = cfg.to_dict()
    written = write_outputs(table, out_dir, fmt, manifest_extra)

    failures = 0
    if command == "verify":
        passed_col = table.column("passed")
        failures = sum(1 for v in passed_col if not v)
        if not args.quiet:
            for i in range(table.n_rows):
                status = "PASS" if table.column("passed")[i] else "FAIL"
                print(f"[{status}] {table.column('check')[i]}: "
                      f"metric={table.column('metric')[i]:.3e} "
                      f"threshold={table.column('threshold')[i]:.3e}")
    if not args.quiet:
        print(f"{command}: {table.n_rows} rows in {elapsed:.2f} s -> "
              + ", ".join(str(p) for p in written))
        if command == "verify":
            total = table.n_rows
            print(f"verify: {total - failures}/{total} checks passed")
    return EXIT_CHECK_FAILURES if failures else EXIT_OK


def _run_models(args, cfg: ExperimentConfig | None) -> int:
    if cfg is None:
        listing = {
            "qubit": "two-level system, bases x/y/z, eigenvalues +-1/2",
            "spin": "angular momentum j (half-integer), bases x/y/z, eigenvalues -j..j",
            "ring": "free particle on an N-site ring, bases position/momentum",
        }
        for name, text in listing.items():
            print(f"{name}: {text}")
        return EXIT_OK
    system = build_system(cfg.model, cfg.constants)
    bases = {
        name: {
            "eigenvalues": [float(x) for x in basis.eigenvalues],
            "orthonormality_deviation": basis.orthonormality_deviation(),
        }
        for name, basis in sorted(system.bases.items())
    }
    payload = {
        "name": system.name,
        "dimension": system.dimension,
        "bases": bases,
        "change_of_basis_residual": max(b["orthonormality_deviation"] for b in bases.values()),
        "metadata": dict(system.metadata),
    }
    out_dir, _ = _resolve_out(args, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{system.name}.model.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    if not args.quiet:
        print(f"models: wrote {path}")
    return EXIT_OK


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
