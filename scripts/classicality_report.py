#!/usr/bin/env python3
"""Condensed console report: where classical causality emerges and fails.

For a spin system this prints the ``emerge`` rows of one boundary-condition
pair (the stationary intermediate values against the classical
cone-intersection formula, with the disturbance-free resolution), then the
``sweep`` rows: the measured disturbance across a resolution sweep.  A quick
way to eyeball the whole story without opening the CSV tables.
"""

import argparse

from actionlab.experiments import config_from_dict, run_emergence_experiment, run_resolution_sweep


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--j", type=float, default=20.0)
    parser.add_argument("--xa", type=float, default=10.0)
    parser.add_argument("--xb", type=float, default=10.0)
    args = parser.parse_args()

    cfg, _ = config_from_dict({
        "model": {"name": "spin", "j": args.j},
        "a": {"basis": "x", "eigenvalue": args.xa},
        "b": {"basis": "y", "eigenvalue": args.xb},
        "intermediate": "z",
        "emergence": {"pairs": [[args.xa, args.xb]]},
    })
    columns = run_emergence_experiment(cfg).columns
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]

    print(f"spin j={args.j:g}, x_a={args.xa:g} (x basis), x_b={args.xb:g} (y basis)")
    for row in rows:
        if not row["classically_allowed"]:
            print("  classically forbidden pair (x_a^2 + x_b^2 > j(j+1))")
        elif not row["found"]:
            print(f"  classical x* = {row['classical']:+8.3f}: no stationary point found")
        else:
            print(
                f"  classical x* = {row['classical']:+8.3f}  found {row['x_star']:+8.3f} "
                f"(off {abs(row['x_star'] - row['classical']):.2f})  "
                f"S'' = {row['curvature']:+.4f}  dx_m = {row['delta_x_m']:.2f}  "
                f"dn = {row['delta_n']:.1f}  weak value = {row['weak_value']:.3f}"
            )
    if not any(row["found"] for row in rows):
        return

    table = run_resolution_sweep(cfg)
    print("  resolution sweep (units of dx_m):")
    for i in range(table.n_rows):
        print(
            f"    {table.column('sweep_value')[i]:5g} dx_m: disturbance "
            f"{table.column('tv_disturbance')[i]:.5f}  factorization residual "
            f"{table.column('factorization_residual')[i]:.2e}  regime at x*: "
            f"{table.column('regime_at_star')[i]}"
        )


if __name__ == "__main__":
    main()
