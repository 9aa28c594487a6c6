#!/usr/bin/env python3
"""Condensed console report: where classical causality emerges and fails.

For a spin system this prints, per boundary-condition pair, the stationary
intermediate values against the classical cone-intersection formula, the
disturbance-free resolution, and the measured disturbance across a
resolution sweep.  A quick way to eyeball the whole story without opening
the CSV tables.
"""

import argparse

from actionlab.action import action_profile, stationary_points
from actionlab.experiments import (
    config_from_dict,
    profile_smoothing_for,
    run_resolution_sweep,
)
from actionlab.models import spin_system


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
        "seed": 20260808,
    })
    system = spin_system(args.j)
    a = system.basis("x").state_at(args.xa)
    b = system.basis("y").state_at(args.xb)
    z = system.basis("z")
    profile = action_profile(a, z, b, cfg.constants,
                             smoothing=profile_smoothing_for(cfg, system, z))
    points = stationary_points(profile)
    oracle = system.classical_oracle(args.xa, args.xb)

    print(f"spin j={args.j:g}, x_a={args.xa:g} (x basis), x_b={args.xb:g} (y basis)")
    if not oracle:
        print("  classically forbidden pair (x_a^2 + x_b^2 > j(j+1))")
    for branch in oracle:
        best = min(points, key=lambda p: abs(p.x_star - branch)) if points else None
        if best is None:
            print(f"  classical x* = {branch:+8.3f}: no stationary point found")
            continue
        print(
            f"  classical x* = {branch:+8.3f}  found {best.x_star:+8.3f} "
            f"(off {abs(best.x_star - branch):.2f})  S'' = {best.curvature_at:+.4f}  "
            f"dx_m = {best.delta_x_m:.2f}  dn = {best.delta_n:.1f}  "
            f"weak value = {best.weak_value_magnitude:.3f}"
        )
    if not points:
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
