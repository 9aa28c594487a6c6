"""Seeded input generation for the benchmark workloads.

Each workload turns ``(name, seed)`` into a list of CLI commands, each with
the experiment config it reads.  The program sees only these configs; the
same seed always gives the same configs.  Sizes are fixed (spin j = 200,
ring N = 2048), so a seed changes which boundary values are measured, not how
much work a run does.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 20260808

SPIN_J = 200
SWEEP_VALUES = 64
SWEEP_RANGE = (0.1, 30.0)          # in units of the stationary point's delta_x_m
EMERGE_PAIRS = 150
EMERGE_RANGE = (0.2, 0.8)          # fraction of j, both boundary values

RING_SITES = 2048
RING_PAIRS = 32
RING_MAX_DISPLACEMENT = 40         # sites; keeps p* = M dx / T inside the band
PROPAGATE_CENTERS = 16
PROPAGATE_RANGE = (0.4, 0.6)       # energy window around the packet centre 0.5

RING_MODEL = {"name": "ring", "sites": RING_SITES, "circumference": float(RING_SITES),
              "mass": 1.0, "flight_time": 20.0}
SPIN_MODEL = {"name": "spin", "j": SPIN_J}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def spin_sweep(seed: int) -> list[tuple[str, dict]]:
    """One resolution sweep between an x and a y eigenstate.

    Both boundary values lie in [0.3 j, 0.5 j], so x_a^2 + x_b^2 < j(j+1)
    and the pair is always classically allowed: the sweep has a stationary
    point to take its delta_x_m unit from.
    """
    rng = _rng("spin-sweep", seed)
    lo, hi = math.ceil(0.3 * SPIN_J), math.floor(0.5 * SPIN_J)
    x_a, x_b = rng.randint(lo, hi), rng.randint(lo, hi)
    log_lo, log_hi = (math.log(v) for v in SWEEP_RANGE)
    values = sorted(float(f"{math.exp(rng.uniform(log_lo, log_hi)):.6g}")
                    for _ in range(SWEEP_VALUES))
    config = {
        "model": SPIN_MODEL,
        "a": {"basis": "x", "eigenvalue": float(x_a)},
        "b": {"basis": "y", "eigenvalue": float(x_b)},
        "intermediate": "z",
        "sweep": {"values": values, "units": "delta_x_m"},
        "seed": seed,
    }
    return [("sweep", config)]


def spin_emerge(seed: int) -> list[tuple[str, dict]]:
    """One emergence scan over integer boundary pairs in [0.2 j, 0.8 j]^2.

    Pairs outside the cone x_a^2 + x_b^2 < j(j+1) are classically forbidden
    and exercise the no-oracle path; about one in twenty falls there.
    """
    rng = _rng("spin-emerge", seed)
    lo, hi = math.ceil(EMERGE_RANGE[0] * SPIN_J), math.floor(EMERGE_RANGE[1] * SPIN_J)
    pairs = [[float(rng.randint(lo, hi)), float(rng.randint(lo, hi))]
             for _ in range(EMERGE_PAIRS)]
    config = {
        "model": SPIN_MODEL,
        "a": {"basis": "x", "eigenvalue": pairs[0][0]},
        "b": {"basis": "y", "eigenvalue": pairs[0][1]},
        "intermediate": "z",
        "emergence": {"pairs": pairs},
        "seed": seed,
    }
    return [("emerge", config)]


def ring_flight(seed: int) -> list[tuple[str, dict]]:
    """Free flight on the ring: an emergence scan, then a propagation scan.

    Each command builds the N-site ring again (``ring_system`` has no cache),
    which is part of what this workload measures.
    """
    rng = _rng("ring-flight", seed)
    pairs = []
    for _ in range(RING_PAIRS):
        x_a = rng.randrange(RING_SITES)
        x_b = (x_a + rng.randint(-RING_MAX_DISPLACEMENT, RING_MAX_DISPLACEMENT)) % RING_SITES
        pairs.append([float(x_a), float(x_b)])
    emerge = {
        "model": RING_MODEL,
        "a": {"basis": "position", "eigenvalue": pairs[0][0]},
        "b": {"basis": "position", "eigenvalue": pairs[0][1]},
        "intermediate": "momentum",
        "emergence": {"pairs": pairs},
        "seed": seed,
    }
    centers = sorted(round(rng.uniform(*PROPAGATE_RANGE), 6) for _ in range(PROPAGATE_CENTERS))
    propagate = {
        "model": RING_MODEL,
        "a": {"basis": "energy", "packet_center": 0.5, "packet_width": 0.1},
        "b": {"basis": "position", "eigenvalue": 0.0},
        "intermediate": "momentum",
        "propagation": {"tau": 5.0, "centers": centers},
        "seed": seed,
    }
    return [("emerge", emerge), ("propagate", propagate)]


def spin_sweep_emerge(seed: int) -> list[tuple[str, dict]]:
    """The resolution sweep, then the emergence scan, on one spin j = 200.

    Both commands share the set-up build through the ``spin_system`` cache,
    so a repetition pays for the eigen set-up once: measurement does the work
    of the first command, action that of the second.
    """
    return spin_sweep(seed) + spin_emerge(seed)


WORKLOADS = {
    "spin-sweep-emerge": spin_sweep_emerge,
    "ring-flight": ring_flight,
}


def commands(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The (subcommand, config) list a run of ``workload`` executes, in order."""
    return WORKLOADS[workload](seed)
