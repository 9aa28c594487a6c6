"""The invariant suite behind ``actionlab verify``, which alone imports it.

``run_invariant_suite`` executes the library's exact identities (basis
reconstruction, completeness, probability conservation, gauge invariance)
and its calibrated regime checks, one row per check; the spin-20
measurement checks read the table of ``run_resolution_sweep``, and its
provenance is the runners' ``_provenance`` over a hash of scope and seed.
Randomized checks draw from the Philox (4x64) counter-based generator keyed
by the seed and a per-purpose stream index, so runs are reproducible
bit-for-bit across platforms.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .action import action_phase, action_profile, aligned_unitary, stationary_points, unwrap_segment
from .experiments import (DEFAULT_SEED, ExperimentConfig, ModelConfig, ResultTable, StateSpec,
                          _list, _provenance, _rows_to_columns, _string, run_resolution_sweep)
from .hilbert import DiagonalUnitary, PhysicalConstants, StateVector, expand, frame_shift, inner, random_state
from .measurement import gaussian_kernel, high_res_amplitude, joint_distribution, projective_kernel
from .models import (ModelSystem, RingParameters, angular_momentum_matrices, make_packet,
                     qubit_system, ring_system, spin_system)

# Module prefixes of the invariant suite's checks (``verify --scope``).
SCOPE_RULE = _list(_string("hilbert", "models", "action", "measurement"))


def philox_stream(seed: int, stream: int) -> np.random.Generator:
    """Philox-4x64 counter-based generator for (seed, purpose-stream).

    The key is ``seed + (stream << 32)``, so distinct (seed, stream) pairs get
    distinct keys only while seed < 2**32 (``experiments.SEED_RULE``).
    """
    return np.random.Generator(np.random.Philox(key=np.uint64(seed) + (np.uint64(stream) << np.uint64(32))))


def _reconstruction_metric(system: ModelSystem, rng: np.random.Generator, n: int = 10) -> float:
    worst = 0.0
    for _ in range(n):
        a = random_state(system.dimension, rng)
        b = random_state(system.dimension, rng)
        for _, basis in sorted(system.bases.items()):
            total = complex(np.sum(np.conj(expand(b, basis)) * expand(a, basis)))
            worst = max(worst, abs(total - inner(b, a)))
    return worst


def run_invariant_suite(scope: str | list[str] = "all", seed: int = DEFAULT_SEED) -> ResultTable:
    """Execute every library invariant; one row per check.

    ``scope`` filters by module prefix ("hilbert", "models", "action",
    "measurement").  Randomized checks use Philox streams derived from the
    seed.  Failures are data: the table records them and the CLI maps them
    to a nonzero exit status.
    """
    wanted = None if scope == "all" else set([scope] if isinstance(scope, str) else scope)
    rows: list[dict] = []

    def record(name: str, metric: float, threshold: float, larger_fails: bool = True):
        passed = metric < threshold if larger_fails else metric <= threshold
        rows.append({"check": name, "metric": float(metric), "threshold": float(threshold),
                     "passed": bool(passed)})

    def selected(module: str) -> bool:
        return wanted is None or module in wanted

    qubit = qubit_system()
    spin20 = spin_system(20.0)
    spin50 = spin_system(50.0)
    # The suite works in units of hbar = 1 (its provenance records that).
    unit = PhysicalConstants(hbar=1.0)
    ring = ring_system(RingParameters(256, 256.0, 1.0, 20.0), unit)
    ring_big = ring_system(RingParameters(401, 401.0, 1.0, 20.0), unit)
    jx50, jy50 = angular_momentum_matrices(50.0)
    if selected("action") or selected("measurement"):
        # The branch-filtered spin-50 x -> y profile over z, shared by both sections.
        prof50 = action_profile(spin50.basis("x").state_at(25.0), spin50.basis("z"),
                                spin50.basis("y").state_at(25.0), unit, smoothing=2.0)
        pts50 = stationary_points(prof50)

    if selected("hilbert"):
        rng = philox_stream(seed, 1)
        for label, system in (("qubit", qubit), ("spin20", spin20),
                              ("spin50", spin50), ("ring401", ring_big)):
            record(f"hilbert.reconstruction.{label}",
                   _reconstruction_metric(system, rng), 1e-12)
        # Frame shifts leave every transition probability alone.
        rng = philox_stream(seed, 2)
        z = spin20.basis("z")
        gen = DiagonalUnitary(z, -z.eigenvalues)
        worst = 0.0
        a = random_state(spin20.dimension, rng)
        b = random_state(spin20.dimension, rng)
        p0 = abs(inner(b, a)) ** 2
        for t in rng.uniform(-50, 50, size=100):
            at, bt = frame_shift(a, b, gen, float(t))
            worst = max(worst, abs(abs(inner(bt, at)) ** 2 - p0))
        record("hilbert.frame_shift.spin20", worst, 1e-12)
        psi = random_state(spin50.dimension, philox_stream(seed, 3))
        record("hilbert.parseval.spin50",
               abs(np.sum(np.abs(expand(psi, spin50.basis("x"))) ** 2) - 1.0), 1e-12)
        for label, mat, bname in (("jx", jx50, "x"), ("jy", jy50, "y")):
            basis = spin50.basis(bname)
            resid = np.max(np.abs(mat @ basis.vectors.T - basis.vectors.T * basis.eigenvalues))
            record(f"hilbert.eigen_residual.spin50_{label}", float(resid), 1e-9)

    if selected("models"):
        for label, system in (("qubit", qubit), ("spin20", spin20),
                              ("spin50", spin50), ("ring256", ring)):
            record(f"models.orthonormality.{label}", system.change_of_basis_residual(), 1e-10)
        bx = spin50.basis("x")
        rebuilt = (bx.vectors.T * bx.eigenvalues) @ bx.vectors.conj()
        record("models.tridiagonal_reconstruction.spin50",
               float(np.max(np.abs(rebuilt - jx50))), 1e-9)
        mom = ring.basis("momentum")
        psi = random_state(ring.dimension, philox_stream(seed, 4))
        back = mom.vectors.T @ expand(psi, mom)
        record("models.ring_roundtrip.256",
               float(np.max(np.abs(back - psi.amplitudes))), 1e-12)
        z20 = spin20.basis("z")
        packet = make_packet(z20, 3.0, 5.0)
        weights = np.abs(expand(packet, z20)) ** 2
        mean = float(np.sum(z20.eigenvalues * weights))
        std = float(np.sqrt(np.sum((z20.eigenvalues - mean) ** 2 * weights)))
        record("models.packet_mean.spin20", abs(mean - 3.0), float(np.max(z20.spacing)))
        record("models.packet_std.spin20", abs(std - 5.0) / 5.0, 0.05)

    if selected("action"):
        rng = philox_stream(seed, 5)
        z = spin20.basis("z")
        a = spin20.basis("x").state_at(10.0)
        b = spin20.basis("y").state_at(10.0)
        s_ref = action_phase(a, z.state_at(5.0), b, unit)
        worst = 0.0
        for _ in range(50):
            phases = rng.uniform(0, 2 * np.pi, size=3)
            a2 = StateVector(a.amplitudes * np.exp(1j * phases[0]))
            b2 = StateVector(b.amplitudes * np.exp(1j * phases[1]))
            m2 = StateVector(z.state_at(5.0).amplitudes * np.exp(1j * phases[2]))
            worst = max(worst, abs(action_phase(a2, m2, b2, unit) - s_ref))
        record("action.gauge_invariance.spin20", worst, 1e-12)
        two_pi = 2.0 * np.pi
        fwd = action_phase(a, z.state_at(5.0), b, unit)
        rev = action_phase(b, z.state_at(5.0), a, unit)
        wrapped = abs((fwd + rev + np.pi) % two_pi - np.pi)
        record("action.antisymmetry.spin20", wrapped, 1e-12)
        spin10 = spin_system(10.0)
        a10 = spin10.basis("x").state_at(5.0)
        b10 = spin10.basis("y").state_at(5.0)
        z10 = spin10.basis("z")
        achieved = aligned_unitary(a10, z10, b10)[1]
        amp = np.conj(expand(b10, z10)) * expand(a10, z10)
        record("action.triangle_equality.spin10", abs(achieved - float(np.sum(np.abs(amp)))), 1e-12)
        rng = philox_stream(seed, 6)
        best_random = max(
            float(np.abs(np.sum(amp * np.exp(1j * rng.uniform(0, 2 * np.pi, size=z10.dim)))))
            for _ in range(1000)
        )
        record("action.triangle_maximality.spin10", best_random - achieved, 0.0, larger_fails=True)
        seg0 = np.flatnonzero(prof50.segment_id == 0)
        sl = slice(int(seg0[0]), int(seg0[-1]) + 1)
        raw = prof50.s_raw[sl]
        twopi = 2.0 * np.pi * prof50.hbar
        anchor = int(np.argmax(prof50.magnitude[sl]))
        base = unwrap_segment(raw, twopi, anchor)
        worst = 0.0
        for alt in (0, len(raw) // 2, len(raw) - 1):
            other = unwrap_segment(raw, twopi, alt)
            other -= twopi * np.round((other[anchor] - raw[anchor]) / twopi)
            worst = max(worst, float(np.max(np.abs(other - base))))
        record("action.unwrap_anchor_independence.spin50", worst, 1e-12)
        dom = pts50[0]
        record("action.cross_route_dn_wv.spin50",
               abs(dom.delta_n * dom.weak_value_magnitude - 1.0), 0.1)

    if selected("measurement"):
        # The sweep x 10 -> z -> y 10 at the default widths 0.25, 1, 4 and 16 delta_x_m.
        sweep = run_resolution_sweep(ExperimentConfig(
            model=ModelConfig("spin", j=20.0), a=StateSpec("x", 10.0), b=StateSpec("y", 10.0),
            intermediate="z")).columns
        tvs = sweep["tv_disturbance"]
        record("measurement.povm_completeness.spin20", max(sweep["povm_deviation"]), 1e-10)
        record("measurement.total_probability.spin20",
               max(abs(p - 1.0) for p in sweep["total_probability"]), 1e-10)
        record("measurement.weak_limit_monotone.spin20",
               max(tvs[i + 1] - tvs[i] for i in range(len(tvs) - 1)), 0.0, larger_fails=True)
        record("measurement.factorization_decay.spin20", sweep["factorization_residual"][-1], 0.01)
        z20 = spin20.basis("z")
        y20 = spin20.basis("y")
        a = spin20.basis("x").state_at(10.0)
        joint = joint_distribution(a, y20, projective_kernel(z20))
        overlaps = np.abs(z20.vectors.conj() @ y20.vectors.T) ** 2
        textbook = overlaps * np.abs(expand(a, z20))[:, np.newaxis] ** 2
        record("measurement.projective_limit.spin20",
               float(np.max(np.abs(joint.table - textbook))), 1e-10)
        joint_n = joint_distribution(a, y20, gaussian_kernel(z20, float(np.min(z20.spacing)) / 100.0))
        record("measurement.projective_narrow_kernel.spin20",
               float(np.max(np.abs(joint_n.table - textbook))), 1e-10)
        # The argmax of the kernel at 1 delta_x_m, from the nearest stationary point.
        record("measurement.selection_moderate.spin20", sweep["argmax_offset"][1],
               2.0 * float(np.max(z20.spacing)), larger_fails=False)
        dom = next(p for p in pts50 if p.x_star > 0)
        delta = 0.3 * dom.delta_x_m
        kern = gaussian_kernel(spin50.basis("z"), delta)
        hi_interior = float(prof50.x_grid[-1]) - 3.0 * delta
        worst = 0.0
        for offset in (2.0, 3.0, 4.0):
            r_val = dom.x_star + offset
            if r_val > hi_interior:
                continue
            h = high_res_amplitude(kern, prof50, r_val)
            worst = max(worst, abs(abs(h.fourier) - abs(h.closed_form)) / abs(h.closed_form))
        record("measurement.highres_fourier_vs_closed.spin50", worst, 0.02)

    scope_tag = scope if isinstance(scope, str) else ",".join(scope)
    fake_cfg_hash = hashlib.sha256(f"invariants:{scope_tag}:{seed}".encode()).hexdigest()[:16]
    return ResultTable("invariants", _rows_to_columns(rows),
                       _provenance("invariants", fake_cfg_hash, 1.0, seed))
