import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import actionlab.action as action_module
import actionlab.experiments as experiments_module
from actionlab.action import action_profile, stationary_points
from actionlab.errors import ConfigError, ScanBoundaryError
from actionlab.hilbert import (DiagonalUnitary, LabeledBasis, apply_diagonal, expand,
                               orthonormality_deviation)
from actionlab.cli import load_config
import actionlab.measurement as measurement_module
from actionlab.measurement import (JointDistribution, Measurement, _transfer, gaussian_kernel,
                                   joint_distribution)
from actionlab.models import (SPIN_PROFILE_SMOOTHING_SPACINGS, RingParameters, make_packet,
                              ring_system, spin_cone)
from actionlab.experiments import (
    MAX_J,
    MAX_LIST_ITEMS,
    MAX_SCAN_POINTS,
    MAX_SITES,
    StateSpec,
    _overlap_scan,
    build_state,
    build_system,
    config_from_dict,
    run_emergence_experiment,
    run_profile,
    run_propagation_time_experiment,
    run_resolution_sweep,
)
from actionlab.verify import philox_stream, run_invariant_suite
from conftest import (UNIT, bench_module, dense_overlap_scan, factored_overlap_scan, mutated,
                      per_pair_emergence, probed_default_centers)

SPIN20_SWEEP = {
    "model": {"name": "spin", "j": 20},
    "a": {"basis": "x", "eigenvalue": 10.0},
    "b": {"basis": "y", "eigenvalue": 10.0},
    "intermediate": "z",
    "sweep": {"values": [0.25, 1.0, 4.0, 16.0], "units": "delta_x_m"},
    "seed": 424242,
}

RING_EMERGE = {
    "model": {"name": "ring", "sites": 256, "circumference": 256.0,
              "mass": 1.0, "flight_time": 20.0},
    "a": {"basis": "position", "eigenvalue": 100.0},
    "b": {"basis": "position", "eigenvalue": 120.0},
    "intermediate": "momentum",
    "seed": 7,
}


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def cfg_of(raw):
    cfg, _ = config_from_dict(raw)
    return cfg


class TestConfig:
    def test_defaults_recorded(self):
        cfg, defaults = config_from_dict({
            "model": {"name": "spin", "j": 20},
            "a": {"basis": "x", "eigenvalue": 10.0},
            "b": {"basis": "y", "eigenvalue": 10.0},
            "intermediate": "z",
        })
        assert cfg.sweep.values == (0.25, 1.0, 4.0, 16.0)
        assert "seed" in defaults
        assert any(d.startswith("sweep") for d in defaults)

    def test_unknown_key_rejected_with_path(self):
        raw = dict(SPIN20_SWEEP)
        raw["modle"] = {}
        with pytest.raises(ConfigError, match="modle"):
            config_from_dict(raw)

    def test_nested_unknown_key_rejected(self):
        raw = json.loads(json.dumps(SPIN20_SWEEP))
        raw["a"]["eigenvlue"] = 3
        with pytest.raises(ConfigError, match="a:"):
            config_from_dict(raw)

    def test_negative_sweep_value_rejected(self):
        raw = json.loads(json.dumps(SPIN20_SWEEP))
        raw["sweep"]["values"] = [-1.0]
        with pytest.raises(ConfigError, match="sweep.values"):
            config_from_dict(raw)

    def test_roundtrip_idempotent(self):
        cfg1 = cfg_of(SPIN20_SWEEP)
        cfg2 = cfg_of(cfg1.to_dict())
        assert cfg1 == cfg2
        assert cfg1.config_hash() == cfg2.config_hash()

    def test_hash_changes_with_hbar(self):
        raw = json.loads(json.dumps(SPIN20_SWEEP))
        h1 = cfg_of(raw).config_hash()
        raw["constants"] = {"hbar": 2.0}
        assert cfg_of(raw).config_hash() != h1

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="intermediate"):
            config_from_dict({"model": {"name": "qubit"},
                              "a": {"basis": "x", "eigenvalue": 0.5},
                              "b": {"basis": "y", "eigenvalue": 0.5}})

    # config_from_dict only checks the values; no model of these sizes is built.
    @pytest.mark.parametrize("raw, path, largest, above", [
        (SPIN20_SWEEP, "model.j", MAX_J, MAX_J + 0.5),
        (SPIN20_SWEEP, "model.j", MAX_J, 1e9),
        (RING_EMERGE, "model.sites", MAX_SITES, MAX_SITES + 1),
        (RING_EMERGE, "model.sites", MAX_SITES, 10**7),
        (SPIN20_SWEEP, "propagation.scan_points", MAX_SCAN_POINTS, MAX_SCAN_POINTS + 1),
        (SPIN20_SWEEP, "propagation.scan_points", MAX_SCAN_POINTS, 10**9),
        (SPIN20_SWEEP, "seed", 2**32 - 1, 2**32),
        (RING_EMERGE, "emergence.pairs", [[0.0, 0.0]] * MAX_LIST_ITEMS,
         [[0.0, 0.0]] * (MAX_LIST_ITEMS + 1)),
        (SPIN20_SWEEP, "sweep.values", [1.0] * MAX_LIST_ITEMS, [1.0] * (MAX_LIST_ITEMS + 1)),
        (SPIN20_SWEEP, "propagation.centers", [0.0] * MAX_LIST_ITEMS,
         [0.0] * (MAX_LIST_ITEMS + 1)),
    ])
    def test_size_bounds(self, raw, path, largest, above):
        config_from_dict(mutated(raw, path, largest))
        with pytest.raises(ConfigError, match=f"^{path}: "):
            config_from_dict(mutated(raw, path, above))

    def test_state_spec_exclusive(self):
        with pytest.raises(ConfigError, match="exactly one"):
            StateSpec("z", eigenvalue=1.0, packet_center=0.0, packet_width=1.0).validate("a")


@pytest.fixture(scope="module")
def sweep_table():
    return run_resolution_sweep(cfg_of(SPIN20_SWEEP))


@pytest.fixture(scope="module")
def invariant_table():
    t0 = time.perf_counter()
    table = run_invariant_suite("all", seed=20260808)
    table.elapsed = time.perf_counter() - t0
    return table


class TestResolutionSweep:
    @pytest.fixture()
    def table(self, sweep_table):
        return sweep_table

    def test_disturbance_strictly_decreasing(self, table):
        tv = table.column("tv_disturbance")
        assert all(tv[i] > tv[i + 1] for i in range(len(tv) - 1))

    def test_povm_and_probability_conserved(self, table):
        assert max(table.column("povm_deviation")) < 1e-10
        assert max(abs(p - 1.0) for p in table.column("total_probability")) < 1e-10

    def test_regime_quantum_at_stationary_point(self, table):
        assert all(r == "quantum" for r in table.column("regime_at_star"))

    def test_selection_at_moderate_resolution(self, table):
        # The conditional argmax reveals a stationary value at the
        # disturbance-free resolution itself.
        assert table.column("argmax_offset")[1] <= 2.0

    def test_projective_like_row_most_disturbing(self, table):
        tv = table.column("tv_disturbance")
        assert tv[0] == max(tv)

    def test_transfer_matrix_built_once_per_sweep(self):
        # Y[m, b] = <m|a><b|m> does not depend on the kernel: the bundled
        # four-value sweep builds its real pieces and the baseline for its
        # first value and reuses them.
        cfg, _ = load_config(CONFIGS / "spin20_sweep.json")
        before = _transfer.cache_info()
        run_resolution_sweep(cfg)
        after = _transfer.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 3)
        system = build_system(cfg.model, cfg.constants)
        a = build_state(system, cfg.a, "a")
        z, y = system.basis("z"), system.basis("y")
        cached = _transfer(a, z, y, True)
        assert _transfer(a, z, y, True) is cached
        pieces, baseline, folded, columns = cached
        # An x eigenstate through z into y: the even/odd half-height pieces,
        # each an exact mirror whose sign alternates with the column, so the
        # table folds.  Column -b of each piece is a +-copy of column b, so
        # only the columns b <= 0 are computed, and each b > 0 reads -b's.
        assert folded
        even, odd = list(range(0, 41, 2)), list(range(1, 40, 2))
        assert [sorted([*piece.rows, *piece.mirrors]) for piece in pieces] == [even, odd]
        assert columns.tolist() == [*range(21), *range(19, -1, -1)]
        # The odd rows are zero in the column of y eigenvalue 0 (index 20): it
        # has both signs and goes with +1.
        low_even, low_odd = [b for b in even if b <= 20], [b for b in odd if b <= 20]
        assert [[cols.tolist() for cols, _ in piece.parts] for piece in pieces] == [
            [low_even, low_odd], [low_odd + [20], [b for b in low_even if b != 20]]]
        for _, part in (pair for piece in pieces for pair in piece.parts):
            assert not part.flags.writeable and part.flags.c_contiguous
        assert not baseline.flags.writeable and not columns.flags.writeable
        misses = _transfer.cache_info().misses
        _transfer(system.basis("x").state_at(5.0), z, y, True)
        assert _transfer.cache_info().misses == misses + 1

    @pytest.mark.parametrize("j", [20.0, 20.5])
    def test_transfer_holds_each_piece_of_y_once(self, j):
        # Both transfers hold only the columns b <= 0 (21 of them), as each
        # column b > 0 is a +-copy of column -b in every piece.  The bundled
        # sweep's transfer (j = 20, d = 41) folds: it holds Y's rows m < 0
        # and, at the columns of sign +1, the centre row, each entry once.  At
        # j = 20.5 (d = 42) the even/odd pieces do not fold, and the transfer
        # holds each of them once: d rows by 21 columns in all.
        raw = SPIN20_SWEEP
        if j % 1:
            for path, value in (("model.j", j), ("a.eigenvalue", 10.5), ("b.eigenvalue", 10.5)):
                raw = mutated(raw, path, value)
        cfg = cfg_of(raw)
        system = build_system(cfg.model, cfg.constants)
        a = build_state(system, cfg.a, "a")
        transfer = _transfer(a, system.basis("z"), system.basis("y"), True)
        d = system.dimension
        held = sum(part.size for piece in transfer.pieces for _, part in piece.parts)
        computed = int(transfer.columns.max()) + 1
        if transfer.folded:
            centre_plus = transfer.pieces[0].parts[0][0].size
            assert (d, computed, held) == (41, 21, d // 2 * computed + centre_plus)
        else:
            assert (d, computed, held) == (42, 21, d * computed)

    def test_sweeps_fold_and_lay_out_no_kernel_table(self, monkeypatch):
        # The bundled sweep and the benchmark's spin sweep (j = 200, x -> z
        # -> y) build every value's table from a lattice kernel on a folded
        # transfer.  Neither they, the bundled spin-50 emergence, the
        # benchmark's spin emergence scan nor the invariant suite read a
        # lattice kernel as a whole d x d block: each kernel is read from its
        # row, the branch filter too (Measurement.average).  An emergence
        # scan builds one filter kernel for all its pairs.
        at, joint_table = Measurement.at, measurement_module._joint_table
        filters = []

        def filter_kernel(basis, width):
            filters.append(gaussian_kernel(basis, width))
            return filters[-1]

        def checked(kernel, r, m, sqrt=False):
            block = at(kernel, r, m, sqrt)
            if kernel.mirrored and np.shape(block) == (kernel.basis.n_states,) * 2:
                raise AssertionError("a lattice kernel was laid out as a d x d table")
            return block

        ran = []

        def recorded(transfer, measurement):
            ran.append((transfer.folded, measurement.mirrored))
            return joint_table(transfer, measurement)

        monkeypatch.setattr(Measurement, "at", checked)
        monkeypatch.setattr(measurement_module, "_joint_table", recorded)
        monkeypatch.setattr(action_module, "gaussian_kernel", filter_kernel)
        monkeypatch.setattr(experiments_module, "gaussian_kernel", filter_kernel)
        workloads = bench_module("workloads")
        ((_, bench),) = workloads.spin_sweep(workloads.DEFAULT_SEED)
        for raw in (json.loads((CONFIGS / "spin20_sweep.json").read_text()), bench):
            cfg, _ = config_from_dict(raw)
            ran.clear()
            run_resolution_sweep(cfg)
            assert ran == [(True, True)] * len(cfg.sweep.values)
        ((_, bench),) = workloads.spin_emerge(workloads.DEFAULT_SEED)
        for raw in (json.loads((CONFIGS / "spin50_emergence.json").read_text()), bench):
            cfg, _ = config_from_dict(raw)
            filters.clear()
            run_emergence_experiment(cfg)
            assert len(filters) == 1 and filters[0].mirrored
        assert all(run_invariant_suite().column("passed"))

    def test_sweep_values_hold_the_computed_block_only(self, monkeypatch):
        # The benchmark's spin sweep (j = 200, x -> z -> y) reads TV, the
        # residual, the total probability and one column's argmax through
        # the column map: each value holds P(r, b|a) at the rows r <= 0 and
        # the columns b <= 0 (201 by 201, of 401 by 401), and no value lays
        # out the d x d table.
        blocks, joint_table = [], measurement_module._joint_table

        def recorded(transfer, measurement):
            blocks.append(joint_table(transfer, measurement))
            return blocks[-1]

        def laid_out(joint):
            raise AssertionError("a sweep value laid out its d x d joint table")

        monkeypatch.setattr(measurement_module, "_joint_table", recorded)
        monkeypatch.setattr(JointDistribution, "table", property(laid_out))
        workloads = bench_module("workloads")
        ((_, bench),) = workloads.spin_sweep(workloads.DEFAULT_SEED)
        cfg, _ = config_from_dict(bench)
        run_resolution_sweep(cfg)
        assert [block.shape for block in blocks] == [(201, 201)] * len(cfg.sweep.values)

    @pytest.fixture()
    def bench_sweep(self):
        """The benchmark's spin sweep config (j = 200, x -> z -> y), its
        system and its state a, with no transfer cached."""
        workloads = bench_module("workloads")
        ((_, bench),) = workloads.spin_sweep(workloads.DEFAULT_SEED)
        cfg, _ = config_from_dict(bench)
        system = build_system(cfg.model, cfg.constants)
        _transfer.cache_clear()
        return cfg, system, build_state(system, cfg.a, "a")

    def test_sweep_reads_no_dense_rows_of_y(self, monkeypatch, bench_sweep):
        # The transfer builds Y's rows from the stored real rows and the two
        # phase vectors, a block at a time: the sweep never asks the phased
        # y basis for its dense complex rows.
        cfg, system, _ = bench_sweep
        read, vectors = [], LabeledBasis.vectors

        def recorded(basis):
            read.append(basis)
            return vectors.fget(basis)

        monkeypatch.setattr(LabeledBasis, "vectors", property(recorded))
        run_resolution_sweep(cfg)
        assert _transfer.cache_info().currsize == 1
        assert all(basis is not system.basis("y") for basis in read)

    def test_transfer_peak_below_one_complex_square(self, bench_sweep):
        # No complex d x d Y and no dense phased rows: building the transfer
        # peaks below d^2 complex entries (2.45 MiB at d = 401).
        cfg, system, a = bench_sweep
        z, y = system.basis(cfg.intermediate), system.basis("y")
        d = system.dimension
        tracemalloc.start()
        try:
            transfer = _transfer(a, z, y, True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert transfer.folded and d == 401
        assert peak < d * d * 16


class TestSweepClosedFormsAtSize:
    """The sweep's closed forms at j = 1000 (d = 2001): an x eigenstate at
    0.4 j through z into y, on the folded product."""

    @pytest.fixture(scope="class")
    def sweep(self):
        cfg, _ = config_from_dict({
            "model": {"name": "spin", "j": 1000},
            "a": {"basis": "x", "eigenvalue": 400.0},
            "b": {"basis": "y", "eigenvalue": 400.0},
            "intermediate": "z",
            "sweep": {"values": [1e-12, 4000.0, 40000.0], "units": "absolute"},
        })
        system = build_system(cfg.model, cfg.constants)
        a = build_state(system, cfg.a, "a")
        z, y = system.basis("z"), system.basis("y")
        table = run_resolution_sweep(cfg)
        assert _transfer(a, z, y, True).folded
        return expand(a, z)[:, np.newaxis] * y.vectors.conj().T, table

    def test_projective_limit(self, sweep):
        # At the config's smallest width every off-centre exponential
        # underflows, so P is the identity, P(r, b|a) = |Y[r, b]|^2 with
        # Y[m, b] = <m|a><b|m>, and TV = 1/2 sum_b |sum_m |Y|^2 - |sum_m Y|^2|.
        y, table = sweep
        closed = 0.5 * np.sum(np.abs(np.sum(np.abs(y) ** 2, axis=0) - np.abs(y.sum(axis=0)) ** 2))
        assert table.column("tv_disturbance")[0] == pytest.approx(closed, rel=1e-12, abs=0.0)
        assert abs(table.column("total_probability")[0] - 1.0) <= 1e-10

    def test_wide_limit_falls_as_inverse_fourth_power(self, sweep):
        # Once the width exceeds the spectrum the disturbance falls like
        # width^-4: ten times wider is 1e4 times less.
        _, table = sweep
        tv = table.column("tv_disturbance")
        assert tv[1] / tv[2] == pytest.approx(1e4, rel=0.01)


class TestDisturbanceScale:
    """The disturbance of x_a -> z -> y_b is set by the branch separation
    2x* = 2m*, the distance between the two classical values of Jz
    (``models.spin_cone``), not by delta_x_m = sqrt(2 pi hbar / |S''|).
    Measured through the sweep in absolute units."""

    # (x_a, x_b) / j: TV at sigma = g 2x*, g = 0.5, 1, 2, at j = 1000 (measured).
    REFERENCE = {(0.5, 0.5): (0.05125, 0.004603, 3.068e-4),
                 (0.4, 0.3): (0.02997, 0.002352, 1.531e-4)}

    @staticmethod
    def tv(j: int, fractions: tuple[float, float], unit: str, multiples) -> list[float]:
        """TV at sigma = each multiple of 2x* ("separation") or of the
        closed-form delta_x_m, with |S''| = hbar m* / |x_a x_b|."""
        x_a, x_b = (f * j for f in fractions)
        m_star = spin_cone(j, x_a, x_b)[1]
        scale = (2.0 * m_star if unit == "separation"
                 else float(np.sqrt(2.0 * np.pi * abs(x_a * x_b) / m_star)))
        cfg, _ = config_from_dict({
            "model": {"name": "spin", "j": j},
            "a": {"basis": "x", "eigenvalue": x_a},
            "b": {"basis": "y", "eigenvalue": x_b},
            "intermediate": "z",
            "sweep": {"values": [g * scale for g in multiples], "units": "absolute"},
        })
        return run_resolution_sweep(cfg).column("tv_disturbance")

    @pytest.mark.parametrize("fractions", list(REFERENCE))
    def test_collapses_on_branch_separation(self, fractions):
        # From j = 50 to 1000, TV(g 2x*) is one curve: within 3% of the
        # j = 1000 values at j = 50 and 200 (measured: at most 2.5%).
        reference = self.REFERENCE[fractions]
        tv50, tv200 = (self.tv(j, fractions, "separation", (0.5, 1.0, 2.0)) for j in (50, 200))
        assert tv50 == pytest.approx(tv200, rel=0.03)
        assert tv50 == pytest.approx(reference, rel=0.03)
        assert tv200 == pytest.approx(reference, rel=0.03)

    @pytest.mark.parametrize("fractions", list(REFERENCE))
    def test_does_not_collapse_on_delta_x_m(self, fractions):
        # 2x* / delta_x_m grows like sqrt(j), so at a fixed 4 delta_x_m the
        # branches are resolved better and better: TV rises from j = 50 to
        # 200 (measured: 0.032 -> 0.162 and 0.120 -> 0.239).
        (tv50,), (tv200,) = (self.tv(j, fractions, "delta_x_m", (4.0,)) for j in (50, 200))
        assert tv200 > 1.5 * tv50


class TestRingResolutionSweep:
    """A ring b in position is an arrival event, so the sweep reads P(r, b|a)
    = |<x_b|U(T) M(r)|a>|^2, on arrival."""

    CFG = dict(RING_EMERGE, b={"basis": "position", "eigenvalue": 110.0},
               sweep={"values": [0.25, 1.0, 4.0], "units": "delta_x_m"})

    @pytest.fixture(scope="class")
    def table(self):
        return run_resolution_sweep(cfg_of(self.CFG))

    def test_argmax_at_classical_momentum(self, table):
        # p* = M dx / T = 10 / 20; within one momentum spacing 2 pi / L.
        for argmax in table.column("argmax_r")[:2]:
            assert abs(argmax - 0.5) <= 2.0 * np.pi / 256.0

    def test_momentum_intermediate_equals_flight_before_measurement(self, table, ring256):
        # M(r) commutes with the free flight, so the arrival-frame table is
        # that of the evolved preparation U(T)|a> read in plain position.
        mom, pos = ring256.basis("momentum"), ring256.basis("position")
        a = pos.state_at(100.0)
        moved = apply_diagonal(DiagonalUnitary(mom, -ring256.arrival.phases), a)
        for delta, tv in zip(table.column("delta_x_r"), table.column("tv_disturbance")):
            ops = gaussian_kernel(mom, delta)
            assert abs(joint_distribution(moved, pos, ops).total_variation - tv) < 1e-12


def test_ring_position_packet_b_is_carried_to_arrival():
    # Like an eigenstate b, a position packet b is an arrival event: dS/dp =
    # dx - p T / M, so p* = M dx / T = 1 and S'' = -T / M.
    cfg = cfg_of(dict(RING_EMERGE, b={"basis": "position", "packet_center": 120.0,
                                      "packet_width": 3.0}))
    system = build_system(cfg.model, cfg.constants)
    a, b = build_state(system, cfg.a, "a"), build_state(system, cfg.b, "b")
    points = stationary_points(action_profile(a, system.basis("momentum"), b, cfg.constants))
    assert points
    assert abs(points[0].x_star - 1.0) <= 2.0 * np.pi / 256.0
    assert abs(abs(points[0].curvature_at) - 20.0) < 1e-6


class TestEmergence:
    def test_spin50_nine_pairs_within_two_spacings(self, spin50):
        cfg = cfg_of({
            "model": {"name": "spin", "j": 50},
            "a": {"basis": "x", "eigenvalue": 25.0},
            "b": {"basis": "y", "eigenvalue": 25.0},
            "intermediate": "z",
        })
        table = run_emergence_experiment(cfg)
        assert table.n_rows == 18  # 9 pairs, two branches each
        assert all(table.column("found"))
        assert max(table.column("deviation_spacings")) <= 2.0

    def test_half_integer_j_default_pairs_on_grid(self):
        # The default pairs near 0.3/0.4/0.5 j must lie on the half-integer grid.
        cfg = cfg_of({
            "model": {"name": "spin", "j": 20.5},
            "a": {"basis": "x", "eigenvalue": 10.5},
            "b": {"basis": "y", "eigenvalue": 10.5},
            "intermediate": "z",
        })
        table = run_emergence_experiment(cfg)
        assert table.n_rows == 18  # 9 pairs, two branches each
        assert all(table.column("found"))
        assert sorted(set(table.column("x_a"))) == [6.5, 8.5, 10.5]

    def test_ring_within_one_spacing(self):
        table = run_emergence_experiment(cfg_of(RING_EMERGE))
        assert table.n_rows == 1
        dev = table.column("deviation_spacings")[0]
        assert dev <= 1.0
        assert table.column("classical")[0] == pytest.approx(1.0)

    def test_forbidden_pair_flagged(self, spin20):
        cfg = cfg_of({
            "model": {"name": "spin", "j": 20},
            "a": {"basis": "x", "eigenvalue": 15.0},
            "b": {"basis": "y", "eigenvalue": 15.0},
            "intermediate": "z",
            "emergence": {"pairs": [[15.0, 15.0]]},
        })
        table = run_emergence_experiment(cfg)
        assert table.n_rows == 1
        assert not table.column("classically_allowed")[0]

    def test_forbidden_pair_without_a_phase_runs_alone(self):
        # At j = 1000, <y(715)|x(787)> is the roundoff of a zero: the pair is
        # classically forbidden and has no phase, so no stationary point.
        cfg = cfg_of({
            "model": {"name": "spin", "j": 1000},
            "a": {"basis": "x", "eigenvalue": 787.0},
            "b": {"basis": "y", "eigenvalue": 715.0},
            "intermediate": "z",
            "emergence": {"pairs": [[787.0, 715.0]]},
        })
        row = {name: column[0] for name, column in run_emergence_experiment(cfg).columns.items()}
        assert (row.pop("x_a"), row.pop("x_b"), row.pop("branch")) == (787.0, 715.0, 0.0)
        assert row.pop("found") is row.pop("classically_allowed") is False
        assert all(np.isnan(value) for value in row.values())

    def test_classical_column_matches_oracle(self, spin50):
        cfg = cfg_of({
            "model": {"name": "spin", "j": 50},
            "a": {"basis": "x", "eigenvalue": 20.0},
            "b": {"basis": "y", "eigenvalue": 20.0},
            "intermediate": "z",
            "emergence": {"pairs": [[20.0, 20.0]]},
        })
        table = run_emergence_experiment(cfg)
        expect = np.sqrt(50 * 51 - 800.0)
        got = sorted(table.column("classical"))
        assert got == pytest.approx([-expect, expect])

    def test_ring_blocks_match_the_per_pair_oracle(self, ring256):
        # Arrival states and momentum amplitudes are stacked products; one
        # pair at a time they are vector products.  The rows agree within
        # the golden tables' float tolerance.
        pairs = [[100.0, 120.0], [5.0, 250.0], [250.0, 3.0], [0.0, 0.0],
                 [128.0, 100.0], [30.0, 70.0], [200.0, 160.0], [64.0, 101.0]]
        table = run_emergence_experiment(cfg_of(mutated(RING_EMERGE, "emergence.pairs", pairs)))
        want = per_pair_emergence(ring256, "position", "position", "momentum", pairs)
        assert table.n_rows == len(want) == 8
        for i, row in enumerate(want):
            for name, ref in row.items():
                got = table.column(name)[i]
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(got), abs(ref)), (i, name)

    def test_spin_blocks_keep_the_per_pair_bits(self, spin50):
        # The z intermediate is the reference basis: the stacks are copies of
        # each pair's own amplitudes, so every value is the per-pair one.
        cfg = cfg_of(json.loads((CONFIGS / "spin50_emergence.json").read_text()))
        table = run_emergence_experiment(cfg)
        pairs = spin50.emergence_pairs
        want = per_pair_emergence(spin50, "x", "y", "z", pairs, smoothing=2.0)
        assert table.n_rows == len(want) == 2 * len(pairs)
        for name in want[0]:
            assert table.column(name) == [row[name] for row in want], name


class TestPropagation:
    def test_ring_tau_recovered_within_5_percent(self):
        cfg = cfg_of({
            "model": {"name": "ring", "sites": 256, "circumference": 256.0,
                      "mass": 1.0, "flight_time": 20.0},
            "a": {"basis": "energy", "packet_center": 0.5, "packet_width": 0.1},
            "b": {"basis": "position", "eigenvalue": 0.0},
            "intermediate": "momentum",
            "propagation": {"tau": 5.0},
        })
        table = run_propagation_time_experiment(cfg)
        assert table.n_rows == 1
        assert table.column("t_peak")[0] == pytest.approx(5.0, rel=0.05)

    def test_ring_evolves_energy_amplitudes_not_states(self, monkeypatch):
        # b is a's energy amplitudes times exp(-i E tau / hbar): no state is
        # synthesized from them and expanded back.
        def refuse(*args):
            raise AssertionError("apply_diagonal called")

        monkeypatch.setattr(experiments_module, "apply_diagonal", refuse)
        cfg, _ = load_config(CONFIGS / "ring256_propagation.json")
        table = run_propagation_time_experiment(cfg)
        assert table.column("t_peak") == [pytest.approx(5.0, rel=1e-4)]

    # Spin 20 x(10) -> z -> y(10) keeps both probes of each stationary point.
    # At spin 10 x(-6) -> z -> y(-4) the points sit at +-7.02 and the
    # gradient's support is [-9, 9], so the outer probes (+-10.02) leave it.
    @pytest.mark.parametrize("j, x_a, x_b, n_centers", [
        (20.0, 10.0, 10.0, 6),
        (10.0, -6.0, -4.0, 4),
    ], ids=["spin20", "spin10-outer-probes-dropped"])
    def test_default_centers_equal_probing_gradient_at(self, j, x_a, x_b, n_centers):
        cfg = cfg_of({
            "model": {"name": "spin", "j": j},
            "a": {"basis": "x", "eigenvalue": x_a},
            "b": {"basis": "y", "eigenvalue": x_b},
            "intermediate": "z",
        })
        *_, basis, profile = experiments_module._profile_for(cfg)
        want = probed_default_centers(profile, float(np.median(basis.spacing)))
        assert len(want) == n_centers
        assert run_propagation_time_experiment(cfg).column("center") == want

    def test_spin_zero_at_stationary_and_sign_flip(self, spin20):
        cfg = cfg_of(SPIN20_SWEEP)
        table = run_propagation_time_experiment(cfg)
        centers = table.column("center")
        peaks = table.column("t_peak")
        grads = table.column("expected_gradient")
        by_center = dict(zip(centers, zip(peaks, grads)))
        stars = [c for c in centers if abs(abs(c) - 13.97) < 0.1]
        assert stars
        for c in stars:
            assert abs(by_center[c][0]) < 0.05
        # Crossing a stationary point flips both the gradient and the peak.
        inner = [c for c in centers if abs(abs(c) - 10.97) < 0.1]
        outer = [c for c in centers if abs(abs(c) - 16.97) < 0.1]
        assert inner and outer
        for ci in inner:
            for co in outer:
                assert np.sign(by_center[ci][0]) != np.sign(by_center[co][0])
                assert np.sign(by_center[ci][1]) != np.sign(by_center[co][1])

    def test_no_centers_gives_header_only_table(self):
        cfg = cfg_of({
            "model": {"name": "ring", "sites": 256, "circumference": 256.0,
                      "mass": 1.0, "flight_time": 20.0},
            "a": {"basis": "energy", "packet_center": 0.5, "packet_width": 0.1},
            "b": {"basis": "position", "eigenvalue": 0.0},
            "intermediate": "momentum",
            "propagation": {"tau": 5.0, "centers": []},
        })
        table = run_propagation_time_experiment(cfg)
        body = [line for line in table.to_csv().splitlines() if not line.startswith("#")]
        assert table.n_rows == 0
        assert body == ["center,window_width,expected_gradient,t_peak,deviation,peak_overlap"]

    def test_boundary_peak_raises(self):
        cfg = cfg_of({
            "model": {"name": "ring", "sites": 256, "circumference": 256.0,
                      "mass": 1.0, "flight_time": 20.0},
            "a": {"basis": "energy", "packet_center": 0.5, "packet_width": 0.1},
            "b": {"basis": "position", "eigenvalue": 0.0},
            "intermediate": "momentum",
            "propagation": {"tau": 5.0, "scan_halfwidth": 2.0},
        })
        with pytest.raises(ScanBoundaryError, match="widen"):
            run_propagation_time_experiment(cfg)

    def test_peak_on_last_scan_point_raises(self):
        # The half-width holds the predicted peak (5) by less than a grid
        # step, so the overlap's argmax is the scan's last point.
        cfg = cfg_of({
            "model": {"name": "ring", "sites": 256, "circumference": 256.0,
                      "mass": 1.0, "flight_time": 20.0},
            "a": {"basis": "energy", "packet_center": 0.5, "packet_width": 0.1},
            "b": {"basis": "position", "eigenvalue": 0.0},
            "intermediate": "momentum",
            "propagation": {"tau": 5.0, "scan_halfwidth": 5.001},
        })
        with pytest.raises(ScanBoundaryError, match="overlap peak at scan boundary"):
            run_propagation_time_experiment(cfg)


def _scan_window(profile, center: float, width: float) -> tuple[np.ndarray, float]:
    """The propagation runner's normalized window at ``center`` and its
    default scan half-width (hbar = 1)."""
    gauss = np.exp(-((profile.x_grid - center) ** 2) / (4.0 * width * width))
    weights = gauss * gauss * profile.amp_product
    half = 3.0 * abs(profile.gradient_at(center)) + 12.0 / width
    return weights / np.sum(np.abs(weights)), half


@pytest.fixture(scope="module")
def scan_windows(ring256, spin50):
    """Ring-256 packet windows (tau = 5) and spin-50 x -> z -> y windows
    around the stationary points, as (window, energies, half-width)."""
    windows = []
    basis = ring256.energy_basis()
    a = make_packet(basis, 0.5, 0.1)
    b = apply_diagonal(DiagonalUnitary(basis, -5.0 * basis.eigenvalues), a)
    profile = action_profile(a, basis, b, UNIT)
    step = float(np.median(basis.spacing))
    for center in (0.5, 0.8):
        windows.append((*_scan_window(profile, center, 4.0 * step), basis.eigenvalues))
    z = spin50.bases["z"]
    profile = action_profile(spin50.bases["x"].state_at(25.0), z, spin50.bases["y"].state_at(25.0),
                             UNIT, smoothing=SPIN_PROFILE_SMOOTHING_SPACINGS)
    for pt in stationary_points(profile):
        for center in (pt.x_star, pt.x_star + 3.0):
            windows.append((*_scan_window(profile, center, 4.0), z.eigenvalues))
    return windows


@pytest.fixture(scope="module")
def flight_window():
    """The window at 0.5 on the N = 2048 ring's packet (centre 0.5, width 0.1,
    tau = 5), as the ring-flight benchmark propagates it: (window, half-width,
    energies)."""
    basis = ring_system(RingParameters(2048, 2048.0, 1.0, 20.0), UNIT).energy_basis()
    a = make_packet(basis, 0.5, 0.1)
    b = apply_diagonal(DiagonalUnitary(basis, -5.0 * basis.eigenvalues), a)
    profile = action_profile(a, basis, b, UNIT)
    return (*_scan_window(profile, 0.5, 4.0 * float(np.median(basis.spacing))), basis.eigenvalues)


def _reach(windowed: np.ndarray) -> np.ndarray:
    """The levels with |windowed_m| >= (eps / d) sum |windowed|."""
    mags = np.abs(windowed)
    return np.flatnonzero(mags >= np.finfo(float).eps / mags.size * np.sum(mags))


class TestOverlapScan:
    @pytest.mark.parametrize("n", [16, 17, 1201, 10001])
    def test_factored_scan_equals_dense_scan(self, scan_windows, n):
        for windowed, half, energies in scan_windows:
            t_grid, overlap = _overlap_scan(windowed, energies, half, n)
            ref_grid, ref = dense_overlap_scan(windowed, energies, half, n)
            assert np.array_equal(t_grid, ref_grid)
            assert overlap.shape == (n,)
            assert np.argmax(overlap) == np.argmax(ref)
            assert np.max(np.abs(overlap - ref)) <= 1e-13 * np.max(ref)

    def test_levels_out_of_reach_are_not_read(self, flight_window):
        # NaN rates outside the window's reach leave the scan finite: it is
        # the factored scan of the levels in reach, bit for bit.
        windowed, half, energies = flight_window
        reach = _reach(windowed)
        span = slice(reach[0], reach[-1] + 1)
        assert reach[-1] - reach[0] + 1 < windowed.size // 4
        rates = np.full_like(energies, np.nan)
        rates[span] = energies[span]
        _, overlap = _overlap_scan(windowed, rates, half, 1201)
        _, ref = factored_overlap_scan(windowed[span], energies[span], half, 1201)
        assert np.all(np.isfinite(overlap))
        assert np.array_equal(overlap, ref)

    @pytest.mark.parametrize("n", [16, 1201])
    def test_uniform_window_sums_every_level(self, ring256, n):
        # No term falls below the cut, so the scan is the factored scan of
        # all d levels, bit for bit.
        energies = ring256.energy_basis().eigenvalues
        windowed = np.exp(1j * np.linspace(0.0, 3.0, energies.size)) / energies.size
        assert _reach(windowed).size == energies.size
        t_grid, overlap = _overlap_scan(windowed, energies, 40.0, n)
        ref_grid, ref = factored_overlap_scan(windowed, energies, 40.0, n)
        assert np.array_equal(t_grid, ref_grid)
        assert np.array_equal(overlap, ref)

    def test_every_level_above_the_cut_is_summed(self, scan_windows, flight_window):
        # A NaN rate at a summed level makes every overlap NaN.
        for windowed, half, energies in [*scan_windows, flight_window]:
            for m in _reach(windowed):
                rates = energies.copy()
                rates[m] = np.nan
                assert np.all(np.isnan(_overlap_scan(windowed, rates, half, 16)[1])), m

    def test_no_scan_points_by_dimension_array(self, scan_windows):
        windowed, half, energies = scan_windows[0]
        n = MAX_SCAN_POINTS
        tracemalloc.start()
        try:
            _overlap_scan(windowed, energies, half, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * energies.size * 16 / 10


class TestInvariantSuite:
    @pytest.fixture()
    def table(self, invariant_table):
        return invariant_table

    def test_all_checks_pass(self, table):
        failed = [table.column("check")[i] for i in range(table.n_rows)
                  if not table.column("passed")[i]]
        assert failed == []

    def test_runtime_budget(self, table):
        assert table.elapsed < 120.0

    def test_scope_filtering(self):
        table = run_invariant_suite(["models"], seed=1)
        assert table.n_rows > 0
        assert all(c.startswith("models.") for c in table.column("check"))

    def test_negative_control_corrupted_basis(self, spin20):
        # The orthonormality metric must catch a deliberately broken basis.
        vectors = spin20.basis("z").vectors.copy()
        vectors[0] = vectors[1]  # duplicated row: rank deficient
        assert orthonormality_deviation(vectors) > 1e-10


class TestModelCache:
    @pytest.mark.parametrize("raw", [RING_EMERGE, SPIN20_SWEEP, dict(
        SPIN20_SWEEP, model={"name": "qubit"}, a={"basis": "x", "eigenvalue": 0.5},
        b={"basis": "y", "eigenvalue": 0.5})], ids=["ring", "spin", "qubit"])
    def test_equal_configs_share_one_model(self, raw):
        first, second = cfg_of(raw), cfg_of(json.loads(json.dumps(raw)))
        assert build_system(first.model, first.constants) is build_system(
            second.model, second.constants)


class TestReproducibility:
    def test_bitwise_identical_csv(self):
        a = run_resolution_sweep(cfg_of(SPIN20_SWEEP)).to_csv()
        b = run_resolution_sweep(cfg_of(SPIN20_SWEEP)).to_csv()
        assert a.encode() == b.encode()

    def test_philox_stream_reproducible(self):
        x = philox_stream(123, 4).uniform(size=8)
        y = philox_stream(123, 4).uniform(size=8)
        z = philox_stream(123, 5).uniform(size=8)
        assert np.array_equal(x, y)
        assert not np.array_equal(x, z)

    @pytest.mark.parametrize("run, config, powers", [
        # Actions and their derivatives carry one power of hbar.
        (run_profile, SPIN20_SWEEP,
         {"S_raw": 1, "S_unwrapped": 1, "gradient": 1, "curvature": 1}),
        (run_emergence_experiment, "spin50_emergence.json", {"curvature": 1}),
        # The propagation parameter t is dS/dx, an action per eigenvalue unit.
        (run_propagation_time_experiment, "spin20_sweep.json",
         {"expected_gradient": 1, "t_peak": 1, "deviation": 1}),
    ], ids=["profile", "emerge", "propagate"])
    def test_hbar_rescaling(self, run, config, powers):
        # Every numeric column scales as hbar^power at hbar = 2; the ones not
        # named keep power 0.  Spin configs only: the ring's momentum grid
        # itself scales with hbar.
        if isinstance(config, str):
            config = json.loads((CONFIGS / config).read_text())
        base = json.loads(json.dumps(config))
        t1 = run(cfg_of(base))
        base["constants"] = {"hbar": 2.0}
        t2 = run(cfg_of(base))
        assert t1.provenance["config_hash"] != t2.provenance["config_hash"]
        assert set(powers) <= set(t1.columns)
        for name in t1.columns:
            power = powers.get(name, 0)
            v1 = np.asarray(t1.column(name), dtype=float)
            v2 = np.asarray(t2.column(name), dtype=float)
            ok = np.isfinite(v1)
            assert np.array_equal(ok, np.isfinite(v2))
            scale = 2.0**power
            assert np.allclose(v2[ok], v1[ok] * scale, atol=1e-12), name

    def test_hbar_rescaling_sweep_probabilities(self):
        base = json.loads(json.dumps(SPIN20_SWEEP))
        t1 = run_resolution_sweep(cfg_of(base))
        base["constants"] = {"hbar": 2.0}
        t2 = run_resolution_sweep(cfg_of(base))
        for name in ("tv_disturbance", "factorization_residual", "delta_x_m",
                     "delta_n", "argmax_r", "total_probability"):
            assert np.allclose(
                np.asarray(t1.column(name), dtype=float),
                np.asarray(t2.column(name), dtype=float),
                atol=1e-12, equal_nan=True,
            ), name
