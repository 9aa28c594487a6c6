import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from actionlab.action import action_profile, stationary_points
from actionlab.errors import ConfigError, ScanBoundaryError
from actionlab.hilbert import DiagonalUnitary, apply_diagonal, orthonormality_deviation
from actionlab.cli import load_config
from actionlab.measurement import _transfer, gaussian_kernel, joint_distribution
from actionlab.models import make_packet, positive_energy_basis, ring_energies
from actionlab.experiments import (
    MAX_J,
    MAX_SCAN_POINTS,
    MAX_SITES,
    ExperimentConfig,
    ModelConfig,
    PropagationConfig,
    SPIN_PROFILE_SMOOTHING_SPACINGS,
    StateSpec,
    _overlap_scan,
    build_state,
    build_system,
    config_from_dict,
    philox_stream,
    run_emergence_experiment,
    run_invariant_suite,
    run_profile,
    run_propagation_time_experiment,
    run_resolution_sweep,
)
from conftest import UNIT, dense_overlap_scan, mutated

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
        # four-value sweep builds it for its first value and reuses it.
        cfg, _ = load_config(CONFIGS / "spin20_sweep.json")
        before = _transfer.cache_info()
        run_resolution_sweep(cfg)
        after = _transfer.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 3)
        system = build_system(cfg.model, cfg.constants)
        a = build_state(system, cfg.a, "a")
        z, y = system.basis("z"), system.basis("y")
        cached = _transfer(a, z, y)
        assert _transfer(a, z, y) is cached
        assert not cached.flags.writeable and cached.flags.c_contiguous
        misses = _transfer.cache_info().misses
        _transfer(system.basis("x").state_at(5.0), z, y)
        assert _transfer.cache_info().misses == misses + 1


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
        moved = apply_diagonal(DiagonalUnitary(mom, -ring_energies(ring256) * 20.0), a)
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
    basis = positive_energy_basis(ring256)
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
