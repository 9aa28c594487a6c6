import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from actionlab.cli import dispatch, load_config
from actionlab.experiments import config_from_dict
from actionlab.hilbert import LabeledBasis
from conftest import DELETE, mutated

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

QUBIT_CFG = {
    "model": {"name": "qubit"},
    "a": {"basis": "x", "eigenvalue": 0.5},
    "b": {"basis": "y", "eigenvalue": 0.5},
    "intermediate": "z",
    "sweep": {"values": [1.0], "units": "absolute"},
    "seed": 7,
}

SPIN_CFG = {
    "model": {"name": "spin", "j": 20},
    "a": {"basis": "x", "eigenvalue": 10.0},
    "b": {"basis": "y", "eigenvalue": 10.0},
    "intermediate": "z",
    "seed": 99,
}


RING_PROPAGATION_CFG = json.loads((CONFIGS / "ring256_propagation.json").read_text())


@pytest.fixture()
def qubit_config(tmp_path):
    path = tmp_path / "qubit.json"
    path.write_text(json.dumps(QUBIT_CFG))
    return path


@pytest.fixture()
def spin_config(tmp_path):
    path = tmp_path / "spin.json"
    path.write_text(json.dumps(SPIN_CFG))
    return path


class TestExitCodes:
    def test_verify_clean_build(self, tmp_path):
        assert dispatch(["verify", "--quiet", "--out", str(tmp_path)]) == 0

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            dispatch(["frobnicate"])
        assert err.value.code == 2

    def test_missing_config(self, capsys):
        assert dispatch(["sweep"]) == 2
        assert "requires --config" in capsys.readouterr().err

    def test_nonexistent_config(self, tmp_path):
        assert dispatch(["sweep", "--config", str(tmp_path / "nope.json")]) == 2

    def test_schema_violation_reports_field_path(self, tmp_path, capsys):
        bad = dict(QUBIT_CFG, sweep={"values": [-1.0], "units": "absolute"})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert dispatch(["sweep", "--config", str(path)]) == 2
        assert "sweep.values" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("model", 5, "model: must be a mapping"),
        ("constants", 2, "constants: must be a mapping"),
        ("output", None, "output: must be a mapping"),
        ("sweep", [], "sweep: must be a mapping"),
        ("b", "y", "b: must be a mapping"),
        ("emergence", {"pairs": 3}, "emergence.pairs: must be a list"),
        ("emergence", {"pairs": [[1]]}, "emergence.pairs[0]: must be two numbers"),
        ("emergence", {"pairs": [[0.5, 0.5], [0.5, 0.5, 0.5]]},
         "emergence.pairs[1]: must be two numbers"),
    ])
    def test_malformed_section_reports_field(self, tmp_path, capsys, key, value, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(QUBIT_CFG, **{key: value})))
        assert dispatch(["emerge", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err

    # Malformed values: each exits 2 with an error line that names the field.
    @pytest.mark.parametrize("base, path, value, field", [
        (QUBIT_CFG, "sweep.values", ["a"], "sweep.values[0]"),
        (QUBIT_CFG, "sweep.values", 3, "sweep.values"),
        (QUBIT_CFG, "sweep.values", [True], "sweep.values[0]"),
        (QUBIT_CFG, "sweep.values", [1e300], "sweep.values[0]"),
        (QUBIT_CFG, "a.eigenvalue", [1], "a.eigenvalue"),
        (SPIN_CFG, "a.eigenvalue", "10", "a.eigenvalue"),
        (QUBIT_CFG, "a.eigenvalue", float("nan"), "a.eigenvalue"),
        (RING_PROPAGATION_CFG, "a.packet_width", "x", "a.packet_width"),
        (RING_PROPAGATION_CFG, "a.packet_width", True, "a.packet_width"),
        (RING_PROPAGATION_CFG, "a.packet_center", "0.5", "a.packet_center"),
        (RING_PROPAGATION_CFG, "propagation.tau", "x", "propagation.tau"),
        (RING_PROPAGATION_CFG, "propagation.tau", True, "propagation.tau"),
        (RING_PROPAGATION_CFG, "propagation.tau", 1e300, "propagation.tau"),
        (RING_PROPAGATION_CFG, "propagation.scan_points", 20.5, "propagation.scan_points"),
        (RING_PROPAGATION_CFG, "propagation.window_width", "x", "propagation.window_width"),
        (RING_PROPAGATION_CFG, "propagation.centers", [float("nan")], "propagation.centers[0]"),
        # A valid number outside the action gradient's support.
        (RING_PROPAGATION_CFG, "propagation.centers", [0.5, 25.0], "propagation.centers[1]"),
        (RING_PROPAGATION_CFG, "propagation.scan_halfwidth", 2, "propagation.scan_halfwidth"),
        # A window too narrow to reach any level: a defaulted centre names the
        # width; configured centres name their index.  The first centre sits
        # midway between two levels and scans; at the second the nearest
        # levels are 0.018 away, nine widths.
        (RING_PROPAGATION_CFG, "propagation.window_width", 1e-6, "propagation.window_width"),
        (RING_PROPAGATION_CFG, "propagation",
         {"tau": 5.0, "window_width": 0.002, "scan_halfwidth": 50.0, "centers": [0.494, 1.1025]},
         "propagation.centers[1]"),
        (SPIN_CFG, "model.j", "20", "model.j"),
        (SPIN_CFG, "model.j", True, "model.j"),
        (SPIN_CFG, "model.j", float("nan"), "model.j"),
        (RING_PROPAGATION_CFG, "model.sites", 64.7, "model.sites"),
        (RING_PROPAGATION_CFG, "model.sites", "64", "model.sites"),
        # Too few sites for three positive momenta (2 to 6): no energy basis.
        (RING_PROPAGATION_CFG, "model",
         dict(RING_PROPAGATION_CFG["model"], sites=3, circumference=3.0), "model.sites"),
        (RING_PROPAGATION_CFG, "model.sites", 6, "model.sites"),
        (RING_PROPAGATION_CFG, "model.winding", 1.5, "model.winding"),
        (RING_PROPAGATION_CFG, "model.mass", "1", "model.mass"),
        (QUBIT_CFG, "seed", True, "seed"),
        (QUBIT_CFG, "seed", 1.5, "seed"),
        (QUBIT_CFG, "seed", -1, "seed"),
        (QUBIT_CFG, "seed", "7", "seed"),
        (QUBIT_CFG, "seed", 2**70, "seed"),
        (QUBIT_CFG, "constants.hbar", "2", "constants.hbar"),
        (QUBIT_CFG, "constants.hbar", True, "constants.hbar"),
        (SPIN_CFG, "profile_smoothing", True, "profile_smoothing"),
        (SPIN_CFG, "profile_smoothing", 1e300, "profile_smoothing"),
        (QUBIT_CFG, "output.directory", 5, "output.directory"),
        (SPIN_CFG, "emergence.pairs", [[float("nan"), 1.0]], "emergence.pairs[0]"),
        # A pair value off the a or b grid names the pair, not a or b.
        (SPIN_CFG, "emergence.pairs", [[30.0, 10.0]], "emergence.pairs[0]"),
        (SPIN_CFG, "emergence.pairs", [[10.0, 10.0], [10.0, 30.0]], "emergence.pairs[1]"),
        (QUBIT_CFG, "schema_version", True, "schema_version"),
        (QUBIT_CFG, "model.name", DELETE, "model.name"),
        (QUBIT_CFG, "a.basis", DELETE, "a.basis"),
    ])
    def test_malformed_value_reports_field(self, tmp_path, capsys, base, path, value, field):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(mutated(base, path, value)))
        command = "propagate" if base is RING_PROPAGATION_CFG else "emerge"
        out = tmp_path / "out"
        assert dispatch([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {field}:" in err
        assert "Traceback" not in err
        assert not out.exists()

    # A packet centre that passes the field rules but lies off the built
    # model's spectrum: via the ring propagation runner and via build_state.
    @pytest.mark.parametrize("command, base, path, value", [
        ("propagate", RING_PROPAGATION_CFG, "model.mass", 16),
        ("profile", SPIN_CFG, "a", {"basis": "z", "packet_center": 25.0, "packet_width": 2.0}),
    ])
    def test_packet_off_spectrum_reports_field(self, tmp_path, capsys, command, base, path,
                                               value):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(mutated(base, path, value)))
        out = tmp_path / "out"
        assert dispatch([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: a.packet_center: packet center" in err
        assert "Traceback" not in err
        assert not out.exists()

    # Two-point spectra give no three-point gradient stencil, so the profile
    # has no finite gradient to take a propagation centre from.
    @pytest.mark.parametrize("config", [
        QUBIT_CFG,
        dict(SPIN_CFG, model={"name": "spin", "j": 0.5}, a={"basis": "x", "eigenvalue": 0.5},
             b={"basis": "y", "eigenvalue": 0.5}),
    ])
    def test_propagate_without_finite_gradient_names_intermediate(self, tmp_path, capsys,
                                                                  config):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert dispatch(["propagate", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: intermediate:" in err and "three contiguous" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, field", [
        (["--seed", "-1"], "--seed"),
        # Seeds from 2**32 up would reuse the Philox keys of smaller seeds.
        (["--seed", "4294967296"], "--seed"),
        (["--scope", "bogus"], "--scope[0]"),
        (["--scope", "hilbert,bogus"], "--scope[1]"),
    ])
    def test_bad_verify_argument_writes_nothing(self, tmp_path, capsys, argv, field):
        out = tmp_path / "out"
        assert dispatch(["verify", "--quiet", "--out", str(out)] + argv) == 2
        assert f"error: {field}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, field", [
        ("intermediate", "w", "intermediate"),
        ("intermediate", 5, "intermediate"),
        ("a", {"basis": "w", "eigenvalue": 0.5}, "a.basis"),
        ("b", {"basis": "w", "eigenvalue": 0.5}, "b.basis"),
    ])
    def test_unknown_basis_reports_field(self, tmp_path, capsys, key, value, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(QUBIT_CFG, **{key: value})))
        assert dispatch(["emerge", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {field}:" in err
        assert "Traceback" not in err


class TestProfileOutputs:
    def test_qubit_profile_contains_quarter_turns(self, qubit_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert dispatch(["profile", "--config", str(qubit_config),
                         "--out", str(out), "--quiet"]) == 0
        lines = (out / "profile.csv").read_text().splitlines()
        header = next(l for l in lines if l.startswith("index"))
        cols = header.split(",")
        rows = [l.split(",") for l in lines[lines.index(header) + 1:]]
        s_raw = [float(r[cols.index("S_raw")]) for r in rows]
        assert s_raw == pytest.approx([-math.pi / 4, math.pi / 4], abs=1e-15)

    def test_csv_roundtrip_to_ulp(self, spin_config, tmp_path):
        out = tmp_path / "out"
        dispatch(["sweep", "--config", str(spin_config), "--out", str(out), "--quiet"])
        lines = (out / "resolution_sweep.csv").read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        cols = header.split(",")
        first = lines[lines.index(header) + 1].split(",")
        tv = float(first[cols.index("tv_disturbance")])
        from actionlab.experiments import config_from_dict, run_resolution_sweep

        cfg, _ = config_from_dict(SPIN_CFG)
        table = run_resolution_sweep(cfg)
        exact = table.column("tv_disturbance")[0]
        assert tv == exact  # 17 significant digits round-trip doubles exactly

    def test_deterministic_bytes(self, spin_config, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        dispatch(["sweep", "--config", str(spin_config), "--out", str(out1), "--quiet"])
        dispatch(["sweep", "--config", str(spin_config), "--out", str(out2), "--quiet"])
        b1 = (out1 / "resolution_sweep.csv").read_bytes()
        b2 = (out2 / "resolution_sweep.csv").read_bytes()
        assert b1 == b2

    def test_json_mirror_written(self, qubit_config, tmp_path):
        out = tmp_path / "both"
        dispatch(["profile", "--config", str(qubit_config), "--out", str(out),
                  "--format", "both", "--quiet"])
        assert (out / "profile.csv").exists()
        payload = json.loads((out / "profile.json").read_text())
        assert payload["provenance"]["experiment"] == "profile"

    def test_manifest_records_defaults_and_timing(self, spin_config, tmp_path):
        out = tmp_path / "out"
        dispatch(["sweep", "--config", str(spin_config), "--out", str(out), "--quiet"])
        manifest = json.loads((out / "resolution_sweep.manifest.json").read_text())
        assert "elapsed_seconds" in manifest
        assert any(d.startswith("sweep") for d in manifest["defaults_applied"])
        assert manifest["provenance"]["seed"] == "99"

    def test_env_var_output_dir_echoed(self, qubit_config, tmp_path, monkeypatch):
        env_dir = tmp_path / "envout"
        monkeypatch.setenv("ACTIONLAB_OUT", str(env_dir))
        dispatch(["profile", "--config", str(qubit_config), "--quiet"])
        manifest = json.loads((env_dir / "profile.manifest.json").read_text())
        assert manifest["output_dir_from_env"] == str(env_dir)

    def test_config_not_mutated(self, spin_config, tmp_path):
        before = spin_config.read_bytes()
        dispatch(["sweep", "--config", str(spin_config),
                  "--out", str(tmp_path / "x"), "--quiet"])
        assert spin_config.read_bytes() == before


class TestConfigRoundtrip:
    def test_load_dump_load_idempotent(self, spin_config, tmp_path):
        cfg1, _ = load_config(spin_config)
        dumped = tmp_path / "dumped.json"
        dumped.write_text(json.dumps(cfg1.to_dict(), sort_keys=True, indent=1))
        cfg2, defaults = load_config(dumped)
        assert cfg1 == cfg2
        assert cfg1.config_hash() == cfg2.config_hash()

    def test_models_listing_without_config(self, capsys):
        assert dispatch(["models"]) == 0
        out = capsys.readouterr().out
        assert "qubit" in out and "spin" in out and "ring" in out

    def test_models_dump_with_config(self, spin_config, tmp_path):
        out = tmp_path / "m"
        assert dispatch(["models", "--config", str(spin_config),
                         "--out", str(out), "--quiet"]) == 0
        payload = json.loads((out / "spin20.model.json").read_text())
        assert payload["dimension"] == 41
        assert payload["bases"]["z"]["eigenvalues"][0] == -20.0
        assert payload["change_of_basis_residual"] < 1e-10

    def test_models_dump_reads_stored_forms(self, spin_config, tmp_path, monkeypatch):
        def no_dense_rows(self):
            raise AssertionError("dense rows built")

        monkeypatch.setattr(LabeledBasis, "vectors", property(no_dense_rows))
        out = tmp_path / "m"
        assert dispatch(["models", "--config", str(spin_config),
                         "--out", str(out), "--quiet"]) == 0
        payload = json.loads((out / "spin20.model.json").read_text())
        assert payload["bases"]["z"]["orthonormality_deviation"] == 0.0
        assert payload["change_of_basis_residual"] < 1e-10

    def test_seed_override_changes_hash(self, spin_config, tmp_path, capsys):
        out = tmp_path / "s"
        dispatch(["sweep", "--config", str(spin_config), "--out", str(out),
                  "--seed", "12345", "--quiet"])
        manifest = json.loads((out / "resolution_sweep.manifest.json").read_text())
        assert manifest["provenance"]["seed"] == "12345"


class TestEmptyTable:
    def test_empty_emergence_header_only(self, tmp_path):
        cfg = dict(SPIN_CFG)
        cfg["emergence"] = {"pairs": []}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert dispatch(["emerge", "--config", str(path), "--out", str(out),
                         "--quiet"]) == 0
        lines = (out / "emergence.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 1  # header row only
        assert data[0].startswith("x_a,x_b,")


BUNDLED = {  # bundled config -> the command it is written for
    "qubit_profile": "profile",
    "ring256_emergence": "emerge",
    "ring256_propagation": "propagate",
    "spin20_sweep": "sweep",
    "spin50_emergence": "emerge",
}


@pytest.mark.parametrize("stem", sorted(BUNDLED))
def test_table_hashes_the_config_its_manifest_records(tmp_path, stem):
    # Every table-writing command that runs on the config, defaults included.
    ran = 0
    for command in ("profile", "sweep", "emerge", "propagate"):
        out = tmp_path / command
        if dispatch([command, "--config", str(CONFIGS / f"{stem}.json"), "--out", str(out),
                     "--quiet"]) != 0:
            continue
        (path,) = out.glob("*.manifest.json")
        manifest = json.loads(path.read_text())
        recorded, _ = config_from_dict(manifest["config"])
        assert manifest["provenance"]["config_hash"] == recorded.config_hash(), command
        ran += 1
    assert ran

FIELD_PATHS = (
    "model", "model.name", "model.j", "model.sites", "model.circumference",
    "model.mass", "model.flight_time", "model.winding",
    "a", "a.basis", "a.eigenvalue", "a.packet_center", "a.packet_width",
    "b", "b.basis", "b.eigenvalue", "intermediate",
    "sweep", "sweep.values", "sweep.units", "seed", "constants", "constants.hbar",
    "profile_smoothing", "emergence", "emergence.pairs", "schema_version",
    "propagation", "propagation.tau", "propagation.centers", "propagation.window_width",
    "propagation.scan_halfwidth", "propagation.scan_points",
    "output", "output.directory", "output.format",
)
# Size-like values stay at most 256 or reach 2**70 and beyond, where numpy
# refuses the allocation at once, so no run builds a model larger than the
# bundled ones.
VALUE_POOL = (
    DELETE, None, True, False, 0, 1, -1, 2, 16, 256, 0.5, -0.5, 1e-300,
    1e300, -1e300, 2**70, -(2**70), float("nan"), float("inf"),
    "", "x", "auto", "20", "z", [], [1.0], ["a"], [0.5, 2.0], [[0.5, 0.5]], {},
)


class TestConfigFuzz:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stem=st.sampled_from(sorted(BUNDLED)),
           edits=st.lists(st.tuples(st.sampled_from(FIELD_PATHS), st.sampled_from(VALUE_POOL)),
                          min_size=1, max_size=2))
    def test_every_edited_bundled_config_exits_0_or_2(self, stem, edits):
        cfg = json.loads((CONFIGS / f"{stem}.json").read_text())
        for path, value in edits:
            cfg = mutated(cfg, path, value)
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "cfg.json"
            config.write_text(json.dumps(cfg))
            code = dispatch([BUNDLED[stem], "--config", str(config),
                             "--out", str(Path(tmp) / "out"), "--quiet"])
        assert code in (0, 2)
