import json
import math

import numpy as np
import pytest

from actionlab.cli import dispatch, dump_config, load_config

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
        dumped.write_text(dump_config(cfg1))
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
