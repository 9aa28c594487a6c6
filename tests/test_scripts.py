import importlib.util
import sys
from pathlib import Path

import pytest

from actionlab import experiments, models

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestClassicalityReport:
    def run(self, monkeypatch, capsys, *args: str):
        report = load_script("classicality_report")
        # The filter widths of the sweep's profile and of the emergence
        # block's stacked core, in call order.
        widths = []
        profile, core = experiments.action_profile, experiments._profile_rows

        def recording(*a, smoothing, **kw):
            widths.append(smoothing)
            return profile(*a, smoothing=smoothing, **kw)

        def recording_core(*a, kernel, **kw):
            widths.append(kernel.resolution if kernel else 0.0)
            return core(*a, kernel=kernel, **kw)

        monkeypatch.setattr(experiments, "action_profile", recording)
        monkeypatch.setattr(experiments, "_profile_rows", recording_core)
        monkeypatch.setattr(sys, "argv", ["classicality_report.py", *args])
        report.main()
        return capsys.readouterr().out.splitlines(), widths

    def test_spin20_prints_stationary_points_and_sweep(self, monkeypatch, capsys):
        lines, widths = self.run(monkeypatch, capsys, "--j", "20", "--xa", "10", "--xb", "10")
        found = [line for line in lines if line.lstrip().startswith("classical x*")]
        assert len(found) == 2 and all("found" in line for line in found)
        sweep = [line for line in lines if "dx_m: disturbance" in line]
        assert len(sweep) == 4
        assert [line.split()[0] for line in sweep] == ["0.25", "1", "4", "16"]
        # One profile for the emergence row and one for the sweep, both filtered.
        assert widths == [pytest.approx(models.SPIN_PROFILE_SMOOTHING_SPACINGS)] * 2

    def test_two_state_profile_stays_bare(self, monkeypatch, capsys):
        # The CLI's policy (profile_smoothing_for) leaves j = 1/2 unfiltered.
        lines, widths = self.run(monkeypatch, capsys, "--j", "0.5", "--xa", "0.5", "--xb", "0.5")
        assert lines[0].startswith("spin j=0.5")
        assert widths == [0.0]
