import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_stl_monitoring_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "01_stl_monitoring.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "signal with a spike at t=2: satisfied=False" in out


def test_scenario_verification_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "02_scenario_verification.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "perturbation +-0.8: rho_star = -0.261 (FAIL, confidence 0.923)" in out


def test_safe_controller_rollouts_demo_runs(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # the demo writes demo_trace.csv
    runpy.run_path(str(DEMOS / "03_safe_controller_rollouts.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert (
        "episode 7: obstacle at (-0.24, -0.37) heading +1.27 rad at 0.10 m/s | "
        "296 steps, 165 conflict steps, ends by goal   , robustness +0.952"
    ) in out
    assert (tmp_path / "demo_trace.csv").is_file()


def test_expansion_search_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "04_expansion_search.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "verified box: IntervalBox([-0.0022, 0.0022] x [-0.01, 0.01])" in out.splitlines()


def test_masked_training_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "05_masked_training.py"), run_name="__main__")
    out = capsys.readouterr().out
    line = "trained policy, deterministic eval over 20 episodes: +1.633 +- 0.764"
    assert line in out.splitlines()


def test_full_pipeline_demo_runs(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # the demo writes demo_out/
    runpy.run_path(str(DEMOS / "06_full_pipeline.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "  agent    : mean +0.926, std 0.497" in out.splitlines()
    assert (tmp_path / "demo_out").is_dir()
