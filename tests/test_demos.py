import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_stl_monitoring_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "01_stl_monitoring.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "signal with a spike at t=2: satisfied=False" in out
