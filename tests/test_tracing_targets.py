"""perfbench's tracer wraps saferl functions by module and attribute path,
and reports a target it cannot find only as absent.  Every target must
exist, so that renaming one fails here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "module_name, path", [t[:2] for t in tracing.TARGETS], ids=[t[2] for t in tracing.TARGETS]
)
def test_tracer_target_exists(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module_name}.{path}: no {part!r} on {owner!r}"
        owner = getattr(owner, part)
    assert callable(owner)
