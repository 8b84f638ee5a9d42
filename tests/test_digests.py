"""Every stage artifact's bytes, pinned.

The five stages run in process at a reduced scale into a relative ``out``
directory (the manifests record the policy path): ``verify-safe`` and
``expand`` at the default N = 50, ``train`` for one 2048-step update window
with 8 lockstep evaluation episodes and 8 pilot episodes (4 per corner,
played one by one), then ``verify-agent`` and ``histogram`` (n = 50) with
``out/policy.bin``.  The sha256 of every file written must equal
``stage_digests.json``, which also records the numpy, BLAS and Python the
digests were taken with.

A deliberate re-baseline replaces ``stage_digests.json`` with the JSON that
a failing run prints, in the same change that moves the bytes.
"""

import hashlib
import json
import platform
from dataclasses import replace
from pathlib import Path

import numpy as np

from saferl.pipeline import (
    default_config,
    run_expand,
    run_histogram,
    run_train,
    run_verify_agent,
    run_verify_safe,
)

RECORD = Path(__file__).with_name("stage_digests.json")


def platform_record() -> dict:
    """The numpy version, its BLAS build (without the build's directories)
    and the Python version."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {k: v for k, v in blas.items() if not k.endswith("directory")},
        "python": platform.python_version(),
    }


def test_stage_artifacts_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = default_config()
    training = cfg.training
    ppo = replace(training.ppo, steps=2048, eval_episodes=8)
    cfg = replace(
        cfg,
        training=replace(training, ppo=ppo, pilot_episodes=8),
        histogram=replace(cfg.histogram, n_samples=50),
    )
    out, policy = Path("out"), Path("out") / "policy.bin"
    run_verify_safe(cfg, out)
    run_expand(cfg, out)
    run_train(cfg, out)
    run_verify_agent(cfg, policy, out)
    run_histogram(cfg, policy, out)
    got = {
        **platform_record(),
        "digests": {
            path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(p for p in out.rglob("*") if p.is_file())
        },
    }
    want = json.loads(RECORD.read_text())
    platform_got = {k: got[k] for k in ("numpy", "blas", "python")}
    platform_want = {k: want[k] for k in ("numpy", "blas", "python")}
    assert platform_got == platform_want, (
        f"digests were recorded on {platform_want}, this run is on {platform_got}"
    )
    assert got["digests"] == want["digests"], (
        "stage artifacts differ from stage_digests.json; a deliberate "
        f"re-baseline replaces it with:\n{json.dumps(got, indent=2, sort_keys=True)}"
    )
