"""Run the five CLI stages at the default configuration and print the
sha256 of every file they write.

    python tools/stage_digests.py OUT

``OUT`` must not exist or be empty.  The stages run in order, each as its
own ``python -m saferl.cli`` process on this checkout's ``src``:
``verify-safe``, ``expand``, ``train``, then ``verify-agent`` and
``histogram`` with ``--policy OUT/policy.bin``, all with ``--out OUT``.
Each file under ``OUT`` is then printed as ``sha256  path``, sorted by
path, as ``sha256sum`` prints it.  The manifests record the policy path,
so two checkouts compare byte for byte only when run into the same
directory, emptied in between.  Exits 2 when a stage exits with an error
(an unsafe verdict, exit 1, still writes its artifacts).

Each stage's wall time and peak resident set size (``ru_maxrss`` from
``os.wait4``), interpreter start included, go to stderr, so stdout stays
the digests alone and two trees' outputs compare with ``cmp``.

The tier-1 test ``tests/test_digests.py`` pins the sha256 of the same 18
files on every test run, written by the same five stages at a reduced
scale (``tests/stage_digests.json``); this tool checks the default scale.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty; give a new or empty directory", file=sys.stderr)
        return 2
    policy = str(out / "policy.bin")
    stages = (
        ["verify-safe"],
        ["expand"],
        ["train"],
        ["verify-agent", "--policy", policy],
        ["histogram", "--policy", policy],
    )
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    for stage in stages:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "saferl.cli", *stage, "--out", str(out)],
            env=env,
            stdout=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - started
        peak = usage.ru_maxrss / 1024  # kB on Linux
        print(f"{stage[0]}: {wall:.2f} s, peak RSS {peak:.1f} MB", file=sys.stderr)
        if code not in (0, 1):
            print(f"stage {stage[0]} exited {code}", file=sys.stderr)
            return 2
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
