"""Atomic artifact writes.

:func:`atomic_open` writes to a temporary file in the target's directory and
moves it over the target with ``os.replace`` only once the block has
finished, so a reader sees either the previous file or the complete new one,
never a partial write.  If the block raises, the temporary file is removed
and the previous file is left as it was.  The data is not fsynced: the
guarantee covers a crash of the writing process, not a power loss.

:func:`write_json` is the one writer of JSON artifacts (reports, manifests,
policy sidecars), so it alone fixes their byte format.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

__all__ = ["atomic_open", "write_json"]


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """``open(path, mode, **kwargs)`` for writing, replaced atomically on exit."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """Write ``obj`` atomically as JSON: 2-space indent, sorted keys and a
    trailing newline."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
