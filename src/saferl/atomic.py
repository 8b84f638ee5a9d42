"""Atomic artifact writes.

:func:`atomic_open` writes to a temporary file in the target's directory and
moves it over the target with ``os.replace`` only once the block has
finished, so a reader sees either the previous file or the complete new one,
never a partial write.  If the block raises, the temporary file is removed
and the previous file is left as it was.  The data is not fsynced: the
guarantee covers a crash of the writing process, not a power loss.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

__all__ = ["atomic_open"]


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
