"""Atomic artifact writes.

:func:`atomic_open` writes to a temporary file in the target's directory and
moves it over the target with ``os.replace`` only once the block has
finished, so a reader sees either the previous file or the complete new one,
never a partial write, and the target path is never absent.  If the block
raises, the temporary file is removed and the previous file is left as it
was.

Before the rename the written range is allocated with ``posix_fallocate``.
On a filesystem with delayed allocation (ext4 with its default
``auto_da_alloc``), renaming a file over an existing one starts writeback
of the new file's unallocated blocks and waits for it; a file whose blocks
are allocated has nothing left to flush there, so a replace costs about as
much as a write under a new name.  Where ``posix_fallocate`` is missing, or
the filesystem does not support it (``EOPNOTSUPP`` or ``EINVAL``), the file
is renamed without it.  Any other error, such as ``ENOSPC``, fails the write
like an error in the block.

The data is not fsynced: the guarantee covers a crash of the writing
process, not a power loss.  After a power loss a replaced artifact may read
back with any of its pages, or all of them, zeroed.  Without the
preallocation that outcome is only less likely, not excluded, and an
``fsync`` would cost as much as the writeback above.  A zero byte anywhere
in a JSON artifact makes it invalid JSON, so a stage reading back
``expansion.json`` or a policy sidecar fails with an input error (exit 2).
The policy binary has no checksum, and zeroed payload pages would load as
weights, so :func:`saferl.ppo.save_policy` fsyncs it inside the block.

:func:`write_json` is the one writer of JSON artifacts (reports, manifests,
policy sidecars), so it alone fixes their byte format.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
from pathlib import Path

__all__ = ["atomic_open", "write_json"]

# errnos with which posix_fallocate reports a filesystem that cannot do it
_FALLOCATE_UNSUPPORTED = {errno.EOPNOTSUPP, errno.EINVAL}


def _allocate(fh) -> None:
    """Allocate the blocks of everything written to ``fh`` so far."""
    fh.flush()
    fd = fh.fileno()
    size = os.fstat(fd).st_size  # fh.tell() is an opaque cookie in text mode
    if size > 0 and hasattr(os, "posix_fallocate"):
        try:
            os.posix_fallocate(fd, 0, size)
        except OSError as exc:
            if exc.errno not in _FALLOCATE_UNSUPPORTED:
                raise


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """``open(path, mode, **kwargs)`` for writing, replaced atomically on exit."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            _allocate(fh)
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
