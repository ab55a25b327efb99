"""Atomic file writes: a temp file beside the target, then one rename.

Readers never see a partly written file, and a failed write leaves the
previous file as it was. This module imports nothing from the package, so
every module that writes files can use it.
"""

from __future__ import annotations

import os
import threading


class StoreError(Exception):
    """Base class for persistence failures."""


def write_atomic(path, chunks) -> None:
    """Write an iterable of chunks (bytes or C-contiguous arrays) to `path`, in order.

    The iterable is consumed lazily: each chunk is written before the next is
    asked for, so a generator may hand out one reused buffer. If it raises,
    the previous file stays as it was. The temp name is unique per process
    and thread, so concurrent writers of one path never share a temp file;
    the last rename wins.
    """
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except OSError as exc:
        raise StoreError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
