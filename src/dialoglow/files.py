"""Crash-safe writes for every file the tool produces."""
from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: "str | Path", data: "bytes | bytearray | memoryview") -> None:
    """Replace ``path`` with ``data``; readers see the old file or the new one, never a part.

    The bytes go to a temp file in the same directory, which one rename
    then puts in place. There is no fsync, so this survives a crashed or
    interrupted process, not a power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
