"""Crash-safe writes for every file the tool produces, and strict UTF-8 reads."""
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


def read_text(path: "str | Path", error: type) -> str:
    """The UTF-8 text of ``path``; a byte that is not UTF-8 raises ``error`` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text at byte offset {exc.start}") from None
