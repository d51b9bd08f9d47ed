"""Durable atomic file writes: temp file in the target directory, fsync,
rename, then fsync the directory so the rename itself survives a crash
(Pillai et al., "All File Systems Are Not Created Equal", OSDI 2014)."""

from __future__ import annotations

import os
import tempfile


def atomic_write_bytes(path: str | os.PathLike[str], data: bytes) -> None:
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def atomic_write_text(path: str | os.PathLike[str], text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
