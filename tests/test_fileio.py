from __future__ import annotations

import os
import stat

import pytest

from readweight import _fileio


def test_atomic_write_syncs_file_then_renames_then_syncs_directory(tmp_path, monkeypatch):
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        real_fsync(fd)

    def replace(src, dst):
        calls.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(_fileio.os, "fsync", fsync)
    monkeypatch.setattr(_fileio.os, "replace", replace)
    target = tmp_path / "artifact.bin"
    _fileio.atomic_write_bytes(target, b"payload")
    assert calls == ["fsync file", "replace", "fsync dir"]
    assert target.read_bytes() == b"payload"
    assert os.listdir(tmp_path) == ["artifact.bin"]


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def replace(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(_fileio.os, "replace", replace)
    with pytest.raises(OSError, match="disk gone"):
        _fileio.atomic_write_text(tmp_path / "artifact.txt", "text")
    assert os.listdir(tmp_path) == []
