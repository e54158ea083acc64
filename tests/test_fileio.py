"""The shared line reader and file writer: line splitting, encodings, and
failures as data errors."""

import errno
import io
from pathlib import Path

import pytest

from chatmine import fileio
from chatmine.errors import DataError


def test_lines_end_at_newlines_only(tmp_path):
    p = tmp_path / "f.txt"
    p.write_bytes("a b\u0085c d\ne\r\nf\rg\n".encode("utf-8"))
    assert fileio.read_lines(p) == ["a b\u0085c d", "e", "f", "g", ""]


def test_bytes_that_are_not_utf8_name_their_line(tmp_path):
    p = tmp_path / "f.txt"
    p.write_bytes(b"ok\nstill ok\ncaf\xe9\n")
    with pytest.raises(DataError, match=r"f\.txt:3: not UTF-8 text \(byte 0xe9\)"):
        fileio.read_lines(p)


def test_a_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    class FullDisk(io.FileIO):
        def write(self, b):
            super().write(b[:1])
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(fileio, "open", lambda path, mode: FullDisk(path, mode), raising=False)
    out = tmp_path / "out.jsonl"
    with pytest.raises(DataError, match="cannot write .*: No space left on device"):
        fileio.write_file(out, "some text")
    assert not out.exists()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_a_failed_write_to_a_device_keeps_the_device():
    with pytest.raises(DataError, match="cannot write /dev/full: No space left on device"):
        fileio.write_file("/dev/full", b"x" * 100_000)
    assert Path("/dev/full").exists()
