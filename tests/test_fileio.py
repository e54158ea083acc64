"""The shared line reader and file writer: line splitting, encodings, and
failures as data errors."""

import errno
import io
from pathlib import Path

import pytest

from chatmine import fileio
from chatmine.errors import ConfigError, DataError


def test_lines_end_at_newlines_only(tmp_path):
    p = tmp_path / "f.txt"
    p.write_bytes("a b\u0085c d\ne\r\nf\rg\n".encode("utf-8"))
    assert fileio.read_lines(p) == ["a b\u0085c d", "e", "f", "g", ""]


def test_bytes_that_are_not_utf8_name_their_line(tmp_path):
    p = tmp_path / "f.txt"
    p.write_bytes(b"ok\nstill ok\ncaf\xe9\n")
    with pytest.raises(DataError, match=r"f\.txt:3: not UTF-8 text \(byte 0xe9\)"):
        fileio.read_lines(p)


def test_jsonl_reader_numbers_values_and_skips_blank_lines(tmp_path):
    p = tmp_path / "f.jsonl"
    # line 7 is an integer too long for int(), line 8 nests too deep to parse
    lines = ['{"a": 1}', "", "  ", "[2]", "nope", '"x"', "9" * 5000, "[" * 100_000]
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"f\.jsonl:5: invalid json"):
        list(fileio.read_jsonl(p, "log"))
    invalid = []
    assert list(fileio.read_jsonl(p, "log", invalid.append)) == [(1, {"a": 1}), (4, [2]), (6, "x")]
    assert invalid == [5, 7, 8]


@pytest.mark.parametrize("error", [DataError, ConfigError])
def test_a_file_that_cannot_be_read_names_its_kind(tmp_path, error):
    for path, why in ((tmp_path / "nope", "No such file"), (tmp_path, "Is a directory")):
        with pytest.raises(error, match=f"cannot read lexicon file {path}: {why}"):
            fileio.read_lines(path, "lexicon file", error)


def test_jsonl_text_sorts_keys_at_every_depth_and_keeps_non_ascii():
    records = [{"b": {"z": 1, "y": (2, 3)}, "a": "caf\u00e9\u2028"}, [1]]
    assert fileio.jsonl_text(records) == '{"a": "caf\u00e9\u2028", "b": {"y": [2, 3], "z": 1}}\n[1]\n'
    assert fileio.jsonl_text([]) == ""


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
