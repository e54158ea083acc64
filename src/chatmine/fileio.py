"""Reading and writing the toolkit's files, with failures as data errors.

Every text input (JSONL logs and labeled data, config files, lexicons,
embedding tables) is UTF-8 with one record per ``\\n``-ended line; ``\\r\\n`` and
``\\r`` read as ``\\n``. Other line separators (U+2028, U+2029, U+0085), which
``json.dumps(..., ensure_ascii=False)`` writes raw inside strings, stay part of
their line. A write that fails removes the output file it left half written.
"""

import contextlib
from pathlib import Path

from .errors import DataError


def read_lines(path):
    """The lines of the UTF-8 text file at ``path``; a DataError names the
    line of the first byte that is not UTF-8."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise DataError(
            f"{path}:{line_no}: not UTF-8 text (byte 0x{data[exc.start]:02x})"
        ) from exc
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def check_writable(path):
    """A DataError unless ``path`` could be created or replaced as a file:
    it must not be a directory, and its directory must exist."""
    p = Path(path)
    if p.is_dir():
        raise DataError(f"cannot write {p}: it is a directory")
    if not p.parent.is_dir():
        raise DataError(f"cannot write {p}: no directory {p.parent}")


def write_file(path, *chunks):
    """Write ``chunks`` (str as UTF-8, or bytes) to ``path``, replacing it. A
    failure is a DataError, and a regular file it left half written is
    removed."""
    p = Path(path)
    opened = False
    try:
        data = [c.encode("utf-8") if isinstance(c, str) else c for c in chunks]
        with open(p, "wb") as fh:
            opened = True
            for b in data:
                fh.write(b)
    except (OSError, UnicodeEncodeError) as exc:
        if opened and p.is_file() and not p.is_symlink():
            with contextlib.suppress(OSError):
                p.unlink()
        raise DataError(f"cannot write {p}: {getattr(exc, 'strerror', None) or exc}") from exc
