"""Reading and writing the toolkit's files, with failures as data errors.

Every text input (JSONL logs and labeled data, config files, lexicons,
embedding tables) is UTF-8 with one record per ``\\n``-ended line; ``\\r\\n`` and
``\\r`` read as ``\\n``. Other line separators (U+2028, U+2029, U+0085), which
``json.dumps(..., ensure_ascii=False)`` writes raw inside strings, stay part of
their line. Blank lines carry no record. A read error names the kind of file
(``kind``) and is raised as ``error``, so config-named files fail as
ConfigError. A write that fails removes the output file it left half written.
"""

import contextlib
import json
from pathlib import Path

from .errors import DataError


def read_bytes(path, kind, error=DataError):
    """The bytes of the file at ``path``."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {kind} {path}: {exc.strerror or exc}") from exc


def stamp(path):
    """The (size, mtime in ns) of the file at ``path``, or None when it cannot
    be read: a cache of what a file holds keys on it, so a file rewritten in
    place is read again."""
    try:
        st = Path(path).stat()
    except OSError:
        return None
    return st.st_size, st.st_mtime_ns


def read_lines(path, kind="file", error=DataError):
    """The lines of the UTF-8 text file at ``path``; an ``error`` names the
    line of the first byte that is not UTF-8."""
    data = read_bytes(path, kind, error)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise error(
            f"{path}:{line_no}: not UTF-8 text (byte 0x{data[exc.start]:02x})"
        ) from exc
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def numbered_lines(path, kind, error=DataError):
    """``(line number, line)`` for each line of ``path`` that is not blank."""
    lines = read_lines(path, kind, error)
    return [(no, line) for no, line in enumerate(lines, 1) if line.strip()]


def read_jsonl(path, kind, on_invalid=None):
    """``(line number, value)`` for each non-blank line of the JSONL file at
    ``path``, in order. A line that is not JSON raises a DataError naming
    ``path:line``, or, given ``on_invalid``, is passed to it by number and
    skipped."""
    for line_no, line in numbered_lines(path, kind):
        try:
            value = json.loads(line)
        # a ValueError also for an integer of over 4300 digits; a
        # RecursionError for arrays or objects nested too deep
        except (ValueError, RecursionError) as exc:
            if on_invalid is None:
                raise DataError(f"{path}:{line_no}: invalid json") from exc
            on_invalid(line_no)
            continue
        yield line_no, value


def jsonl_text(records):
    """JSONL text of ``records``: one JSON value per line, keys sorted at every
    depth and non-ASCII characters kept as they are."""
    return "".join(json.dumps(r, sort_keys=True, ensure_ascii=False) + "\n" for r in records)


def write_jsonl(path, records):
    write_file(path, jsonl_text(records))


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
