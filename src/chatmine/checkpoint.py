"""Model checkpoint files: a canonical JSON manifest followed by one packed
little-endian float32 blob.

Layout: 4-byte little-endian manifest length, the manifest bytes (JSON with
sorted keys and no whitespace), then every parameter's values back to back in
manifest order. Canonical JSON plus sorted parameter names makes save →
load → save byte-identical, which the reproducibility checks rely on.
"""

import json
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

FORMAT_VERSION = 1


def _canonical(manifest):
    return json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, params, extra):
    """params: name -> array-like (Parameter or ndarray). extra: manifest
    fields beyond version/dtype/params (target, configs, statistics)."""
    entries = []
    blobs = []
    offset = 0
    for name in sorted(params):
        p = params[name]
        arr = np.asarray(getattr(p, "data", p), dtype=np.float32)
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(arr.tobytes(order="C"))
        offset += arr.size
    manifest = dict(extra)
    manifest["version"] = FORMAT_VERSION
    manifest["dtype"] = "float32"
    manifest["params"] = entries
    body = _canonical(manifest)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(body)))
        fh.write(body)
        for b in blobs:
            fh.write(b)


class Checkpoint:
    def __init__(self, manifest, params):
        self.manifest = manifest
        self.params = params  # name -> float64 ndarray

    def require(self, names):
        """Fail loudly when the manifest lacks an expected parameter."""
        missing = [n for n in names if n not in self.params]
        if missing:
            raise DataError(
                "checkpoint missing parameter(s): " + ", ".join(sorted(missing))
            )
        return self


_ENTRY_FIELDS = (
    ("name", lambda v: isinstance(v, str)),
    ("shape", lambda v: isinstance(v, list) and all(type(d) is int and d >= 0 for d in v)),
    ("offset", lambda v: type(v) is int and v >= 0),
)


def _param_entry(entry):
    """(name, shape, offset) of one manifest params entry, checked."""
    if not isinstance(entry, dict):
        raise DataError(f"checkpoint params entry is not an object: {entry!r}")
    for field, ok in _ENTRY_FIELDS:
        if not ok(entry.get(field)):
            raise DataError(f"checkpoint params entry field {field!r} missing or malformed: {entry!r}")
    return entry["name"], entry["shape"], entry["offset"]


def load_checkpoint(path):
    p = Path(path)
    if not p.is_file():
        raise DataError(f"checkpoint not found: {p}")
    raw = p.read_bytes()
    if len(raw) < 4:
        raise DataError(f"checkpoint truncated: {p}")
    (mlen,) = struct.unpack("<I", raw[:4])
    if len(raw) < 4 + mlen:
        raise DataError(f"checkpoint manifest truncated: {p}")
    try:
        manifest = json.loads(raw[4 : 4 + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"checkpoint manifest unreadable: {p} ({exc})") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"checkpoint manifest is not an object: {p}")
    if manifest.get("version") != FORMAT_VERSION:
        raise DataError(
            f"checkpoint version {manifest.get('version')} unsupported (want {FORMAT_VERSION})"
        )
    if manifest.get("dtype") != "float32":
        raise DataError(f"checkpoint dtype {manifest.get('dtype')!r} unsupported")
    blob = raw[4 + mlen :]
    values = np.frombuffer(blob, dtype="<f4")
    params = {}
    entries = manifest.get("params", [])
    if not isinstance(entries, list):
        raise DataError("checkpoint manifest field 'params' is not a list")
    for entry in entries:
        name, shape, offset = _param_entry(entry)
        size = int(np.prod(shape)) if shape else 1
        if offset + size > values.size:
            raise DataError(f"checkpoint blob too short for parameter {name!r}")
        params[name] = (
            values[offset : offset + size].astype(np.float64).reshape(shape)
        )
    return Checkpoint(manifest, params)
