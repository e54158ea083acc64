"""Model checkpoint files: a canonical JSON manifest followed by one packed
little-endian float32 blob.

Layout: 4-byte little-endian manifest length, the manifest bytes (JSON with
sorted keys and no whitespace), then every parameter's values back to back in
manifest order. Canonical JSON plus sorted parameter names makes save →
load → save byte-identical, which the reproducibility checks rely on.
"""

import json
import math
import struct

import numpy as np

from . import nn
from .errors import DataError
from .fileio import read_bytes, write_file

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
    write_file(path, struct.pack("<I", len(body)), body, *blobs)


class Checkpoint:
    def __init__(self, manifest, params):
        self.manifest = manifest
        self.params = params  # name -> float64 ndarray

    def field(self, name, build):
        """``build`` applied to a manifest field; a DataError naming the
        field when it is missing or ``build`` rejects it."""
        try:
            return build(self.manifest[name])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(
                f"checkpoint manifest field {name!r} missing or malformed ({exc})"
            ) from exc

    def require(self, shapes):
        """The expected parameters (name -> shape) as a name -> Parameter
        dict; a DataError names any that is missing or of another shape."""
        for name, shape in shapes.items():
            if name not in self.params:
                raise DataError(f"checkpoint missing parameter {name!r}")
            if self.params[name].shape != tuple(shape):
                raise DataError(
                    f"checkpoint parameter {name!r} has shape "
                    f"{list(self.params[name].shape)}, expected {list(shape)}"
                )
        return {name: nn.Parameter(name, self.params[name]) for name in shapes}


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
    raw = read_bytes(path, "checkpoint")
    if len(raw) < 4:
        raise DataError(f"checkpoint truncated: {path}")
    (mlen,) = struct.unpack("<I", raw[:4])
    if len(raw) < 4 + mlen:
        raise DataError(f"checkpoint manifest truncated: {path}")
    try:
        manifest = json.loads(raw[4 : 4 + mlen].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, as in fileio.read_jsonl
        raise DataError(f"checkpoint manifest unreadable: {path} ({exc})") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"checkpoint manifest is not an object: {path}")
    if manifest.get("version") != FORMAT_VERSION:
        raise DataError(
            f"checkpoint version {manifest.get('version')} unsupported (want {FORMAT_VERSION})"
        )
    if manifest.get("dtype") != "float32":
        raise DataError(f"checkpoint dtype {manifest.get('dtype')!r} unsupported")
    blob = raw[4 + mlen :]
    if len(blob) % 4:
        raise DataError(f"checkpoint blob of {len(blob)} bytes is not whole float32 values: {path}")
    values = np.frombuffer(blob, dtype="<f4")
    params = {}
    entries = manifest.get("params", [])
    if not isinstance(entries, list):
        raise DataError("checkpoint manifest field 'params' is not a list")
    for entry in entries:
        name, shape, offset = _param_entry(entry)
        size = math.prod(shape)
        if offset + size > values.size:
            raise DataError(f"checkpoint blob too short for parameter {name!r}")
        data = values[offset : offset + size]
        if not np.all(np.isfinite(data)):
            raise DataError(f"checkpoint parameter {name!r} holds values that are not finite")
        params[name] = data.astype(np.float64).reshape(shape)
    return Checkpoint(manifest, params)
