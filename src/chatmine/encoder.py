"""Fixed-width utterance vectors and the local context windows built on them.

Two interchangeable providers produce token vectors: a seeded feature-hashing
scheme that needs no external file, and a lookup table loaded from disk for
pretrained vectors. An utterance vector is the L2-normalized mean of its
token vectors; windows of 2k+1 neighboring utterance vectors are zero padded
at sequence edges. A TokenVectors map keeps each token's vector, as its few
nonzeros, so a token is hashed once per chat log.
"""

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .fileio import numbered_lines, read_bytes, stamp

_PROVIDERS = ("hash", "table")
# the EncoderConfig fields that change the produced vectors
VECTOR_FIELDS = ("dim", "provider", "window_k", "seed", "buckets_per_token")


@dataclass(frozen=True)
class EncoderConfig:
    dim: int = 800
    provider: str = "hash"
    window_k: int = 1
    seed: int = 0
    table_path: object = None
    buckets_per_token: int = 3

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"encoder dim must be >= 1, got {self.dim}")
        if self.window_k < 0:
            raise ConfigError(f"window_k must be >= 0, got {self.window_k}")
        if self.provider not in _PROVIDERS:
            raise ConfigError(f"unknown encoder provider: {self.provider!r}")
        if self.provider == "table" and self.table_path is None:
            raise ConfigError("table provider needs table_path")
        if self.buckets_per_token < 1:
            raise ConfigError("buckets_per_token must be >= 1")


@dataclass(frozen=True)
class EmbeddingTable:
    vectors: dict
    unk: np.ndarray
    dim: int
    duplicate_rows: int = 0


def config_fingerprint(cfg):
    """Stable hash of everything that changes the produced vectors; stored in
    checkpoints so stale encoder settings are caught at load time."""
    payload = {k: getattr(cfg, k) for k in VECTOR_FIELDS}
    if cfg.provider == "table":
        table = read_bytes(cfg.table_path, "embedding table", ConfigError)
        payload["table_sha256"] = hashlib.sha256(table).hexdigest()
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _token_hash_vector(token, cfg):
    v = np.zeros(cfg.dim)
    for j in range(cfg.buckets_per_token):
        digest = hashlib.blake2b(
            f"{cfg.seed}:{j}:{token}".encode("utf-8"), digest_size=8
        ).digest()
        val = int.from_bytes(digest, "little")
        sign = 1.0 if val & 1 else -1.0
        v[(val >> 1) % cfg.dim] += sign
    norm = np.linalg.norm(v)
    return v / norm if norm > 0 else v


def load_embedding_table(path, cfg):
    """Rows are ``token v1 .. v_dim`` whitespace separated, every value a
    finite number. Later duplicate tokens win; the unknown-token vector is
    the mean row. Dimension must match the config."""
    p = Path(path)
    vectors = {}
    duplicates = 0
    dim = None
    for line_no, line in numbered_lines(p, "embedding table", ConfigError):
        if line.startswith("#"):
            continue
        parts = line.split()
        token, vals = parts[0], parts[1:]
        if dim is None:
            dim = len(vals)
            if dim == 0:
                raise ConfigError(f"{p}:{line_no}: row has no values")
        elif len(vals) != dim:
            raise ConfigError(
                f"{p}:{line_no}: row has {len(vals)} values, expected {dim}"
            )
        if token in vectors:
            duplicates += 1
        try:
            vectors[token] = np.array([float(x) for x in vals])
        except ValueError as exc:
            raise ConfigError(f"{p}:{line_no}: bad float ({exc})") from exc
        if not np.all(np.isfinite(vectors[token])):
            raise ConfigError(f"{p}:{line_no}: row holds values that are not finite")
    if not vectors:
        raise ConfigError(f"embedding table is empty: {p}")
    if dim != cfg.dim:
        raise ConfigError(
            f"embedding table dim {dim} does not match configured dim {cfg.dim}"
        )
    unk = np.mean(list(vectors.values()), axis=0)
    return EmbeddingTable(vectors, unk, dim, duplicates)


@lru_cache(maxsize=4)
def _cached_table(cfg, file_stamp):
    """The table of ``cfg``; ``file_stamp``, its file's, keys the cache."""
    return load_embedding_table(cfg.table_path, cfg)


class TokenVectors(dict):
    """token -> (indices, values) of its vector under one EncoderConfig.
    Each distinct token is hashed once for as long as the map is kept; a
    hashed token keeps only its nonzeros, at most buckets_per_token, as
    lists, so a long log's map stays small. A table token keeps its row, all
    indices, which the table holds already; the table is read as its file
    is when the map is made. Lists live in Python's object arenas: as numpy
    arrays, thousands of small buffers made between extraction's forwards
    kept freed heap resident (the bench's `extract` peak RSS read 56.7-57.2
    MB in three runs with arrays, 54.6-54.7 MB in three with lists)."""

    def __init__(self, cfg):
        super().__init__()
        self.cfg = cfg
        self.table = _cached_table(cfg, stamp(cfg.table_path)) if cfg.provider == "table" else None

    def __missing__(self, token):
        if self.table is not None:
            entry = (slice(None), self.table.vectors.get(token, self.table.unk))
        else:
            v = _token_hash_vector(token, self.cfg)
            nz = np.flatnonzero(v)
            entry = (nz.tolist(), v[nz].tolist())
        self[token] = entry
        return entry


def encode_tokens(tokens, cfg, vectors=None):
    """Mean of token vectors, L2 normalized; no tokens gives the zero
    vector. ``vectors``, a TokenVectors of ``cfg``, keeps the token vectors
    for later calls. Adding a vector's nonzeros alone gives the bits of
    adding the whole vector: x + 0.0 is x for every x but -0.0, and the
    running sum starts at +0.0 and never becomes -0.0."""
    if not tokens:
        return np.zeros(cfg.dim)
    if vectors is None:
        vectors = TokenVectors(cfg)
    acc = np.zeros(cfg.dim)
    for t in tokens:
        nz, values = vectors[t]
        acc[nz] += values
    acc /= len(tokens)
    norm = np.linalg.norm(acc)
    return acc / norm if norm > 0 else acc


def local_windows(vectors, k):
    """The window of 2k+1 neighboring rows around every row of an (n, d)
    array, zero padded past both ends: an (n, 2k+1, d) array and the
    (n, 2k+1) mask that is True on real rows."""
    n, dim = vectors.shape
    padded = np.zeros((n + 2 * k, dim))  # np.pad takes three times as long
    padded[k : k + n] = vectors
    live = np.zeros(n + 2 * k, dtype=bool)
    live[k : k + n] = True
    view = np.lib.stride_tricks.sliding_window_view
    return view(padded, 2 * k + 1, axis=0).transpose(0, 2, 1), view(live, 2 * k + 1)
