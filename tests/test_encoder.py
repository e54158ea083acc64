"""Utterance vector provider tests: hashing determinism, table lookup,
window padding, and configuration fingerprints."""

import os

import numpy as np
import pytest

from chatmine import encoder as enc
from chatmine.encoder import (
    EncoderConfig,
    config_fingerprint,
    encode_tokens,
    load_embedding_table,
    local_windows,
)
from chatmine.errors import ConfigError

CFG = EncoderConfig(dim=800)


def test_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(dim=0)
    with pytest.raises(ConfigError):
        EncoderConfig(window_k=-1)
    with pytest.raises(ConfigError):
        EncoderConfig(provider="magic")
    with pytest.raises(ConfigError):
        EncoderConfig(provider="table")  # needs a path


def test_hash_encoding_deterministic_and_unit_length():
    a = encode_tokens(("build", "fails"), CFG)
    b = encode_tokens(("build", "fails"), CFG)
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
    assert a.shape == (800,)


def test_hash_encoding_empty_tokens_is_zero_vector():
    z = encode_tokens((), CFG)
    assert np.array_equal(z, np.zeros(800))


def test_hash_encoding_depends_on_seed_and_dim():
    base = encode_tokens(("server",), CFG)
    other_seed = encode_tokens(("server",), EncoderConfig(dim=800, seed=9))
    other_dim = encode_tokens(("server",), EncoderConfig(dim=512))
    assert not np.array_equal(base, other_seed)
    assert other_dim.shape == (512,)


def test_token_vectors_have_exactly_the_configured_buckets():
    v = enc._token_hash_vector("deploy", CFG)
    # 3 signed buckets before normalization; collisions would reduce
    # support, which the assertion tolerates downward only
    assert 1 <= np.count_nonzero(v) <= CFG.buckets_per_token
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_no_vector_collisions_across_many_tokens():
    seen = set()
    for i in range(10_000):
        v = encode_tokens((f"tok{i}",), CFG)
        seen.add(v.tobytes())
    assert len(seen) == 10_000


def test_order_invariance_of_the_mean():
    a = encode_tokens(("alpha", "beta", "gamma"), CFG)
    b = encode_tokens(("gamma", "alpha", "beta"), CFG)
    assert np.allclose(a, b, atol=1e-15)


# -- lookup table provider -------------------------------------------------


def write_table(path, rows):
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_table_lookup_and_unknown_row(tmp_path):
    p = tmp_path / "emb.txt"
    write_table(p, ["hot 1 0", "cold 0 1"])
    cfg = EncoderConfig(dim=2, provider="table", table_path=str(p))
    table = load_embedding_table(p, cfg)
    assert np.array_equal(table.vectors["hot"], [1.0, 0.0])
    # unknown token falls back to the mean of all rows
    assert np.array_equal(table.unk, [0.5, 0.5])
    got = encode_tokens(("mystery",), cfg)
    assert np.allclose(got, np.array([0.5, 0.5]) / np.linalg.norm([0.5, 0.5]))


def test_table_duplicate_rows_last_wins(tmp_path):
    p = tmp_path / "emb.txt"
    write_table(p, ["x 1 0", "x 0 1"])
    cfg = EncoderConfig(dim=2, provider="table", table_path=str(p))
    table = load_embedding_table(p, cfg)
    assert table.duplicate_rows == 1
    assert np.array_equal(table.vectors["x"], [0.0, 1.0])


def test_table_dimension_mismatch_rejected(tmp_path):
    p = tmp_path / "emb.txt"
    write_table(p, ["x 1 0 0"])
    with pytest.raises(ConfigError):
        load_embedding_table(p, EncoderConfig(dim=2, provider="table", table_path=str(p)))
    q = tmp_path / "ragged.txt"
    write_table(q, ["x 1 0", "y 1"])
    with pytest.raises(ConfigError):
        load_embedding_table(q, EncoderConfig(dim=2, provider="table", table_path=str(q)))


def test_table_bad_float_and_missing_file(tmp_path):
    p = tmp_path / "emb.txt"
    write_table(p, ["x 1 zebra"])
    with pytest.raises(ConfigError):
        load_embedding_table(p, EncoderConfig(dim=2, provider="table", table_path=str(p)))
    with pytest.raises(ConfigError):
        load_embedding_table(tmp_path / "nope.txt", EncoderConfig(dim=2, provider="table", table_path="nope"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_table_rejects_values_that_are_not_finite(tmp_path, value):
    p = tmp_path / "emb.txt"
    write_table(p, ["x 1 0", f"restart {value} 1"])
    with pytest.raises(ConfigError, match=f"{p}:2: .*not finite"):
        load_embedding_table(p, EncoderConfig(dim=2, provider="table", table_path=str(p)))


# -- local windows ---------------------------------------------------------


def dense_mean_reference(tokens, cfg):
    """encode_tokens as a sum of whole 800-wide token vectors, hashing each
    occurrence."""
    acc = np.zeros(cfg.dim)
    for t in tokens:
        acc += enc._token_hash_vector(t, cfg)
    acc /= len(tokens)
    norm = np.linalg.norm(acc)
    return acc / norm if norm > 0 else acc


def test_token_vectors_hash_each_token_once_and_keep_the_dense_bits(monkeypatch):
    texts = [
        ("build", "fails", "after", "the", "upgrade"),
        ("the", "build", "the", "build"),
        ("pip", "install", "error", "fails"),
        ("x",) * 9,
    ]
    want = [dense_mean_reference(t, CFG) for t in texts]
    calls = []
    real = enc._token_hash_vector
    monkeypatch.setattr(enc, "_token_hash_vector", lambda t, cfg: calls.append(t) or real(t, cfg))
    vectors = enc.TokenVectors(CFG)
    got = [encode_tokens(t, CFG, vectors) for t in texts]
    for a, b in zip(got, want):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    assert sorted(calls) == sorted({t for text in texts for t in text})
    assert all(len(nz) <= CFG.buckets_per_token for nz, _ in vectors.values())


def test_a_table_rewritten_in_place_is_read_again(tmp_path):
    p = tmp_path / "emb.txt"
    write_table(p, ["hot 1 0", "cold 0 1"])
    cfg = EncoderConfig(dim=2, provider="table", table_path=str(p))
    assert np.array_equal(encode_tokens(("hot",), cfg), [1.0, 0.0])
    write_table(p, ["hot 0 1", "cold 1 0"])  # same size: only the mtime tells
    os.utime(p, ns=(1_000_000_000, 1_000_000_000))
    assert np.array_equal(encode_tokens(("hot",), cfg), [0.0, 1.0])
    write_table(p, ["hot 0.5 0", "cold 1 0"])
    assert np.array_equal(encode_tokens(("hot",), cfg), [1.0, 0.0])


def test_window_zero_pads_sequence_edges():
    vecs = np.stack([np.full(4, i + 1.0) for i in range(3)])
    windows, mask = local_windows(vecs, k=1)
    assert windows.shape == (3, 3, 4)
    w = windows[0]
    assert np.array_equal(w[0], np.zeros(4))  # before the start
    assert np.array_equal(w[1], vecs[0])
    assert np.array_equal(w[2], vecs[1])
    assert mask[0].tolist() == [False, True, True]
    assert np.array_equal(windows[2][2], np.zeros(4))  # past the end
    assert mask[2].tolist() == [True, True, False]


def test_window_interior_has_no_padding():
    vecs = np.stack([np.full(2, float(i)) for i in range(5)])
    windows, mask = local_windows(vecs, k=1)
    assert mask[2].tolist() == [True, True, True]
    assert np.array_equal(windows[2], np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))


def test_window_k_zero_is_just_the_center():
    windows, mask = local_windows(np.ones((1, 2)), k=0)
    assert windows.shape == (1, 1, 2)
    assert mask.tolist() == [[True]]


# -- fingerprints ----------------------------------------------------------


def test_fingerprint_stable_and_sensitive_to_config():
    a = config_fingerprint(EncoderConfig(dim=800))
    b = config_fingerprint(EncoderConfig(dim=800))
    assert a == b
    assert config_fingerprint(EncoderConfig(dim=512)) != a
    assert config_fingerprint(EncoderConfig(dim=800, seed=1)) != a
    assert config_fingerprint(EncoderConfig(dim=800, window_k=2)) != a


def test_fingerprint_tracks_table_contents(tmp_path):
    p = tmp_path / "emb.txt"
    write_table(p, ["x 1 0"])
    cfg = EncoderConfig(dim=2, provider="table", table_path=str(p))
    first = config_fingerprint(cfg)
    write_table(p, ["x 0 1"])
    assert config_fingerprint(cfg) != first
