"""Classifier head, training loop, checkpoints, and pair assembly.

Threshold and gating behavior is pinned with stubbed probabilities; the
trained-model quality gates live in the acceptance suite.
"""

import math
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chatmine import checkpoint as ckpt_io
from chatmine import disentangle as dis
from chatmine import encoder as enc
from chatmine import model as mdl
from chatmine import nn
from chatmine.corpus import PreprocessConfig, parse_chat_log, preprocess_chat_log
from chatmine.disentangle import assemble_dialogs, heuristic_link_scorer
from chatmine.encoder import EncoderConfig, encode_tokens
from chatmine.errors import ConfigError, ContractViolation, DataError
from chatmine.features import ConvStackSpec
from chatmine.model import (
    DialogEmbedder,
    ModelConfig,
    build_examples,
    extract_pairs,
    forward_logits,
    init_model_params,
    load_labeled_dialogs,
    load_model_checkpoint,
    pairs_to_jsonl,
    save_model_checkpoint,
    train_model,
)

TINY_ENC = EncoderConfig(dim=16)
TINY_SPEC = ConvStackSpec(kernel_counts=(4, 4, 256))


# -- configuration ---------------------------------------------------------


def test_model_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(issue_threshold=0.1)
    with pytest.raises(ConfigError):
        ModelConfig(solution_threshold=0.9)
    with pytest.raises(ConfigError):
        ModelConfig(dropout=1.0)
    with pytest.raises(ConfigError):
        ModelConfig(patience=0)
    with pytest.raises(ConfigError):
        ModelConfig(batch_size=0)
    for lr in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            ModelConfig(lr=lr)
    cfg = ModelConfig()
    assert (cfg.batch_size, cfg.dropout, cfg.lr, cfg.beta1) == (8, 0.6, 0.001, 0.9)
    assert (cfg.max_epochs, cfg.patience) == (100, 5)
    assert (cfg.issue_threshold, cfg.solution_threshold) == (0.5, 0.4)


# -- labeled data loading --------------------------------------------------


def test_fixture_corpus_loads_balanced(labeled_corpus):
    assert len(labeled_corpus.dialogs) == 40
    assert sum(d.y_issue for d in labeled_corpus.dialogs) == 20
    assert set(labeled_corpus.logs) == {"alpha", "beta"}
    for log in labeled_corpus.logs.values():
        assert [u.index for u in log.utterances] == list(range(len(log.utterances)))


def test_solution_labels_align_with_bodies(labeled_corpus):
    for ld in labeled_corpus.dialogs:
        log = labeled_corpus.logs[ld.community_id]
        assert ld.dialog == dis.split_head_body(ld.dialog.members, (), log)
        if ld.y_issue:
            assert len(ld.y_solution) == len(ld.dialog.body_indices)
        else:
            assert ld.y_solution == ()


def write_jsonl(path, objs):
    import json

    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n", encoding="utf-8")


def test_load_rejects_misaligned_solution_labels(tmp_path, pre_cfg):
    p = tmp_path / "bad.jsonl"
    write_jsonl(
        p,
        [
            {
                "community_id": "c",
                "utterances": [
                    {"time": 1, "id": "a", "text": "why does it crash ?"},
                    {"time": 2, "id": "b", "text": "reinstall it"},
                ],
                "y_issue": 1,
                "y_solution": [1, 0, 0],
            }
        ],
    )
    with pytest.raises(DataError, match="y_solution length"):
        load_labeled_dialogs(p, pre_cfg)


def test_load_rejects_solution_labels_on_non_issue(tmp_path, pre_cfg):
    p = tmp_path / "bad.jsonl"
    write_jsonl(
        p,
        [
            {
                "community_id": "c",
                "utterances": [
                    {"time": 1, "id": "a", "text": "hello"},
                    {"time": 2, "id": "b", "text": "hi"},
                ],
                "y_issue": 0,
                "y_solution": [1],
            }
        ],
    )
    with pytest.raises(DataError, match="non-issue"):
        load_labeled_dialogs(p, pre_cfg)


def test_load_rejects_bad_json_with_line_number(tmp_path, pre_cfg):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"community_id": "c"\n', encoding="utf-8")
    with pytest.raises(DataError, match=":1"):
        load_labeled_dialogs(p, pre_cfg)


def test_load_missing_file(tmp_path, pre_cfg):
    with pytest.raises(DataError):
        load_labeled_dialogs(tmp_path / "nope.jsonl", pre_cfg)


# -- embedding -------------------------------------------------------------


def issue_dialog_with_body(corpus, min_body=3):
    for ld in corpus.dialogs:
        if ld.y_issue and len(ld.y_solution) >= min_body:
            return ld
    raise AssertionError("fixture lacks a suitable issue dialog")


def test_embedder_emits_head_plus_body_examples(labeled_corpus, small_enc):
    ld = issue_dialog_with_body(labeled_corpus)
    emb = DialogEmbedder(labeled_corpus.logs[ld.community_id], small_enc)
    head_ex, body_exs = emb.examples_for(ld.dialog, ld.y_issue, ld.y_solution)
    assert head_ex.label == 1
    assert head_ex.utt_index == ld.dialog.subject
    # the head sits at sequence start, so the left window slot is padding
    assert not head_ex.pad_mask[0] or len(ld.dialog.members) == 1
    assert head_ex.window.shape == (3, small_enc.dim)
    assert len(body_exs) == len(ld.y_solution)
    for ex, y in zip(body_exs, ld.y_solution):
        assert ex.label == y
        assert ex.heur.shape == (29,)


def test_build_examples_counts(labeled_corpus, small_enc):
    examples = build_examples(labeled_corpus, small_enc)
    assert set(examples) == {"issue", "solution"}
    issue_exs = examples["issue"]
    assert len(issue_exs) == 40
    assert {e.label for e in issue_exs} == {0, 1}
    # one head example per dialog, in file order, tagged with its community
    assert [e.utt_index for e in issue_exs] == [d.dialog.subject for d in labeled_corpus.dialogs]
    assert [e.community_id for e in issue_exs] == [d.community_id for d in labeled_corpus.dialogs]
    sol_exs = examples["solution"]
    want = sum(len(d.y_solution) for d in labeled_corpus.dialogs if d.y_issue)
    assert len(sol_exs) == want
    assert {e.label for e in sol_exs} == {0, 1}
    with pytest.raises(ConfigError, match="unknown target 'reply'"):
        train_model(issue_exs, "reply", ModelConfig(), small_enc)


# -- forward pass ----------------------------------------------------------


def tiny_params(seed=0):
    return init_model_params(np.random.default_rng(seed), TINY_ENC.dim, TINY_SPEC)


def tiny_example(labeled_corpus):
    emb = DialogEmbedder(labeled_corpus.logs["alpha"], TINY_ENC)
    ld = [d for d in labeled_corpus.dialogs if d.community_id == "alpha"][0]
    head_ex, _ = emb.examples_for(ld.dialog, ld.y_issue, ld.y_solution)
    return head_ex


def tiny_bundle(params, stats=None, cfg=None):
    return mdl.ModelBundle(params, stats, "issue", cfg or ModelConfig(), TINY_SPEC)


def test_loss_equals_neg_log_predicted_probability(labeled_corpus):
    ex = tiny_example(labeled_corpus)
    params = tiny_params()
    stats = None
    cfg = ModelConfig()
    logits = forward_logits([ex], params, TINY_SPEC, stats, cfg)
    loss1 = float(nn.softmax_cross_entropy(logits, [1]).data)
    p1 = tiny_bundle(params, stats, cfg).proba([ex])[0]
    assert loss1 == pytest.approx(-math.log(p1), abs=1e-9)
    loss0 = float(nn.softmax_cross_entropy(forward_logits([ex], params, TINY_SPEC, stats, cfg), [0]).data)
    assert loss0 == pytest.approx(-math.log(1.0 - p1), abs=1e-9)


def test_forward_is_deterministic_outside_training(labeled_corpus):
    ex = tiny_example(labeled_corpus)
    params = tiny_params()
    cfg = ModelConfig()
    a = forward_logits([ex], params, TINY_SPEC, None, cfg).data
    b = forward_logits([ex], params, TINY_SPEC, None, cfg).data
    assert np.array_equal(a, b)


def test_forward_outside_training_applies_no_dropout_and_draws_nothing(labeled_corpus):
    ex = tiny_example(labeled_corpus)
    params = tiny_params()
    cfg = ModelConfig()
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    a = forward_logits([ex], params, TINY_SPEC, None, cfg, rng, training=False).data
    assert rng.bit_generator.state == state
    assert np.array_equal(a, forward_logits([ex], params, TINY_SPEC, None, cfg).data)


def test_forward_outside_training_builds_no_graph(labeled_corpus):
    # the params are Parameters, as after loading a checkpoint or during
    # validation, but only a training forward needs their gradients
    exs = varied_examples(labeled_corpus, 1)[:4]
    params = tiny_params()
    assert all(isinstance(p, nn.Parameter) for p in params.values())
    logits = forward_logits(exs, params, TINY_SPEC, None, ModelConfig())
    assert not logits.requires_grad
    assert logits._parents == () and logits._backward is None


def test_training_mode_dropout_changes_activations(labeled_corpus):
    ex = tiny_example(labeled_corpus)
    params = tiny_params()
    cfg = ModelConfig()
    rng = np.random.default_rng(0)
    a = forward_logits([ex], params, TINY_SPEC, None, cfg, rng, training=True).data
    b = forward_logits([ex], params, TINY_SPEC, None, cfg, rng, training=True).data
    assert not np.array_equal(a, b)


def varied_examples(labeled_corpus, k):
    """Heads and bodies from several dialogs: padded window edges, rows on
    both attention branches (score / sum and the uniform fallback)."""
    enc_cfg = EncoderConfig(dim=16, window_k=k)
    emb = DialogEmbedder(labeled_corpus.logs["alpha"], enc_cfg)
    out = []
    for ld in [d for d in labeled_corpus.dialogs if d.community_id == "alpha"][:4]:
        head, body = emb.examples_for(ld.dialog, ld.y_issue, ld.y_solution)
        out += [head] + body
    return out


def attention_total(ex, params):
    """The damped score sum that picks the attention branch of one row."""
    k = len(ex.pad_mask) // 2
    hq = params["attn.wq"].data @ ex.window[k]
    return sum(
        (hq @ (params["attn.wk"].data @ ex.window[s]))
        * (1.0 if s == k else math.exp(-((s - k) ** 2) / (2.0 * k * k)))
        for s in range(len(ex.pad_mask))
        if ex.pad_mask[s]
    )


@pytest.mark.parametrize("k", [0, 1, 2])
def test_batched_forward_equals_one_row_forwards(labeled_corpus, k):
    params = tiny_params()
    exs = varied_examples(labeled_corpus, k)
    if k:
        assert any(not ex.pad_mask.all() for ex in exs)
        # a sign flip of the key projection puts rows on the fallback branch
        params["attn.wk"].data[: 64] *= -1.0
        totals = [attention_total(ex, params) for ex in exs]
        assert min(totals) <= 0.0 < max(totals)
    stats = mdl.fit_heuristic_stats([ex.heur for ex in exs])
    cfg = ModelConfig()
    batched = forward_logits(exs, params, TINY_SPEC, stats, cfg).data
    assert batched.shape == (len(exs), 2)
    for row, ex in zip(batched, exs):
        one = forward_logits([ex], params, TINY_SPEC, stats, cfg).data[0]
        assert np.allclose(row, one, rtol=0.0, atol=1e-12)
    bundle = tiny_bundle(params, stats, cfg)
    probs = bundle.proba(exs)
    assert probs.shape == (len(exs),)
    assert np.allclose(probs, [bundle.proba([ex])[0] for ex in exs], rtol=0.0, atol=1e-12)


def test_proba_of_no_examples_is_empty():
    out = tiny_bundle(tiny_params()).proba([])
    assert isinstance(out, np.ndarray) and out.shape == (0,)


def test_training_batch_row_draws_what_a_one_row_forward_would(labeled_corpus):
    # row i of a training batch sees the masks of a one-row forward whose
    # rng has first skipped i * (sum of conv widths + FC width) draws
    params = tiny_params()
    exs = varied_examples(labeled_corpus, 1)[:5]
    cfg = ModelConfig()
    per_row = sum(TINY_SPEC.kernel_counts) + mdl.FC_HIDDEN
    batched = forward_logits(exs, params, TINY_SPEC, None, cfg, np.random.default_rng(4), training=True)
    for i, ex in enumerate(exs):
        rng = np.random.default_rng(4)
        rng.random(i * per_row)
        one = forward_logits([ex], params, TINY_SPEC, None, cfg, rng, training=True).data[0]
        assert np.allclose(batched.data[i], one, rtol=0.0, atol=1e-12)


def test_batch_loss_graph_has_one_conv_node_per_stage(labeled_corpus):
    exs = varied_examples(labeled_corpus, 1)[:8]
    assert len(exs) == 8
    logits = forward_logits(
        exs, tiny_params(), TINY_SPEC, None, ModelConfig(), np.random.default_rng(0), training=True
    )
    loss = nn.softmax_cross_entropy(logits, [ex.label % 2 for ex in exs])
    seen, stack, conv_nodes = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
            conv_nodes += node._backward is not None and "conv1d_maxpool" in node._backward.__qualname__
    assert conv_nodes == len(TINY_SPEC.kernel_counts)


def test_init_model_params_names_and_shapes():
    params = tiny_params()
    assert set(params) == {
        "conv1.w", "conv1.b", "conv2.w", "conv2.b", "conv3.w", "conv3.b",
        "attn.wq", "attn.wk", "attn.wv", "fc1.w", "fc1.b", "fc2.w", "fc2.b",
    }
    assert params["conv1.w"].data.shape == (4, 3)
    assert params["conv3.w"].data.shape == (256, 3)
    assert params["attn.wq"].data.shape == (128, 16)
    assert np.array_equal(params["attn.wq"].data, params["attn.wk"].data)
    assert params["fc1.w"].data.shape == (64, 256 + 29 + 128)
    assert params["fc2.w"].data.shape == (2, 64)


# -- the epoch loop --------------------------------------------------------


def test_holdout_holds_out_a_rounded_tenth_of_one_permutation():
    for n in range(1, 40):
        train, held = nn.holdout(n, np.random.default_rng(n))
        assert len(held) == max(1, round(0.1 * n))
        assert np.array_equal(np.concatenate([held, train]), np.random.default_rng(n).permutation(n))


def scripted_fit(vals, patience, max_epochs=None):
    """nn.fit on one two-entry parameter over 5 training rows in batches of
    2, with ``val_loss()`` reading ``vals`` in turn. Returns (history, best
    epoch, the parameter at each val_loss call, the parameter left, the
    (loss, size) of each batch in order)."""
    w = nn.Parameter("w", np.array([1.0, -2.0]))
    script = iter(vals)
    at_val, batches = [], []

    def batch_loss(batch):
        loss = (w * w).sum() * float(len(batch))
        batches.append((float(loss.data), len(batch)))
        return loss

    def val_loss():
        at_val.append(w.data.copy())
        return next(script)

    cfg = ModelConfig(max_epochs=max_epochs or len(vals), patience=patience)
    history, best_epoch = nn.fit(
        {"w": w}, nn.AdamState(lr=0.1), np.arange(5), 2, batch_loss, val_loss, cfg,
        np.random.default_rng(0),
    )
    return history, best_epoch, at_val, w.data, batches


def test_fit_never_stops_while_the_loss_improves():
    vals = np.linspace(1.0, 0.01, 100).tolist()
    history, best_epoch, *_ = scripted_fit(vals, patience=1)
    assert len(history) == 100 and best_epoch == 100


@pytest.mark.parametrize("patience", [1, 2, 4])
def test_fit_stops_patience_epochs_after_the_last_improvement(patience):
    vals = [1.0, 0.9, 0.5, 0.7, 0.6, 0.8, 0.9, 0.7, 0.6, 0.5]
    history, best_epoch, *_ = scripted_fit(vals, patience)
    assert best_epoch == 3
    assert len(history) == 3 + patience


def test_fit_counts_neither_a_tie_nor_nan_as_an_improvement():
    nan = float("nan")
    history, best_epoch, *_ = scripted_fit([nan, 1.0, 0.5, 0.5, nan, 0.5, 0.1], patience=3)
    assert best_epoch == 3  # a leading NaN does not count either
    assert len(history) == 6
    # no epoch improves on +inf: the initial params are put back
    history, best_epoch, at_val, w, _ = scripted_fit([nan, nan], patience=5)
    assert best_epoch == 0 and len(history) == 2
    assert w.tolist() == [1.0, -2.0] != at_val[-1].tolist()


def test_fit_puts_back_the_best_epochs_params():
    _, best_epoch, at_val, w, _ = scripted_fit([1.0, 0.2, 0.4, 0.3], patience=2)
    assert best_epoch == 2
    assert np.array_equal(w, at_val[1])
    assert not np.array_equal(w, at_val[-1])


def test_fit_history_holds_one_pair_per_epoch_run():
    vals = [1.0, 0.8, 0.9, 0.95]
    history, _, _, _, batches = scripted_fit(vals, patience=2, max_epochs=10)
    assert [v for _, v in history] == vals
    assert len(batches) == 3 * len(vals)  # 5 rows in batches of 2, 2 and 1
    for epoch, (train_loss, _) in enumerate(history):
        part = batches[3 * epoch : 3 * epoch + 3]
        assert [n for _, n in part] == [2, 2, 1]
        assert train_loss == sum(loss * n for loss, n in part) / 5


# -- training --------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_examples(labeled_corpus):
    return build_examples(labeled_corpus, TINY_ENC)


def tiny_cfg(**kw):
    base = dict(max_epochs=2, patience=2, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def test_training_is_bit_reproducible(tiny_examples):
    a = train_model(tiny_examples["issue"], "issue", tiny_cfg(), TINY_ENC, TINY_SPEC)
    b = train_model(tiny_examples["issue"], "issue", tiny_cfg(), TINY_ENC, TINY_SPEC)
    assert a.history == b.history
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data), name


def test_training_seed_changes_the_run(tiny_examples):
    a = train_model(tiny_examples["issue"], "issue", tiny_cfg(), TINY_ENC, TINY_SPEC)
    b = train_model(tiny_examples["issue"], "issue", tiny_cfg(seed=1), TINY_ENC, TINY_SPEC)
    assert any(
        not np.array_equal(a.params[n].data, b.params[n].data) for n in a.params
    )


def test_balance_leaves_solution_training_unchanged(tiny_examples):
    # --balance bootstraps the issue examples only: on the solution examples,
    # whose classes differ in size, it trains the same params bit for bit
    examples = tiny_examples["solution"]
    labels = [ex.label for ex in examples]
    assert labels.count(1) != labels.count(0)
    plain, balanced = (
        train_model(examples, "solution", tiny_cfg(max_epochs=1, balance=b), TINY_ENC, TINY_SPEC)
        for b in (False, True)
    )
    assert plain.history == balanced.history
    for name in plain.params:
        assert np.array_equal(plain.params[name].data, balanced.params[name].data), name


def test_training_rejects_single_class_data(tmp_path, pre_cfg):
    p = tmp_path / "one_class.jsonl"
    write_jsonl(
        p,
        [
            {
                "community_id": "c",
                "utterances": [
                    {"time": i * 10 + 1, "id": "a", "text": f"why is build {i} failing ?"},
                    {"time": i * 10 + 2, "id": "b", "text": "try again"},
                ],
                "y_issue": 1,
                "y_solution": [1],
            }
            for i in range(4)
        ],
    )
    corpus = load_labeled_dialogs(p, pre_cfg)
    with pytest.raises(DataError, match="single-class"):
        train_model(build_examples(corpus, TINY_ENC)["issue"], "issue", tiny_cfg(), TINY_ENC, TINY_SPEC)


def test_training_history_and_best_epoch(tiny_examples):
    res = train_model(tiny_examples["issue"], "issue", tiny_cfg(max_epochs=3), TINY_ENC, TINY_SPEC)
    assert 1 <= len(res.history) <= 3
    assert 1 <= res.best_epoch <= len(res.history)
    best_val = min(v for _, v in res.history)
    assert res.history[res.best_epoch - 1][1] == pytest.approx(best_val)


# -- checkpoints -----------------------------------------------------------


def test_checkpoint_round_trip_preserves_predictions(tmp_path, labeled_corpus, tiny_examples):
    res = train_model(tiny_examples["issue"], "issue", tiny_cfg(), TINY_ENC, TINY_SPEC)
    p = tmp_path / "issue.ckpt"
    save_model_checkpoint(p, res)
    bundle = load_model_checkpoint(p, TINY_ENC)
    assert bundle.target == "issue"
    assert bundle.conv_spec == TINY_SPEC
    ex = tiny_example(labeled_corpus)
    before = res.proba([ex])[0]
    after = bundle.proba([ex])[0]
    # weights pass through float32 storage once
    assert after == pytest.approx(before, abs=1e-5)


def test_checkpoint_bytes_stable_across_saves(tmp_path, tiny_examples):
    res = train_model(tiny_examples["issue"], "issue", tiny_cfg(), TINY_ENC, TINY_SPEC)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_model_checkpoint(p1, res)
    save_model_checkpoint(p2, res)
    assert p1.read_bytes() == p2.read_bytes()


def test_full_width_training_keeps_its_bits_when_conv_scores_every_output(tmp_path, labeled_corpus, monkeypatch):
    # training scores only the conv outputs its dropout keeps; the same run
    # through a conv that ignores the mask and scores every output must give
    # the same params, history and checkpoint bytes
    enc_cfg = EncoderConfig()
    examples = build_examples(labeled_corpus, enc_cfg)["issue"]
    cfg = tiny_cfg()

    def run(name):
        res = train_model(examples, "issue", cfg, enc_cfg)
        save_model_checkpoint(tmp_path / name, res)
        return res, (tmp_path / name).read_bytes()

    got, got_bytes = run("masked.ckpt")
    conv = nn.conv1d_maxpool
    masked = []

    def reference(x, kernels, bias, keep=None):
        masked.append(keep is not None)
        return conv(x, kernels, bias)

    monkeypatch.setattr(nn, "conv1d_maxpool", reference)
    want, want_bytes = run("unmasked.ckpt")
    assert any(masked) and not all(masked)  # training forwards pass a mask, validation none
    assert got.history == want.history and got.best_epoch == want.best_epoch
    for name in got.params:
        assert np.array_equal(got.params[name].data.view(np.int64), want.params[name].data.view(np.int64)), name
    assert got_bytes == want_bytes


def test_training_conv_masks_are_the_dropout_masks(labeled_corpus, monkeypatch):
    # each conv stage is told to keep exactly the outputs the dropout after
    # it leaves nonzero
    conv, dropout = nn.conv1d_maxpool, nn.dropout
    keeps, nonzero = [], []

    def recording_conv(x, kernels, bias, keep=None):
        keeps.append(keep)
        return conv(x, kernels, bias, keep)

    def recording_dropout(x, p, uniforms):
        nonzero.append(dropout(nn.tensor(np.ones(uniforms.shape)), p, uniforms).data != 0.0)
        return dropout(x, p, uniforms)

    monkeypatch.setattr(nn, "conv1d_maxpool", recording_conv)
    monkeypatch.setattr(nn, "dropout", recording_dropout)
    exs = varied_examples(labeled_corpus, 1)[:5]
    forward_logits(exs, tiny_params(), TINY_SPEC, None, ModelConfig(), np.random.default_rng(0), training=True)
    assert len(keeps) == len(TINY_SPEC.kernel_counts) and len(nonzero) == len(keeps) + 1  # + the FC layer's
    for keep, mask in zip(keeps, nonzero):
        assert keep.dtype == bool and np.array_equal(keep, mask)
        assert 0 < keep.sum() < keep.size


def test_checkpoint_rejects_wrong_runtime_encoder(tmp_path, tiny_examples):
    res = train_model(tiny_examples["issue"], "issue", tiny_cfg(), TINY_ENC, TINY_SPEC)
    p = tmp_path / "issue.ckpt"
    save_model_checkpoint(p, res)
    with pytest.raises(ConfigError, match="dim"):
        load_model_checkpoint(p, EncoderConfig(dim=32))
    with pytest.raises(ConfigError, match="seed"):
        load_model_checkpoint(p, EncoderConfig(dim=16, seed=9))


def test_checkpoint_missing_parameter_reported_by_name(tmp_path, tiny_examples):
    res = train_model(tiny_examples["issue"], "issue", tiny_cfg(), TINY_ENC, TINY_SPEC)
    good = tmp_path / "good.ckpt"
    save_model_checkpoint(good, res)
    ck = ckpt_io.load_checkpoint(good)
    pruned = {
        name: nn.Parameter(name, arr)
        for name, arr in ck.params.items()
        if name != "fc2.b"
    }
    bad = tmp_path / "bad.ckpt"
    ckpt_io.save_checkpoint(bad, pruned, ck.manifest)
    with pytest.raises(DataError, match="fc2.b"):
        load_model_checkpoint(bad, TINY_ENC)


def test_load_checkpoint_rejects_wrong_target(tmp_path, tiny_examples):
    res = train_model(tiny_examples["issue"], "issue", tiny_cfg(), TINY_ENC, TINY_SPEC)
    p = tmp_path / "issue.ckpt"
    save_model_checkpoint(p, res)
    assert load_model_checkpoint(p, TINY_ENC, "issue").target == "issue"
    with pytest.raises(ConfigError, match="target 'issue' is not solution"):
        load_model_checkpoint(p, TINY_ENC, "solution")


def test_float32_round_trip_keeps_gate_decisions_and_pairs(tmp_path, small_bundles, small_enc):
    # models saved as float32 and loaded back make the same issue-gate call on
    # every dialog of the fixture log and write the same pair file
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_fixture_corpus.py"
    subprocess.run([sys.executable, str(script), "--out-dir", str(tmp_path)], check=True, capture_output=True)
    raw, _ = parse_chat_log(tmp_path / "raw.jsonl")
    log = preprocess_chat_log(raw, PreprocessConfig())
    loaded = {}
    for target, bundle in small_bundles.items():
        save_model_checkpoint(tmp_path / f"{target}.ckpt", bundle)
        loaded[target] = load_model_checkpoint(tmp_path / f"{target}.ckpt", small_enc, target)
    embedder = DialogEmbedder(log, small_enc)
    dialogs = assemble_dialogs(log, heuristic_link_scorer)
    threshold = small_bundles["issue"].cfg.issue_threshold
    gates = {"memory": [], "loaded": []}
    for d in dialogs:
        head, _ = embedder.examples_for(d)
        gates["memory"].append(small_bundles["issue"].proba([head])[0] >= threshold)
        gates["loaded"].append(loaded["issue"].proba([head])[0] >= threshold)
    assert gates["loaded"] == gates["memory"]
    assert any(gates["memory"]) and not all(gates["memory"])

    def pair_file(bundles):
        cfg = bundle_thresholds(bundles)
        return pairs_to_jsonl(
            extract_pairs(log, dialogs, bundles["issue"], bundles["solution"], cfg, small_enc)
        )

    want = pair_file(small_bundles)
    assert want and pair_file(loaded) == want


# -- prediction gates ------------------------------------------------------


def any_dialog(corpus, issue=True):
    for ld in corpus.dialogs:
        if bool(ld.y_issue) == issue:
            return ld
    raise AssertionError


def bundle_thresholds(bundles):
    """The issue and solution thresholds each bundle was trained with."""
    return ModelConfig(
        issue_threshold=bundles["issue"].cfg.issue_threshold,
        solution_threshold=bundles["solution"].cfg.solution_threshold,
    )


def extract_one(log, dialog, bundles, cfg, enc_cfg):
    """extract_pairs over the one dialog ``dialog`` of ``log``."""
    return extract_pairs(log, [dialog], bundles["issue"], bundles["solution"], cfg, enc_cfg)


def stub_proba(monkeypatch, p):
    """Make every bundle score each example ``p(example)``."""
    monkeypatch.setattr(
        mdl.ModelBundle, "proba", lambda self, exs: np.array([p(ex) for ex in exs], dtype=float)
    )


def test_issue_gate_threshold_is_inclusive(labeled_corpus, small_bundles, small_enc, monkeypatch):
    ld = any_dialog(labeled_corpus)
    log = labeled_corpus.logs[ld.community_id]
    cfg = ModelConfig(issue_threshold=0.5)
    stub_proba(monkeypatch, lambda ex: 0.5)
    pairs = extract_one(log, ld.dialog, small_bundles, cfg, small_enc)
    assert len(pairs) == 1 and pairs[0].p_issue == 0.5
    stub_proba(monkeypatch, lambda ex: 0.4999)
    pairs = extract_one(log, ld.dialog, small_bundles, cfg, small_enc)
    assert pairs == []


def test_extract_pair_solutions_filter_and_keep_order(labeled_corpus, small_bundles, small_embedders, small_enc, monkeypatch):
    ld = issue_dialog_with_body(labeled_corpus, min_body=3)
    emb = small_embedders[ld.community_id]
    log = labeled_corpus.logs[ld.community_id]
    body_exs = emb.examples_for(ld.dialog)[1]
    probs = {ld.dialog.subject: 0.9}
    for ex, p in zip(body_exs, [0.9, 0.41, 0.1] + [0.0] * len(body_exs)):
        probs[ex.utt_index] = p

    stub_proba(monkeypatch, lambda ex: probs[ex.utt_index])
    cfg = ModelConfig(solution_threshold=0.4)
    [pair] = extract_one(log, ld.dialog, small_bundles, cfg, small_enc)
    want = [log.utterances[ex.utt_index] for ex in body_exs[:2]]
    assert [s["time"] for s in pair.solutions] == [u.time for u in want]
    assert [s["text"] for s in pair.solutions] == [u.raw_text for u in want]
    assert [s["p"] for s in pair.solutions] == [0.9, 0.41]


def test_single_message_dialog_has_no_solution_candidates(labeled_corpus, small_bundles, small_enc, monkeypatch):
    log = labeled_corpus.logs["alpha"]
    d = dis.split_head_body((0,), (), log)
    stub_proba(monkeypatch, lambda ex: 1.0)
    [pair] = extract_one(log, d, small_bundles, bundle_thresholds(small_bundles), small_enc)
    assert pair.solutions == ()
    assert pair.status == "unresolved"


def test_extract_pair_gated_by_issue_model(labeled_corpus, small_bundles, small_enc, monkeypatch):
    ld = any_dialog(labeled_corpus)
    log = labeled_corpus.logs[ld.community_id]
    stub_proba(monkeypatch, lambda ex: 0.0)
    out = extract_one(log, ld.dialog, small_bundles, bundle_thresholds(small_bundles), small_enc)
    assert out == []


def test_extract_pair_fields_and_status(labeled_corpus, small_bundles, small_embedders, small_enc, monkeypatch):
    ld = issue_dialog_with_body(labeled_corpus, min_body=2)
    emb = small_embedders[ld.community_id]
    log = labeled_corpus.logs[ld.community_id]
    cfg = bundle_thresholds(small_bundles)
    body = emb.examples_for(ld.dialog)[1]
    first_body = body[0].utt_index

    def fake_proba(ex):
        return 0.8 if ex.utt_index in (ld.dialog.subject, first_body) else 0.1

    stub_proba(monkeypatch, fake_proba)
    [pair] = extract_one(log, ld.dialog, small_bundles, cfg, small_enc)
    assert pair.status == "answered"
    assert pair.subject_id == ld.dialog.subject
    assert pair.p_issue == pytest.approx(0.8)
    assert len(pair.solutions) == 1
    sol = pair.solutions[0]
    assert sol["text"] == log.utterances[first_body].raw_text
    assert sol["author"] == log.utterances[first_body].author_id
    assert sol["p"] == pytest.approx(0.8)
    want_head = "\n".join(log.utterances[i].raw_text for i in ld.dialog.head_indices)
    assert pair.issue_text == want_head

    # no solution clears the bar -> unresolved
    def issue_only(ex):
        return 0.8 if ex.utt_index == ld.dialog.subject else 0.1

    stub_proba(monkeypatch, issue_only)
    [pair2] = extract_one(log, ld.dialog, small_bundles, cfg, small_enc)
    assert pair2.status == "unresolved"
    assert pair2.solutions == ()


# -- end-to-end assembly ---------------------------------------------------


def test_extraction_splits_and_embeds_each_dialog_once(labeled_corpus, small_bundles, small_enc, monkeypatch):
    # assembly builds each dialog with its head/body split, one constructor
    # call per dialog; extraction embeds each dialog once and splits none
    log = labeled_corpus.logs["alpha"]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*a, **k):
            calls[name] += 1
            return fn(*a, **k)

        return wrapper

    split = counted("split_head_body", dis.split_head_body)
    monkeypatch.setattr(mdl, "split_head_body", split)
    monkeypatch.setattr(dis, "split_head_body", split)
    monkeypatch.setattr(
        DialogEmbedder, "examples_for", counted("examples_for", DialogEmbedder.examples_for)
    )
    dialogs = assemble_dialogs(log, heuristic_link_scorer)
    n_dialogs = len(dialogs)
    assert calls == {"split_head_body": n_dialogs}
    # every dialog passes the gate, so its body is scored too
    stub_proba(monkeypatch, lambda ex: 0.9)
    pairs = extract_pairs(
        log, dialogs, small_bundles["issue"], small_bundles["solution"],
        bundle_thresholds(small_bundles), small_enc,
    )
    assert len(pairs) == n_dialogs
    assert calls == {"split_head_body": n_dialogs, "examples_for": n_dialogs}


def test_training_splits_each_dialog_once(labeled_path, pre_cfg, small_enc, monkeypatch):
    # loading builds each labeled dialog with its split, once per record;
    # building the examples splits none again
    calls = Counter()
    split = dis.split_head_body

    def counted(*a, **k):
        calls["split_head_body"] += 1
        return split(*a, **k)

    monkeypatch.setattr(mdl, "split_head_body", counted)
    monkeypatch.setattr(dis, "split_head_body", counted)
    corpus = load_labeled_dialogs(labeled_path, pre_cfg)
    assert calls["split_head_body"] == len(corpus.dialogs)
    examples = build_examples(corpus, small_enc)
    for target in ("issue", "solution"):
        assert examples[target]
    assert calls["split_head_body"] == len(corpus.dialogs)


def test_extraction_encodes_each_head_and_body_utterance_once(labeled_corpus, small_bundles, small_enc, monkeypatch):
    # one encoding per dialog head, whatever its length, and one per reply;
    # no whole-log vectors up front
    log = labeled_corpus.logs["alpha"]
    dialogs = assemble_dialogs(log, heuristic_link_scorer)
    multi_heads = sum(len(d.head_indices) > 1 for d in dialogs)
    assert 0 < multi_heads < len(dialogs)
    calls = Counter()
    encode = enc.encode_tokens

    def counted(*a, **k):
        calls["encode"] += 1
        return encode(*a, **k)

    monkeypatch.setattr(enc, "encode_tokens", counted)
    stub_proba(monkeypatch, lambda ex: 0.9)
    extract_pairs(
        log, dialogs, small_bundles["issue"], small_bundles["solution"],
        bundle_thresholds(small_bundles), small_enc,
    )
    assert calls["encode"] == len(dialogs) + sum(len(d.body_indices) for d in dialogs)


def scored_extraction(log, dialogs, bundles, enc_cfg, monkeypatch, cfg=None):
    """extract_pairs' pairs and every probability it computed, keyed by
    (target, utterance index); ``cfg`` holds the thresholds, by default the
    bundles'."""
    probs = {}
    proba = mdl.ModelBundle.proba

    def recording(self, examples):
        p = proba(self, examples)
        probs.update(((self.target, ex.utt_index), v) for ex, v in zip(examples, p.tolist()))
        return p

    monkeypatch.setattr(mdl.ModelBundle, "proba", recording)
    cfg = cfg or bundle_thresholds(bundles)
    pairs = extract_pairs(log, dialogs, bundles["issue"], bundles["solution"], cfg, enc_cfg)
    monkeypatch.setattr(mdl.ModelBundle, "proba", proba)
    return pairs, probs


@pytest.mark.parametrize("rows", [1, 10**9], ids=["one-dialog", "whole-log"])
def test_extraction_chunks_give_the_same_pairs(labeled_corpus, small_bundles, small_enc, monkeypatch, rows):
    # forwards of one row, or of every queued row of the log, score the same
    # heads and bodies as the default forwards, to within the rounding of a
    # batched product, and make the same gate decisions
    log = labeled_corpus.logs["alpha"]
    dialogs = assemble_dialogs(log, heuristic_link_scorer)
    want, want_p = scored_extraction(log, dialogs, small_bundles, small_enc, monkeypatch)
    monkeypatch.setattr(mdl, "_EXTRACT_ROWS", rows)
    got, got_p = scored_extraction(log, dialogs, small_bundles, small_enc, monkeypatch)
    assert any(pair.solutions for pair in want) and len(want) < len(dialogs)
    assert got == want
    assert got_p.keys() == want_p.keys()
    cfg = bundle_thresholds(small_bundles)
    for (target, i), p in want_p.items():
        assert abs(got_p[target, i] - p) <= 1e-12
        bar = cfg.issue_threshold if target == "issue" else cfg.solution_threshold
        assert (got_p[target, i] >= bar) == (p >= bar)


def counted_forwards(monkeypatch, issue_bundle):
    """The (is issue forward, utterance indices) of every forward_logits call."""
    forwards = []
    forward = mdl.forward_logits

    def counted(examples, params, *a, **k):
        forwards.append((params is issue_bundle.params, [ex.utt_index for ex in examples]))
        return forward(examples, params, *a, **k)

    monkeypatch.setattr(mdl, "forward_logits", counted)
    return forwards


def test_extraction_fills_each_forward_across_dialogs(labeled_corpus, small_bundles, small_enc, monkeypatch):
    # heads queue across dialog boundaries, and so do the bodies of the heads
    # that pass: every forward but the last of each kind holds exactly
    # _EXTRACT_ROWS rows, and a failed head's bodies are never scored
    log = labeled_corpus.logs["alpha"]
    dialogs = assemble_dialogs(log, heuristic_link_scorer)
    by_subject = {d.subject: d for d in dialogs}
    assert sum(1 + len(d.body_indices) for d in dialogs) < mdl._PENDING_ROWS
    monkeypatch.setattr(mdl, "_EXTRACT_ROWS", 8)
    forwards = counted_forwards(monkeypatch, small_bundles["issue"])
    pairs = extract_pairs(
        log, dialogs, small_bundles["issue"], small_bundles["solution"],
        bundle_thresholds(small_bundles), small_enc,
    )
    issue = [rows for is_issue, rows in forwards if is_issue]
    solution = [rows for is_issue, rows in forwards if not is_issue]
    assert 0 < len(pairs) < len(dialogs)
    assert [i for rows in issue for i in rows] == [d.subject for d in dialogs]
    assert len(issue) == math.ceil(len(dialogs) / 8)
    assert len(solution) > 1
    for queue in (issue, solution):
        assert [len(rows) for rows in queue[:-1]] == [8] * (len(queue) - 1)
        assert 0 < len(queue[-1]) <= 8
    want = [i for pair in pairs for i in by_subject[pair.subject_id].body_indices]
    assert [i for rows in solution for i in rows] == want


def large_dialogs(log, sizes):
    """Consecutive runs of ``log``'s utterances as dialogs of the given sizes."""
    dialogs, lo = [], 0
    for size in sizes:
        members = tuple(range(lo, lo + size))
        dialogs.append(dis.split_head_body(members, tuple(zip(members[1:], members)), log))
        lo += size
    return dialogs


def test_extraction_splits_a_large_dialog_across_forwards(labeled_corpus, small_bundles, small_enc, monkeypatch):
    # a dialog with more bodies than a forward holds is scored over several
    # forwards, and gives the pairs of scoring each queue in one forward
    log = labeled_corpus.logs["alpha"]
    dialogs = large_dialogs(log, [40, 3, 30])
    bodies = {d.subject: len(d.body_indices) for d in dialogs}
    assert bodies[0] > 2 * mdl._EXTRACT_ROWS
    cfg = replace(bundle_thresholds(small_bundles), issue_threshold=0.2)
    forwards = counted_forwards(monkeypatch, small_bundles["issue"])
    want, want_p = scored_extraction(log, dialogs, small_bundles, small_enc, monkeypatch, cfg)
    assert want[0].subject_id == 0 and want[0].solutions
    scored = sum(bodies[pair.subject_id] for pair in want)
    assert [len(rows) for is_issue, rows in forwards if not is_issue] == [
        min(mdl._EXTRACT_ROWS, scored - lo) for lo in range(0, scored, mdl._EXTRACT_ROWS)
    ]
    monkeypatch.setattr(mdl, "_EXTRACT_ROWS", 10**9)
    got, got_p = scored_extraction(log, dialogs, small_bundles, small_enc, monkeypatch, cfg)
    assert got == want
    assert got_p.keys() == want_p.keys()
    assert max(abs(got_p[key] - p) for key, p in want_p.items()) <= 1e-12


def test_extraction_keeps_the_live_example_rows_bounded(labeled_corpus, small_bundles, small_enc, monkeypatch):
    # however large the dialogs, the examples alive at once are the issue
    # queue's pending rows (at most _PENDING_ROWS, or one larger dialog) plus
    # fewer than _EXTRACT_ROWS bodies left on the solution queue
    log = labeled_corpus.logs["alpha"]
    monkeypatch.setattr(mdl, "_EXTRACT_ROWS", 4)
    monkeypatch.setattr(mdl, "_PENDING_ROWS", 12)
    refs, live = [], []
    examples_for = DialogEmbedder.examples_for

    def tracked(self, dialog, *a, **k):
        head, body = examples_for(self, dialog, *a, **k)
        refs.extend(weakref.ref(ex) for ex in (head, *body))
        live.append(sum(r() is not None for r in refs))
        return head, body

    def proba(self, examples):
        assert len(examples) <= 4
        live.append(sum(r() is not None for r in refs))
        return np.full(len(examples), 0.9)

    monkeypatch.setattr(DialogEmbedder, "examples_for", tracked)
    monkeypatch.setattr(mdl.ModelBundle, "proba", proba)
    for sizes in ([7, 9, 8, 6, 9, 8, 7, 9], [7, 9, 20, 6, 9]):
        dialogs = large_dialogs(log, sizes)
        rows = [1 + len(d.body_indices) for d in dialogs]
        refs.clear()
        live.clear()
        pairs = extract_pairs(
            log, dialogs, small_bundles["issue"], small_bundles["solution"],
            bundle_thresholds(small_bundles), small_enc,
        )
        assert len(pairs) == len(dialogs) and len(refs) == sum(rows)
        assert max(live) <= max(12, *rows) + 4 - 1
        assert all(r() is None for r in refs)


def test_examples_encode_the_joined_head_and_each_reply(labeled_corpus, small_enc):
    # the center row of each window is the head's joined tokens, encoded
    # once, then each body utterance's own tokens, for one- and
    # multi-utterance heads alike
    log = labeled_corpus.logs["alpha"]
    embedder = DialogEmbedder(log, small_enc)
    k = small_enc.window_k
    multi_head = set()
    for d in assemble_dialogs(log, heuristic_link_scorer):
        head_ex, body_exs = embedder.examples_for(d)
        multi_head.add(len(d.head_indices) > 1)
        assert np.array_equal(head_ex.window[k], encode_tokens(d.head_tokens, small_enc))
        assert len(body_exs) == len(d.body_indices)
        for ex, i in zip(body_exs, d.body_indices):
            assert ex.utt_index == i
            assert np.array_equal(ex.window[k], encode_tokens(log.utterances[i].tokens, small_enc))
    assert multi_head == {False, True}


def test_pairs_to_jsonl_round_trips_as_json(labeled_corpus, small_bundles, small_enc):
    import json

    log = labeled_corpus.logs["beta"]
    pairs = extract_pairs(
        log, assemble_dialogs(log, heuristic_link_scorer), small_bundles["issue"],
        small_bundles["solution"], bundle_thresholds(small_bundles), small_enc,
    )
    text = pairs_to_jsonl(pairs)
    if pairs:
        for line in text.strip().splitlines():
            obj = json.loads(line)
            assert set(obj) == {
                "community_id", "subject_id", "issue_text", "solutions", "status", "p_issue",
            }
    else:
        assert text == ""


# -- learned context sensitivity -------------------------------------------


def followup_examples(labeled_corpus, enc_cfg):
    """Body examples whose text is the context-dependent follow-up line."""
    out = []
    for ld in labeled_corpus.dialogs:
        if not ld.y_issue:
            continue
        log = labeled_corpus.logs[ld.community_id]
        emb = DialogEmbedder(log, enc_cfg)
        _, body = emb.examples_for(ld.dialog, ld.y_issue, ld.y_solution)
        for ex in body:
            if "restart the service afterwards" in log.utterances[ex.utt_index].raw_text:
                out.append(ex)
    return out


def test_fixture_contains_both_followup_labels(labeled_corpus, small_enc):
    exs = followup_examples(labeled_corpus, small_enc)
    labels = {ex.label for ex in exs}
    assert labels == {0, 1}
    assert len(exs) >= 6


def test_trained_solution_model_separates_identical_text_by_context(
    labeled_corpus, trained_full
):
    bundle = trained_full["solution"]
    exs = followup_examples(labeled_corpus, EncoderConfig())
    picked = bundle.proba(exs) >= bundle.cfg.solution_threshold
    correct = sum(int(pick == bool(ex.label)) for pick, ex in zip(picked, exs))
    # identical text, different labels: anything above the majority-label
    # rate requires using the surrounding window, not the text
    assert correct / len(exs) >= 0.75
    got_positive = any(pick for pick, ex in zip(picked, exs) if ex.label == 1)
    got_negative = any(not pick for pick, ex in zip(picked, exs) if ex.label == 0)
    assert got_positive and got_negative
