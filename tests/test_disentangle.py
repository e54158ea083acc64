"""Reply-link features, the link scorer, and dialog assembly.

The feature-layout test pins every index by hand; the 2-2-1 scorer case is
worked out by hand in the comments.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatmine import disentangle as dis
from chatmine import nn, synth
from chatmine.corpus import ChatLog, Utterance
from chatmine.errors import ContractViolation, DataError


def utt(index, time, author, clean, tokens, raw=None):
    return Utterance(
        index=index,
        time=time,
        author_id=author,
        raw_text=raw if raw is not None else clean,
        clean_text=clean,
        tokens=tuple(tokens),
        placeholders={},
    )


@pytest.fixture()
def two_turn_log():
    return ChatLog(
        "c",
        [
            utt(0, 0, "alice", "how do i reset the cache @bob ?", ("how", "reset", "cache", "?"),
                raw="how do I reset the cache @bob ?"),
            utt(1, 2500, "bob", "@alice restart the cache daemon", ("restart", "cache", "daemon"),
                raw="@alice restart the cache daemon"),
        ],
    )


# -- bucketing -------------------------------------------------------------


def test_time_gap_buckets():
    assert dis.time_gap_bucket(0) == 0
    assert dis.time_gap_bucket(999) == 0
    assert dis.time_gap_bucket(1000) == 1
    assert dis.time_gap_bucket(2000) == 2
    assert dis.time_gap_bucket(3999) == 2
    assert dis.time_gap_bucket(4000) == 3
    assert dis.time_gap_bucket(10**12) == 24  # capped


def test_distance_and_count_buckets():
    assert dis.distance_bucket(1) == 0
    assert dis.distance_bucket(15) == 14
    assert dis.distance_bucket(99) == 14
    assert [dis.count_bucket(n) for n in (0, 5, 6, 8, 9, 12, 13, 20, 21)] == [
        0, 5, 6, 6, 7, 7, 8, 8, 9,
    ]
    assert dis.shared_bucket(0) == 0
    assert dis.shared_bucket(7) == 5


# -- feature layout --------------------------------------------------------


def test_pair_features_every_index_pinned(two_turn_log):
    f = dis.extract_link_features(two_turn_log, 1, 0)
    assert f.shape == (77,)
    expect_ones = {
        2,       # 2500 ms gap -> bucket 2
        25,      # distance 1
        40 + 4,  # parent has 4 tokens
        50 + 3,  # child has 3 tokens
        60 + 1,  # one shared token ("cache")
        68,      # child text names the parent author (@alice)
        69,      # parent text names the child author (@bob)
        70,      # child mentions someone
        72,      # parent asks a question
        73,      # same hour of day
        75,      # parent opens the log
        76,      # adjacent
    }
    for i in sorted(expect_ones):
        assert f[i] == 1.0, f"index {i}"
    assert f[66] == pytest.approx(1.0 / 6.0)  # Jaccard: 1 shared, 6 in union
    assert f[67] == 0.0  # different authors
    assert f[71] == 0.0  # child has no question mark
    zero_idx = set(range(77)) - expect_ones - {66}
    assert all(f[i] == 0.0 for i in zero_idx)


def test_self_candidate_keeps_only_child_side_features(two_turn_log):
    f = dis.extract_link_features(two_turn_log, 1, None)
    nonzero = {i for i in range(77) if f[i] != 0.0}
    assert nonzero == {50 + 3, 70, 74}
    f0 = dis.extract_link_features(two_turn_log, 0, None)
    assert f0[71] == 1.0  # the question mark flag still applies to self


def test_pair_features_reject_non_preceding_parent(two_turn_log):
    with pytest.raises(ContractViolation):
        dis.extract_link_features(two_turn_log, 0, 1)
    with pytest.raises(ContractViolation):
        dis.extract_link_features(two_turn_log, 1, 1)


# -- scorer network --------------------------------------------------------


def test_all_zero_parameters_score_exactly_half(two_turn_log):
    zeros = {
        name: nn.Parameter(name, np.zeros(shape))
        for name, shape in dis.link_param_shapes(4).items()
    }
    f = dis.extract_link_features(two_turn_log, 1, 0)
    assert dis.score_reply_link(f, zeros) == 0.5


def test_tiny_scorer_hand_computed(two_turn_log):
    # Row 0 reads 6 * Jaccard = 6 * (1/6) = 1; row 1 reads the adjacency
    # flag = 1. softsign(1) = 0.5 twice. Second layer: [0.5+0.5, 2*0.5]
    # = [1, 1] -> softsign 0.5 twice. Readout 1*0.5 + 3*0.5 + 0.5 = 2.5.
    W1 = np.zeros((2, 77))
    W1[0, 66] = 6.0
    W1[1, 76] = 1.0
    params = {
        "link.W1": nn.Parameter("link.W1", W1),
        "link.b1": nn.Parameter("link.b1", np.zeros(2)),
        "link.W2": nn.Parameter("link.W2", np.array([[1.0, 1.0], [2.0, 0.0]])),
        "link.b2": nn.Parameter("link.b2", np.zeros(2)),
        "link.w3": nn.Parameter("link.w3", np.array([1.0, 3.0])),
        "link.b3": nn.Parameter("link.b3", np.array(0.5)),
    }
    f = dis.extract_link_features(two_turn_log, 1, 0)
    got = dis.score_reply_link(f, params)
    assert got == pytest.approx(1.0 / (1.0 + math.exp(-2.5)), abs=1e-12)


def test_make_scorer_wraps_feature_extraction(two_turn_log):
    params = dis.init_link_params(np.random.default_rng(0), hidden=8)
    scorer = dis.make_scorer(params)
    f = dis.extract_link_features(two_turn_log, 1, 0)
    assert scorer(two_turn_log, 1, 0) == pytest.approx(dis.score_reply_link(f, params))


# -- parent choice ---------------------------------------------------------


def make_flat_log(n):
    return ChatLog("c", [utt(i, i * 1000, f"u{i}", f"m{i}", (f"m{i}",)) for i in range(n)])


def test_choose_parent_takes_best_scoring_candidate():
    log = make_flat_log(5)
    table = {None: 0.3, 3: 0.9, 1: 0.8}

    def scorer(_log, _child, parent):
        return table.get(parent, 0.1)

    parent, score = dis.choose_parent(log, 4, scorer)
    assert (parent, score) == (3, 0.9)


def test_choose_parent_tie_prefers_self_then_nearest():
    log = make_flat_log(4)
    parent, _ = dis.choose_parent(log, 3, lambda *_: 0.7)
    assert parent is None  # everything tied: self was considered first
    scores = {2: 0.8, 1: 0.8}
    parent, _ = dis.choose_parent(
        log, 3, lambda _l, _c, p: scores.get(p, 0.2) if p is not None else 0.2
    )
    assert parent == 2  # newest-first scan keeps the nearer of the tie


def test_choose_parent_threshold_collapses_to_self():
    log = make_flat_log(3)
    parent, score = dis.choose_parent(
        log, 2, lambda _l, _c, p: 0.45 if p is not None else 0.1, threshold=0.5
    )
    assert parent is None
    assert score == pytest.approx(0.45)


def test_choose_parent_respects_lookback():
    log = make_flat_log(10)
    seen = []

    def scorer(_log, _child, parent):
        seen.append(parent)
        return 0.0

    dis.choose_parent(log, 9, scorer, lookback=3)
    assert seen == [None, 8, 7, 6]


# -- dialog assembly -------------------------------------------------------


def hash_scorer(salt):
    def scorer(_log, child, parent):
        p = -1 if parent is None else parent
        r = np.random.default_rng((salt, child, p + 1))
        return float(r.random())

    return scorer


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10_000))
def test_assembly_partitions_the_log(n, salt):
    log = make_flat_log(n)
    dialogs = dis.assemble_dialogs(log, hash_scorer(salt))
    covered = [i for d in dialogs for i in d.members]
    assert sorted(covered) == list(range(n))
    for d in dialogs:
        assert d.subject == min(d.members)
        assert d.members == tuple(sorted(d.members))
        for child, parent in d.links:
            assert parent < child
            assert child in d.members and parent in d.members
    assert [d.subject for d in dialogs] == sorted(d.subject for d in dialogs)


def test_oracle_scorer_recovers_true_partition():
    for seed in range(5):
        log, links, partition = synth.synth_interleaved(seed=seed, n_dialogs=3)
        dialogs = dis.assemble_dialogs(log, synth.oracle_scorer(links))
        got = {frozenset(d.members) for d in dialogs}
        assert got == set(partition)


def test_heuristic_scorer_prefers_plausible_replies():
    log = ChatLog(
        "c",
        [
            utt(0, 0, "alice", "the deploy script fails ?", ("deploy", "script", "fail", "?")),
            utt(1, 3000, "bob", "@alice check the deploy script config",
                ("check", "deploy", "script", "config"), raw="@alice check the deploy script config"),
            utt(2, 4_000_000, "carol", "lunch anyone", ("lunch", "anyone")),
        ],
    )
    good = dis.heuristic_link_scorer(log, 1, 0)
    stale = dis.heuristic_link_scorer(log, 2, 0)
    assert good > 0.5 > stale
    assert dis.heuristic_link_scorer(log, 1, None) == 0.5


# -- head and body ---------------------------------------------------------


def test_split_head_body_opening_run():
    log = ChatLog(
        "c",
        [
            utt(0, 0, "alice", "my build broke", ("build", "broke")),
            utt(1, 2000, "alice", "with error five", ("error", "five")),
            utt(2, 3000, "bob", "try a clean build", ("try", "clean", "build")),
            utt(3, 5000, "alice", "that worked", ("worked",)),
        ],
    )
    d = dis.Dialog(subject=0, members=(0, 1, 2, 3), links=((1, 0), (2, 0), (3, 2)))
    parts = dis.split_head_body(d, log)
    assert parts.initiator == "alice"
    assert parts.head_indices == (0, 1)
    assert parts.body_indices == (2, 3)  # the initiator's return goes to the body
    assert parts.head_text == "my build broke with error five"
    assert parts.head_tokens == ("build", "broke", "error", "five")
    assert parts.time == 0


def test_split_head_body_single_message_dialog():
    log = make_flat_log(1)
    parts = dis.split_head_body(dis.Dialog(0, (0,), ()), log)
    assert parts.head_indices == (0,)
    assert parts.body_indices == ()


# -- training and persistence ----------------------------------------------


def link_training_examples(n_logs=4):
    out = []
    for seed in range(n_logs):
        log, links, _ = synth.synth_interleaved(seed=seed, n_dialogs=2)
        out.append((log, links))
    return out


def test_train_link_scorer_reduces_loss():
    examples = link_training_examples()
    params, history = dis.train_link_scorer(examples, hidden=32, epochs=4, seed=0)
    assert len(history) == 4
    assert history[-1] < history[0]
    assert {n: p.data.shape for n, p in params.items()} == dis.link_param_shapes(32)


def test_link_checkpoint_round_trip(tmp_path):
    params = dis.init_link_params(np.random.default_rng(1), hidden=8)
    p = tmp_path / "link.ckpt"
    dis.save_link_checkpoint(p, params)
    loaded = dis.load_link_checkpoint(p)
    assert list(loaded) == list(params)
    for name, tensor in params.items():
        assert np.allclose(loaded[name].data, tensor.data, atol=1e-6)
    log = make_flat_log(3)
    f = dis.extract_link_features(log, 2, 1)
    assert dis.score_reply_link(f, loaded) == pytest.approx(
        dis.score_reply_link(f, params), abs=1e-6
    )


def test_load_link_checkpoint_rejects_wrong_target(tmp_path):
    from chatmine import checkpoint as ckpt_io

    p = tmp_path / "bad.ckpt"
    ckpt_io.save_checkpoint(p, {"x": nn.Parameter("x", np.zeros(3))}, {"target": "issue"})
    with pytest.raises(DataError):
        dis.load_link_checkpoint(p)


def test_load_link_examples_validates(tmp_path):
    from chatmine.corpus import PreprocessConfig

    p = tmp_path / "links.jsonl"
    p.write_text(
        '{"utterances": [{"time": 1, "id": "a", "text": "hi"}, '
        '{"time": 2, "id": "b", "text": "yo"}], "links": [[1, 0]]}\n',
        encoding="utf-8",
    )
    examples = dis.load_link_examples(p, PreprocessConfig())
    assert len(examples) == 1
    log, links = examples[0]
    assert links == {1: 0}
    assert len(log.utterances) == 2

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"utterances": [{"time": 1, "id": "a", "text": "hi"}], "links": [[0, 1]]}\n')
    with pytest.raises(DataError):
        dis.load_link_examples(bad, PreprocessConfig())
