"""Reply-link features, the link scorer, and dialog assembly.

The feature-layout test pins every index by hand; the 2-2-1 scorer case is
worked out by hand in the comments. The batched per-child path is checked
against a per-pair reference written in this file: one feature vector, one
scorer call and one comparison per (child, candidate) pair.
"""

import math
import re

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


def block(log, child, lo=0):
    return dis.extract_link_features(dis.link_columns(log), child, dis.candidate_parents(child, lo))


def test_pair_features_every_index_pinned(two_turn_log):
    f = block(two_turn_log, 1)[1]
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
    f = block(two_turn_log, 1)[0]
    nonzero = {i for i in range(77) if f[i] != 0.0}
    assert nonzero == {50 + 3, 70, 74}
    f0 = block(two_turn_log, 0)
    assert f0.shape == (1, 77)  # child 0 has only the self candidate
    assert f0[0, 71] == 1.0  # the question mark flag still applies to self


def test_pair_features_reject_non_preceding_parent(two_turn_log):
    cols = dis.link_columns(two_turn_log)
    with pytest.raises(ContractViolation):
        dis.extract_link_features(cols, 0, [0])
    with pytest.raises(ContractViolation):
        dis.extract_link_features(cols, 1, [-1])
    with pytest.raises(ContractViolation):
        dis.extract_link_features(cols, 1, [1])
    with pytest.raises(ContractViolation):
        dis.extract_link_features(cols, 2, [1])


# -- scorer network --------------------------------------------------------


def test_all_zero_parameters_score_exactly_half(two_turn_log):
    zeros = {
        name: nn.Parameter(name, np.zeros(shape))
        for name, shape in dis.link_param_shapes(4).items()
    }
    scores = dis.link_probabilities(block(two_turn_log, 1), zeros)
    assert scores.tolist() == [0.5, 0.5]


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
    got = dis.link_probabilities(block(two_turn_log, 1), params)[1]
    assert got == pytest.approx(1.0 / (1.0 + math.exp(-2.5)), abs=1e-12)


def test_link_mlp_scorer_wraps_feature_extraction(two_turn_log):
    params = dis.init_link_params(np.random.default_rng(0), hidden=8)
    scorer = dis.link_mlp_scorer(params)
    cols = dis.link_columns(two_turn_log)
    want = dis.link_probabilities(dis.extract_link_features(cols, 1, [0]), params)
    assert np.array_equal(scorer(cols, 1, 0), want)


# -- parent choice ---------------------------------------------------------


def make_flat_log(n):
    return ChatLog("c", [utt(i, i * 1000, f"u{i}", f"m{i}", (f"m{i}",)) for i in range(n)])


def candidates(child, lo):
    """The candidates of one child in score-vector order: self (None), then
    child - 1 down to lo."""
    return [None, *range(child - 1, lo - 1, -1)]


def table_scorer(score_of):
    """A per-child scorer from a per-candidate function."""

    def scorer(_cols, child, lo):
        return np.array([score_of(p) for p in candidates(child, lo)])

    return scorer


def test_choose_parent_takes_best_scoring_candidate():
    cols = dis.link_columns(make_flat_log(5))
    table = {None: 0.3, 3: 0.9, 1: 0.8}
    parent, score = dis.choose_parent(cols, 4, table_scorer(lambda p: table.get(p, 0.1)))
    assert (parent, score) == (3, 0.9)


def test_choose_parent_tie_prefers_self_then_nearest():
    cols = dis.link_columns(make_flat_log(4))
    parent, _ = dis.choose_parent(cols, 3, table_scorer(lambda _p: 0.7))
    assert parent is None  # everything tied: self was considered first
    scores = {2: 0.8, 1: 0.8}
    parent, _ = dis.choose_parent(cols, 3, table_scorer(lambda p: scores.get(p, 0.2)))
    assert parent == 2  # newest-first order keeps the nearer of the tie


def test_choose_parent_threshold_collapses_to_self():
    cols = dis.link_columns(make_flat_log(3))
    parent, score = dis.choose_parent(
        cols, 2, table_scorer(lambda p: 0.45 if p is not None else 0.1), threshold=0.5
    )
    assert parent is None
    assert score == pytest.approx(0.45)


def test_choose_parent_respects_lookback():
    cols = dis.link_columns(make_flat_log(10))
    seen = []

    def scorer(_cols, child, lo):
        seen.extend(candidates(child, lo))
        return np.zeros(child - lo + 1)

    dis.choose_parent(cols, 9, scorer, lookback=3)
    assert seen == [None, 8, 7, 6]


def test_choose_parent_rejects_a_score_vector_of_another_length():
    cols = dis.link_columns(make_flat_log(4))
    with pytest.raises(ContractViolation):
        dis.choose_parent(cols, 3, lambda _c, _child, _lo: np.zeros(2))


# -- dialog assembly -------------------------------------------------------


def hash_scorer(salt):
    def score_of(child, parent):
        p = -1 if parent is None else parent
        return np.random.default_rng((salt, child, p + 1)).random()

    def scorer(_cols, child, lo):
        return np.array([score_of(child, p) for p in candidates(child, lo)])

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
    cols = dis.link_columns(log)
    good = dis.heuristic_link_scorer(cols, 1, 0)[1]
    stale = dis.heuristic_link_scorer(cols, 2, 0)[2]
    assert good > 0.5 > stale
    assert dis.heuristic_link_scorer(cols, 1, 0)[0] == 0.5


# -- parity with the per-pair reference ----------------------------------
# The per-pair path the batched one replaced: one 77-wide vector and one
# scorer call per (child, candidate), newest candidate first.


def ref_time_gap_bucket(gap_ms):
    if gap_ms < 1000:
        return 0
    return min(24, 1 + int(np.log2(gap_ms // 1000)))


def ref_count_bucket(n):
    return n if n <= 5 else 6 if n <= 8 else 7 if n <= 12 else 8 if n <= 20 else 9


def ref_mentions(text, author_id):
    if len(author_id) < 2:
        return False
    low = text.lower()
    return ("@" + author_id.lower()) in low or bool(
        re.search(r"\b" + re.escape(author_id.lower()) + r"\b", low)
    )


def ref_features(log, child, parent):
    c = log.utterances[child]
    f = np.zeros(77)
    f[60 + ref_count_bucket(len(c.tokens)) - 10] = 1.0
    f[71] = 1.0 if "?" in c.clean_text else 0.0
    f[70] = 1.0 if re.search(r"@\w+", c.raw_text) else 0.0
    if parent is None:
        f[74] = 1.0
        return f
    p = log.utterances[parent]
    f[ref_time_gap_bucket(c.time - p.time)] = 1.0
    f[25 + min(child - parent - 1, 14)] = 1.0
    f[40 + ref_count_bucket(len(p.tokens))] = 1.0
    cs, ps = set(c.tokens), set(p.tokens)
    inter, union = cs & ps, cs | ps
    f[60 + min(len(inter), 5)] = 1.0
    f[66] = len(inter) / len(union) if union else 0.0
    f[67] = 1.0 if c.author_id == p.author_id else 0.0
    f[68] = 1.0 if ref_mentions(c.raw_text, p.author_id) else 0.0
    f[69] = 1.0 if ref_mentions(p.raw_text, c.author_id) else 0.0
    f[72] = 1.0 if "?" in p.clean_text else 0.0
    f[73] = 1.0 if (c.time // 3_600_000) % 24 == (p.time // 3_600_000) % 24 else 0.0
    f[75] = 1.0 if parent == 0 else 0.0
    f[76] = 1.0 if child - parent == 1 else 0.0
    return f


def ref_mlp(params):
    def score(log, child, parent):
        x = nn.tensor(ref_features(log, child, parent))
        h1 = nn.softsign(nn.linear(x, params["link.W1"], params["link.b1"]))
        h2 = nn.softsign(nn.linear(h1, params["link.W2"], params["link.b2"]))
        z = params["link.w3"].data @ h2.data + params["link.b3"].data
        return float(nn.sigmoid(nn.tensor(z)).data)

    return score


def ref_heuristic(log, child, parent):
    if parent is None:
        return 0.5
    f = ref_features(log, child, parent)
    weights = ((66, 2.0), (67, 0.5), (68, 2.5), (69, 1.5), (72, 0.6), (76, 0.8))
    z = -1.2 + sum(w * f[i] for i, w in weights)
    z -= 0.10 * (child - parent - 1)
    gap = log.utterances[child].time - log.utterances[parent].time
    z -= 0.25 * max(0, ref_time_gap_bucket(gap) - 8)
    return float(1.0 / (1.0 + np.exp(-z)))


def ref_choose_parent(log, child, score, threshold, lookback):
    best_parent = None
    best_score = score(log, child, None)
    for parent in range(child - 1, max(0, child - lookback) - 1, -1):
        s = score(log, child, parent)
        if s > best_score:
            best_score = s
            best_parent = parent
    if best_parent is not None and best_score < threshold:
        best_parent = None
    return best_parent


def ref_partition(n, parent_of):
    """Dialogs as sets of members, from the chosen links."""
    root = list(range(n))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for child, parent in parent_of.items():
        root[find(child)] = find(parent)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), set()).add(i)
    return {frozenset(g) for g in groups.values()}


def strong_params(seed, hidden=64, scale=3.0):
    """Random scorer weights, scaled so that scores spread over (0, 1)."""
    params = dis.init_link_params(np.random.default_rng(seed), hidden)
    for name, p in params.items():
        p.data = p.data * scale + (0.1 if name.endswith("b1") else 0.0)
    return params


def assert_parity(log, params, lookback=50, threshold=0.5):
    """Feature blocks, scores, chosen parents and dialogs of the batched
    path against the per-pair reference, for every child of the log."""
    cols = dis.link_columns(log)
    n = len(log.utterances)
    batched = {"heuristic": dis.heuristic_link_scorer, "mlp": dis.link_mlp_scorer(params)}
    reference = {"heuristic": ref_heuristic, "mlp": ref_mlp(params)}
    for child in range(n):
        lo = max(0, child - lookback)
        want = np.array([ref_features(log, child, p) for p in candidates(child, lo)])
        got = dis.extract_link_features(cols, child, dis.candidate_parents(child, lo))
        assert np.array_equal(got, want), child
        for kind in batched:
            got = batched[kind](cols, child, lo)
            ref = np.array([reference[kind](log, child, p) for p in candidates(child, lo)])
            if kind == "heuristic":
                assert np.array_equal(got, ref), child
            else:
                assert np.max(np.abs(got - ref)) <= 1e-12, child
    for kind in batched:
        parent_of = {}
        for child in range(n):
            parent, _ = dis.choose_parent(cols, child, batched[kind], threshold, lookback)
            want = ref_choose_parent(log, child, reference[kind], threshold, lookback)
            assert parent == want, (kind, child)
            if parent is not None:
                parent_of[child] = parent
        dialogs = dis.assemble_dialogs(log, batched[kind], threshold, lookback)
        assert {frozenset(d.members) for d in dialogs} == ref_partition(n, parent_of)
        assert dict(link for d in dialogs for link in d.links) == parent_of


@pytest.mark.parametrize("seed, n_dialogs", [(0, 3), (1, 8), (2, 20), (3, 30)])
def test_batched_path_matches_per_pair_reference(seed, n_dialogs):
    log, _, _ = synth.synth_interleaved(seed=seed, n_dialogs=n_dialogs)
    assert_parity(log, strong_params(seed))


@pytest.mark.parametrize("lookback", [1, 2, 7, 1000])
def test_batched_path_matches_reference_at_any_lookback(lookback):
    log, _, _ = synth.synth_interleaved(seed=5, n_dialogs=6)
    assert lookback != 1000 or lookback > len(log.utterances)
    assert_parity(log, strong_params(5, hidden=16), lookback=lookback, threshold=0.3)


def test_batched_path_matches_reference_on_odd_times_and_authors():
    # out-of-order and negative times (a negative gap is bucket 0), exact
    # power-of-two gaps, one-character ids that never count as mentioned, and
    # ids full of regex metacharacters
    authors = ["a", "c++", "j.doe", "(x)", "[bot]", "Ab", "a|b", "x"]
    times = [50_000, 10_000, 12_000, 12_000, 16_000, -7_300_000, 2**33, 2**33 + 999, 1_000]
    texts = [
        "ping @a and c++ folks ?",
        "@c++ did j.doe reply",
        "j-doe or j.doe, (x) knows",
        "@(x) [bot] is down ?",
        "ab says hi to a|b",
        "@ab ok a x",
        "nobody here",
        "(x) (x) [bot]",
        "C++ ?",
    ]
    utts = [
        utt(i, t, authors[i % len(authors)], text.lower(), tuple(text.lower().split()), raw=text)
        for i, (t, text) in enumerate(zip(times, texts))
    ]
    log = ChatLog("odd", utts)
    cols = dis.link_columns(log)
    assert dis.extract_link_features(cols, 1, [0])[1, 0] == 1.0  # gap -40 s, bucket 0
    assert_parity(log, strong_params(7, hidden=8), lookback=4)
    assert_parity(log, strong_params(8, hidden=8))


def test_saturated_distance_ties_go_to_the_nearer_parent():
    # every utterance is the same message at the same time, so the rows of
    # parents at distance 15 and more are identical (the window stops short
    # of parent 0); weights that favor the saturated distance bucket make
    # them tie for the best score
    log = ChatLog("same", [utt(i, 0, "bob", "same words", ("same", "words")) for i in range(40)])
    cols = dis.link_columns(log)
    params = strong_params(3, hidden=32, scale=0.1)
    params["link.W1"].data[0, 25 + 14] = 8.0
    params["link.W2"].data[0, 0] = 8.0
    params["link.w3"].data[0] = 8.0
    scorer = dis.link_mlp_scorer(params)
    scores = scorer(cols, 39, 39 - 30)
    assert len(set(scores[15:].tolist())) == 1
    assert scores[15] == scores.max() > scores[:15].max()
    parent, _ = dis.choose_parent(cols, 39, scorer, lookback=30)
    assert parent == 39 - 15
    assert_parity(log, params, lookback=30)


def ref_link_logit(features, params):
    """One feature row's pre-sigmoid scalar, as its own graph."""
    x = nn.tensor(features)
    h1 = nn.softsign(nn.linear(x, params["link.W1"], params["link.b1"]))
    h2 = nn.softsign(nn.linear(h1, params["link.W2"], params["link.b2"]))
    return (h2 * params["link.w3"]).sum() + params["link.b3"]


def ref_train_link_scorer(examples, hidden, epochs, seed, lookback=50):
    """The link trainer with per-pair feature vectors and one graph per
    pair."""
    rng = np.random.default_rng(seed)
    pairs = []
    for log, links in examples:
        for child in range(len(log.utterances)):
            true_parent = links.get(child)
            pairs.append((ref_features(log, child, true_parent), 1.0))
            others = [p for p in range(max(0, child - lookback), child) if p != true_parent]
            if true_parent is not None:
                others.append(None)
            rng.shuffle(others)
            pairs.extend((ref_features(log, child, p), 0.0) for p in others[:3])
    params = dis.init_link_params(rng, hidden)
    state = nn.AdamState(lr=0.001)
    history = []
    order = np.arange(len(pairs))
    for _ in range(epochs):
        rng.shuffle(order)
        total = 0.0
        for start in range(0, len(order), 32):
            batch = order[start : start + 32]
            losses = []
            for j in batch:
                z = ref_link_logit(pairs[j][0], params)
                losses.append(nn.softplus(z * -1.0 if pairs[j][1] == 1.0 else z))
            loss = sum(losses[1:], losses[0]) * (1.0 / len(losses))
            loss.backward()
            nn.adam_step(params, state)
            total += float(loss.data) * len(batch)
        history.append(total / len(order))
    return params, history


@pytest.mark.parametrize("lookback", [50, 2])
def test_link_trainer_matches_per_pair_reference(lookback, tmp_path):
    # with lookback 2 most true parents lie outside the window; one graph per
    # mini-batch sums in another order than one per pair, so the float64
    # parameters may move in the last bits, but the saved float32 checkpoint
    # may not
    examples = link_training_examples()
    want, want_hist = ref_train_link_scorer(examples, 8, 2, seed=3, lookback=lookback)
    got, got_hist = dis.train_link_scorer(examples, hidden=8, epochs=2, seed=3, lookback=lookback)
    assert np.allclose(got_hist, want_hist, rtol=0, atol=1e-12)
    for name in want:
        assert np.allclose(got[name].data, want[name].data, rtol=0, atol=1e-12), name
    dis.save_link_checkpoint(tmp_path / "want.ckpt", want)
    dis.save_link_checkpoint(tmp_path / "got.ckpt", got)
    assert (tmp_path / "got.ckpt").read_bytes() == (tmp_path / "want.ckpt").read_bytes()


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
    f = block(make_flat_log(3), 2)
    assert np.allclose(
        dis.link_probabilities(f, loaded), dis.link_probabilities(f, params), atol=1e-6
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
