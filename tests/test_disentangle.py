"""Reply-link features, the link scorer, and dialog assembly.

The feature-layout test pins every index by hand; the 2-2-1 scorer case is
worked out by hand in the comments. The chunked path, one feature block and
one scorer call per chunk of children, is checked against two references
written in this file: the per-child block function it replaced, and a
per-pair path with one feature vector, one scorer call and one comparison
per (child, candidate) pair.
"""

import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatmine import disentangle as dis
from chatmine import nn, synth
from chatmine.corpus import ChatLog, Utterance
from chatmine.errors import ContractViolation, DataError
from chatmine.model import ModelConfig


def utt(index, time, author, clean, tokens, raw=None):
    return Utterance(
        index=index,
        time=time,
        author_id=author,
        raw_text=raw if raw is not None else clean,
        clean_text=clean,
        tokens=tuple(tokens),
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
    """The feature rows of one child, self first, then child - 1 down to lo."""
    return dis.extract_link_features(dis.link_columns(log), child, child + 1, child - lo).features


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
    b = dis.extract_link_features(cols, 0, 2, 5)
    assert b.child.tolist() == [0, 1, 1]
    assert b.parent.tolist() == [-1, -1, 0]  # a parent row always precedes its child
    assert b.starts.tolist() == [0, 1]
    for first, stop, lookback in ((0, 0, 5), (-1, 1, 5), (1, 3, 5), (2, 3, 5), (0, 1, -1)):
        with pytest.raises(ContractViolation):
            dis.extract_link_features(cols, first, stop, lookback)


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
    b = dis.extract_link_features(dis.link_columns(two_turn_log), 0, 2, 1)
    want = dis.link_probabilities(b.features, params)
    assert want.shape == (3,)
    assert np.array_equal(scorer(b), want)


def test_link_mlp_scorer_keeps_the_graph_bits_as_its_buffers_are_reused():
    # the scorer runs the layers in place in buffers kept across blocks:
    # every block, a smaller one after a larger one too, scores the bits of
    # the graph forward, and an earlier block's scores stay as they were
    rng = np.random.default_rng(7)
    params = dis.init_link_params(rng, hidden=64)
    for name in ("link.b1", "link.b2", "link.b3"):
        params[name].data[...] = rng.normal(size=params[name].data.shape)
    scorer = dis.link_mlp_scorer(params)
    kept = []
    for rows in (17, 2048, 2, 1, 17, 2048, 1):
        f = rng.normal(size=(rows, dis.FEATURE_DIM)) * (rng.random((rows, dis.FEATURE_DIM)) < 0.3)
        got = scorer(dis.LinkBlock(features=f, child=None, parent=None, starts=None))
        want = dis.link_probabilities(f, params)
        assert got.shape == (rows,)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        kept.append((got, want.copy()))
    for got, want in kept:
        assert np.array_equal(got, want)


# -- parent choice ---------------------------------------------------------


def make_flat_log(n):
    return ChatLog("c", [utt(i, i * 1000, f"u{i}", f"m{i}", (f"m{i}",)) for i in range(n)])


def candidates(child, lo):
    """The candidates of one child in score-vector order: self (None), then
    child - 1 down to lo."""
    return [None, *range(child - 1, lo - 1, -1)]


def pairs_of(b):
    """(child, parent) of every row of a block, parent None on self rows."""
    return [(c, None if p < 0 else p) for c, p in zip(b.child.tolist(), b.parent.tolist())]


def table_scorer(score_of):
    """A block scorer from a per-candidate function."""

    def scorer(b):
        return np.array([score_of(p) for _, p in pairs_of(b)])

    return scorer


def choose_parent(log, child, scorer, threshold=0.5, lookback=50):
    """The choice for one child, from a block of that child alone."""
    b = dis.extract_link_features(dis.link_columns(log), child, child + 1, lookback)
    parents, scores = dis.choose_parents(b, scorer(b), threshold)
    return (None if parents[0] < 0 else int(parents[0])), float(scores[0])


def test_choose_parent_takes_best_scoring_candidate():
    table = {None: 0.3, 3: 0.9, 1: 0.8}
    parent, score = choose_parent(make_flat_log(5), 4, table_scorer(lambda p: table.get(p, 0.1)))
    assert (parent, score) == (3, 0.9)


def test_choose_parent_tie_prefers_self_then_nearest():
    log = make_flat_log(4)
    parent, _ = choose_parent(log, 3, table_scorer(lambda _p: 0.7))
    assert parent is None  # everything tied: self was considered first
    scores = {2: 0.8, 1: 0.8}
    parent, _ = choose_parent(log, 3, table_scorer(lambda p: scores.get(p, 0.2)))
    assert parent == 2  # newest-first order keeps the nearer of the tie


def test_choose_parent_threshold_collapses_to_self():
    parent, score = choose_parent(
        make_flat_log(3), 2, table_scorer(lambda p: 0.45 if p is not None else 0.1), threshold=0.5
    )
    assert parent is None
    assert score == pytest.approx(0.45)


def test_choose_parent_respects_lookback():
    seen = []

    def scorer(b):
        seen.extend(p for _, p in pairs_of(b))
        return np.zeros(len(b.parent))

    choose_parent(make_flat_log(10), 9, scorer, lookback=3)
    assert seen == [None, 8, 7, 6]


def test_choose_parent_rejects_a_score_vector_of_another_length():
    with pytest.raises(ContractViolation):
        choose_parent(make_flat_log(4), 3, lambda _b: np.zeros(2))


def test_choose_parents_picks_within_each_child_and_treats_nan_like_argmax():
    b = dis.extract_link_features(dis.link_columns(make_flat_log(4)), 1, 4, 2)
    # rows: 1 -> self, 0 | 2 -> self, 1, 0 | 3 -> self, 2, 1
    scores = np.array([0.2, 0.9, 0.1, np.nan, 0.99, 0.3, 0.8, 0.8])
    parents, best = dis.choose_parents(b, scores)
    assert parents.tolist() == [0, -1, 2]  # NaN wins child 2, then falls back to self
    assert best[0] == 0.9 and np.isnan(best[1]) and best[2] == 0.8


# -- dialog assembly -------------------------------------------------------


def hash_scorer(salt):
    def score_of(child, parent):
        p = -1 if parent is None else parent
        return np.random.default_rng((salt, child, p + 1)).random()

    def scorer(b):
        return np.array([score_of(c, p) for c, p in pairs_of(b)])

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
    b = dis.extract_link_features(dis.link_columns(log), 0, 3, 2)
    scores = dis.heuristic_link_scorer(b)
    assert pairs_of(b)[2] == (1, 0) and pairs_of(b)[5] == (2, 0)
    good, stale = scores[2], scores[5]
    assert good > 0.5 > stale
    assert scores[1] == 0.5  # child 1's self row


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


def ref_child_block(cols, child, parents):
    """The per-child feature function the chunked one replaced: row 0 is the
    self candidate and row j the parent ``parents[j - 1]``."""
    parents = np.asarray(parents, dtype=np.int64)
    plist = parents.tolist()
    rows = np.arange(1, len(parents) + 1)
    f = np.zeros((len(parents) + 1, 77))
    f[:, 50 + cols.count_buckets[child]] = 1.0
    f[:, 71] = cols.questions[child]
    f[:, 70] = cols.any_mention[child]
    f[0, 74] = 1.0
    if not len(parents):
        return f
    f[rows, dis.time_gap_bucket(cols.times[child] - cols.times[parents])] = 1.0
    distance = child - parents
    f[rows, 25 + dis.distance_bucket(distance)] = 1.0
    f[rows, 40 + cols.count_buckets[parents]] = 1.0
    mine = set(cols.tokens[child])
    shared = np.array([len(mine.intersection(cols.tokens[p])) for p in plist], dtype=np.int64)
    f[rows, 60 + dis.shared_bucket(shared)] = 1.0
    union = len(mine) + cols.distinct_tokens[parents] - shared
    f[1:, 66] = shared / np.maximum(union, 1)
    me, theirs = cols.authors[child], cols.authors[parents]
    f[1:, 67] = theirs == me
    who = theirs.tolist()
    named = {a: cols.mentions(child, a) for a in set(who)}
    f[1:, 68] = [named[a] for a in who]
    f[1:, 69] = [cols.mentions(p, me) for p in plist]
    f[1:, 72] = cols.questions[parents]
    f[1:, 73] = cols.hours[parents] == cols.hours[child]
    f[1:, 75] = parents == 0
    f[1:, 76] = distance == 1
    return f


def chunk_budgets(n, lookback):
    """Product cells per chunk: the minimum (one child per chunk), a value
    that cuts the log in half, and the default."""
    half = max(1, n // 2)
    return 1, half * (half + lookback), dis._LINK_CELLS


def assert_parity(log, params, lookback=50, threshold=0.5):
    """Feature rows, scores, chosen parents and dialogs of the chunked path
    against the per-child and per-pair references, for every child of the
    log, at three chunk budgets."""
    cols = dis.link_columns(log)
    n = len(log.utterances)
    chunked = {"heuristic": dis.heuristic_link_scorer, "mlp": dis.link_mlp_scorer(params)}
    reference = {"heuristic": ref_heuristic, "mlp": ref_mlp(params)}
    rows, scores, parents = [], {k: [] for k in chunked}, {k: [] for k in chunked}
    for child in range(n):
        lo = max(0, child - lookback)
        want = np.array([ref_features(log, child, p) for p in candidates(child, lo)])
        assert np.array_equal(ref_child_block(cols, child, range(child - 1, lo - 1, -1)), want)
        rows.append(want)
        for kind in chunked:
            scores[kind] += [reference[kind](log, child, p) for p in candidates(child, lo)]
            parent = ref_choose_parent(log, child, reference[kind], threshold, lookback)
            parents[kind].append(-1 if parent is None else parent)
    rows = np.concatenate(rows)
    for cells in chunk_budgets(n, lookback):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dis, "_LINK_CELLS", cells)
            chunks = dis.link_chunks(n, lookback)
            if cells == 1:
                assert len(chunks) == n
            blocks = [dis.extract_link_features(cols, a, b, lookback) for a, b in chunks]
            assert np.array_equal(np.concatenate([b.features for b in blocks]), rows), cells
            for kind in chunked:
                got = [chunked[kind](b) for b in blocks]
                if kind == "heuristic":
                    assert np.array_equal(np.concatenate(got), scores[kind]), cells
                else:
                    assert np.max(np.abs(np.concatenate(got) - scores[kind])) <= 1e-12, cells
                chosen = [dis.choose_parents(b, g, threshold)[0] for b, g in zip(blocks, got)]
                assert np.concatenate(chosen).tolist() == parents[kind], (kind, cells)
                parent_of = {c: p for c, p in enumerate(parents[kind]) if p >= 0}
                dialogs = dis.assemble_dialogs(log, chunked[kind], threshold, lookback)
                assert {frozenset(d.members) for d in dialogs} == ref_partition(n, parent_of)
                assert dict(link for d in dialogs for link in d.links) == parent_of


def test_chunks_cover_the_log_and_bound_the_product_and_the_rows():
    cols = dis.link_columns(make_flat_log(100))
    for lookback in (0, 1, 7, 50, 99, 5000, 2**63):
        for cells in (1, 60, 700, dis._LINK_CELLS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dis, "_LINK_CELLS", cells)
                chunks = dis.link_chunks(100, lookback)
            assert [a for a, _ in chunks] == [0, *(b for _, b in chunks[:-1])]
            assert chunks[-1][1] == 100
            k, window = chunks[0][1], min(lookback, 100)  # no window reaches past 0
            assert k == 1 or k * (k + window) <= cells
            assert len(chunks) == 1 or cells < (k + 1) * (k + 1 + window)
            for a, b in chunks:
                rows = len(dis.extract_link_features(cols, a, b, lookback).child)
                assert rows <= max(cells, window + 1), (lookback, cells)


@pytest.mark.parametrize("seed, n_dialogs", [(0, 3), (1, 8), (2, 20), (3, 30)])
def test_batched_path_matches_per_pair_reference(seed, n_dialogs):
    log, _, _ = synth.synth_interleaved(seed=seed, n_dialogs=n_dialogs)
    assert_parity(log, strong_params(seed))


@pytest.mark.parametrize("lookback", [1, 2, 7, 50, 1000])
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
    assert block(log, 1)[1, 0] == 1.0  # gap -40 s, bucket 0
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
    b = dis.extract_link_features(cols, 0, 40, 30)  # every child in one block
    all_scores = scorer(b)
    scores = all_scores[b.starts[39] :]  # child 39: self, then 38 down to 9
    assert len(set(scores[15:].tolist())) == 1
    assert scores[15] == scores.max() > scores[:15].max()
    parents, _ = dis.choose_parents(b, all_scores)
    assert parents[39] == 39 - 15
    assert_parity(log, params, lookback=30)


def ref_link_logit(features, params):
    """One feature row's pre-sigmoid scalar, as its own graph."""
    x = nn.tensor(features)
    h1 = nn.softsign(nn.linear(x, params["link.W1"], params["link.b1"]))
    h2 = nn.softsign(nn.linear(h1, params["link.W2"], params["link.b2"]))
    return (h2 * params["link.w3"]).sum() + params["link.b3"]


def ref_train_link_scorer(examples, hidden, epochs, seed, lookback=50, patience=5):
    """The link trainer with per-pair feature vectors and one graph per
    pair: a seeded 10% of the pairs held out, early stopping on their mean
    loss and the best epoch's parameters put back."""
    sample_rng, init_rng, split_rng, shuffle_rng = np.random.default_rng(seed).spawn(4)
    pairs = []
    for log, links in examples:
        for child in range(len(log.utterances)):
            true_parent = links.get(child)
            pairs.append((ref_features(log, child, true_parent), 1.0))
            others = [p for p in range(max(0, child - lookback), child) if p != true_parent]
            if true_parent is not None:
                others.append(None)
            sample_rng.shuffle(others)
            pairs.extend((ref_features(log, child, p), 0.0) for p in others[:3])
    perm = split_rng.permutation(len(pairs))
    n_val = max(1, round(0.1 * len(pairs)))
    held_out, train = perm[:n_val], perm[n_val:]
    params = dis.init_link_params(init_rng, hidden)
    state = nn.AdamState(lr=0.001)

    def mean_loss(rows):
        losses = []
        for j in rows:
            z = ref_link_logit(pairs[j][0], params)
            losses.append(nn.softplus(z * -1.0 if pairs[j][1] == 1.0 else z))
        return sum(losses[1:], losses[0]) * (1.0 / len(losses))

    history = []
    best, bad = np.inf, 0
    best_params = {k: p.data.copy() for k, p in params.items()}
    for epoch in range(epochs):
        order = shuffle_rng.permutation(train)
        total = 0.0
        for start in range(0, len(order), 32):
            batch = order[start : start + 32]
            loss = mean_loss(batch)
            loss.backward()
            nn.adam_step(params, state)
            total += float(loss.data) * len(batch)
        val = float(mean_loss(held_out).data)
        history.append((total / len(order), val))
        if val < best:
            best, bad = val, 0
            best_params = {k: p.data.copy() for k, p in params.items()}
        else:
            bad += 1
            if bad == patience:
                break
    for k, p in params.items():
        p.data = best_params[k]
    return params, history


def assert_trainer_matches_reference(examples, cfg, lookback, tmp_path):
    want, want_hist = ref_train_link_scorer(
        examples, 8, cfg.max_epochs, cfg.seed, lookback, cfg.patience
    )
    got, got_hist = dis.train_link_scorer(examples, cfg, hidden=8, lookback=lookback)
    assert len(got_hist) == len(want_hist)
    assert np.allclose(got_hist, want_hist, rtol=0, atol=1e-12)
    for name in want:
        assert np.allclose(got[name].data, want[name].data, rtol=0, atol=1e-12), name
    dis.save_link_checkpoint(tmp_path / "want.ckpt", want)
    dis.save_link_checkpoint(tmp_path / "got.ckpt", got)
    assert (tmp_path / "got.ckpt").read_bytes() == (tmp_path / "want.ckpt").read_bytes()
    return got_hist


@pytest.mark.parametrize("lookback", [50, 2])
def test_link_trainer_matches_per_pair_reference(lookback, tmp_path):
    # with lookback 2 most true parents lie outside the window; one graph per
    # mini-batch sums in another order than one per pair, so the float64
    # parameters may move in the last bits, but the saved float32 checkpoint
    # may not
    cfg = ModelConfig(max_epochs=2, seed=3)
    assert_trainer_matches_reference(link_training_examples(), cfg, lookback, tmp_path)


def test_link_trainer_matches_the_reference_when_it_stops_early(tmp_path):
    # on this seed the held-out loss rises from the first epoch: training
    # stops after 1 + patience epochs and puts the first epoch back
    cfg = ModelConfig(max_epochs=10, patience=3, seed=0)
    history = assert_trainer_matches_reference(link_training_examples(), cfg, 2, tmp_path)
    assert len(history) == 4
    assert min(history, key=lambda h: h[1]) == history[0]


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
    d = dis.split_head_body((0, 1, 2, 3), ((1, 0), (2, 0), (3, 2)), log)
    assert d.subject == 0
    assert d.members == (0, 1, 2, 3)
    assert d.links == ((1, 0), (2, 0), (3, 2))
    assert d.initiator == "alice"
    assert d.head_indices == (0, 1)
    assert d.body_indices == (2, 3)  # the initiator's return goes to the body
    assert d.head_text == "my build broke with error five"
    assert d.head_tokens == ("build", "broke", "error", "five")


def test_split_head_body_single_message_dialog():
    log = make_flat_log(1)
    d = dis.split_head_body((0,), (), log)
    assert (d.subject, d.members, d.links) == (0, (0,), ())
    assert d.head_indices == (0,)
    assert d.body_indices == ()
    with pytest.raises(ContractViolation):
        dis.split_head_body((), (), log)


def test_assembled_dialogs_carry_their_head_body_split():
    # every dialog assemble_dialogs returns, with the heuristic and the oracle
    # scorer, is split as it is built: the head is the initiator's opening
    # run, the body the rest of the members in order, and the head's text and
    # tokens are its members' joined
    seen = Counter()
    for seed, oracle in itertools.product(range(8), (False, True)):
        log, links, _ = synth.synth_interleaved(seed=600 + seed, n_dialogs=4)
        score = synth.oracle_scorer(links) if oracle else dis.heuristic_link_scorer
        dialogs = dis.assemble_dialogs(log, score)
        assert sorted(i for d in dialogs for i in d.members) == list(range(len(log.utterances)))
        assert [d.subject for d in dialogs] == sorted(d.subject for d in dialogs)
        utts = log.utterances
        for d in dialogs:
            assert d.head_indices + d.body_indices == d.members
            assert d.subject == d.members[0] == d.head_indices[0]
            assert d.initiator == utts[d.subject].author_id
            assert all(utts[i].author_id == d.initiator for i in d.head_indices)
            if d.body_indices:
                assert utts[d.body_indices[0]].author_id != d.initiator
            assert d.head_text == " ".join(utts[i].clean_text for i in d.head_indices)
            assert d.head_tokens == tuple(t for i in d.head_indices for t in utts[i].tokens)
            seen["long head"] += len(d.head_indices) > 1
            seen["initiator returns"] += any(
                utts[i].author_id == d.initiator for i in d.body_indices
            )
    # the heuristic scorer's merged dialogs give the long heads
    assert seen["long head"] and seen["initiator returns"], seen


# -- training and persistence ----------------------------------------------


def link_training_examples(n_logs=4):
    out = []
    for seed in range(n_logs):
        log, links, _ = synth.synth_interleaved(seed=seed, n_dialogs=2)
        out.append((log, links))
    return out


def test_train_link_scorer_reduces_loss():
    examples = link_training_examples()
    params, history = dis.train_link_scorer(examples, ModelConfig(max_epochs=4, seed=0), hidden=32)
    assert len(history) == 4
    train_losses = [train for train, _ in history]
    assert train_losses[-1] < train_losses[0]
    assert {n: p.data.shape for n, p in params.items()} == dis.link_param_shapes(32)


def test_link_trainer_trains_on_the_rest_of_its_holdout_and_keeps_the_best_epoch(monkeypatch):
    examples = link_training_examples()
    lookback = 2
    rows = 0
    for log, links in examples:
        for child in range(len(log.utterances)):
            window = range(max(0, child - lookback), child)
            tp = links.get(child)
            rows += 1 + min(dis.LINK_NEGATIVES, len(window) - (tp in window) + (tp is not None))
    split, batches, at_val = {}, [], []
    holdout, fit = nn.holdout, nn.fit

    def spy_holdout(n, rng):
        split["n"] = n
        split["train"], split["held"] = holdout(n, rng)
        return split["train"], split["held"]

    def spy_fit(params, state, train_idx, batch_size, batch_loss, val_loss, *rest):
        def spy_batch(batch):
            batches.append(set(batch.tolist()))
            return batch_loss(batch)

        def spy_val():
            at_val.append({k: p.data.copy() for k, p in params.items()})
            return val_loss()

        return fit(params, state, train_idx, batch_size, spy_batch, spy_val, *rest)

    monkeypatch.setattr(nn, "holdout", spy_holdout)
    monkeypatch.setattr(nn, "fit", spy_fit)
    cfg = ModelConfig(max_epochs=10, patience=3, seed=0)
    params, history = dis.train_link_scorer(examples, cfg, hidden=8, lookback=lookback)
    held = set(split["held"].tolist())
    assert split["n"] == rows
    assert len(held) == max(1, round(0.1 * rows))
    assert held | set(split["train"].tolist()) == set(range(rows))
    assert len(split["held"]) + len(split["train"]) == rows
    assert batches and all(held.isdisjoint(b) for b in batches)
    vals = [v for _, v in history]
    best = vals.index(min(vals))
    assert best < len(vals) - 1  # the kept epoch is not the last one run
    for name, p in params.items():
        assert np.array_equal(p.data, at_val[best][name]), name


@pytest.mark.parametrize("n_utterances", [0, 1])
def test_link_trainer_rejects_data_with_no_row_to_train_on_after_the_holdout(n_utterances):
    # one utterance makes one row, the self row, and the holdout takes it
    log = ChatLog("c", [utt(0, 0, "a", "hi", ("hi",))][:n_utterances])
    with pytest.raises(DataError, match=f"at least 2 pairs .*, got {n_utterances}"):
        dis.train_link_scorer([(log, {})], ModelConfig(max_epochs=1))


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
