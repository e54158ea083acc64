"""Feature extraction tests: convolution stack, the 29 heuristic
attributes, topic deviations, Gaussian-damped attention, and fusion.

All expected numbers come from closed forms or from independent
re-implementations written here with plain loops.
"""

import copy
import math
import re
from collections import Counter

import numpy as np
import pytest

from chatmine import features as ft
from chatmine import nn
from chatmine.corpus import ChatLog, Utterance
from chatmine.disentangle import Dialog, split_head_body
from chatmine.encoder import local_windows
from chatmine.errors import ConfigError, ContractViolation


def utt(index, author, clean, tokens, time=0):
    return Utterance(
        index=index,
        time=time,
        author_id=author,
        raw_text=clean,
        clean_text=clean,
        tokens=tuple(tokens),
        placeholders={},
    )


# -- convolution stack -----------------------------------------------------


def test_spec_validation():
    with pytest.raises(ConfigError):
        ft.ConvStackSpec(kernel_counts=())
    with pytest.raises(ConfigError):
        ft.ConvStackSpec(kernel_counts=(4, 0))
    with pytest.raises(ConfigError):
        ft.ConvStackSpec(kernel_size=0)
    with pytest.raises(ConfigError):
        ft.ConvStackSpec(kernel_counts=(4, 4)).validate_input_len(2)
    with pytest.raises(ConfigError, match="conv stage 1: sequence length 3 must exceed kernel size 3"):
        ft.ConvStackSpec((4, 4, 256)).validate_input_len(3)  # one window
    assert ft.ConvStackSpec().validate_input_len(800) == 256


def stack_oracle(x, spec, params, prefix="conv"):
    """Loop-only re-run of the conv stack for cross-checking."""
    seq = np.asarray(x, dtype=float)
    h = spec.kernel_size
    for i, m in enumerate(spec.kernel_counts, 1):
        w = params[f"{prefix}{i}.w"].data
        b = params[f"{prefix}{i}.b"].data
        out = np.zeros(m)
        for j in range(m):
            best = -np.inf
            for t in range(len(seq) - h + 1):
                a = max(0.0, float(np.dot(w[j], seq[t : t + h]) + b[j]))
                best = max(best, a)
            out[j] = best
        seq = out
    return seq


def test_textual_features_match_bruteforce():
    spec = ft.ConvStackSpec(kernel_counts=(5, 4, 6), kernel_size=2)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        params = ft.init_conv_params(rng, spec, input_len=8)
        x = rng.normal(size=8)
        got = ft.textual_features(x[None], spec, params).data
        assert got.shape == (1, 6)
        assert np.allclose(got[0], stack_oracle(x, spec, params), atol=1e-12)


def test_textual_features_zero_input_zero_bias_is_zero():
    spec = ft.ConvStackSpec(kernel_counts=(3, 3), kernel_size=2)
    params = ft.init_conv_params(np.random.default_rng(0), spec, input_len=5)
    out = ft.textual_features(np.zeros((2, 5)), spec, params).data
    assert np.array_equal(out, np.zeros((2, 3)))


def test_textual_features_full_width_shape():
    spec = ft.ConvStackSpec()
    params = ft.init_conv_params(np.random.default_rng(1), spec, input_len=800)
    out = ft.textual_features(np.random.default_rng(2).normal(size=(3, 800)), spec, params)
    assert out.data.shape == (3, ft.TEXTUAL_DIM)


# -- heuristic attributes --------------------------------------------------


def toy_lexicons():
    return ft.HeuristicLexicons(
        greetings=("hello there",),
        disapproval=("does not work",),
        word_class={"great": "pos", "broken": "neg", "fail": "neg", "fine": "neu"},
        emoji_class={"[EMOJI_POS]": "pos", "[EMOJI_NEG]": "neg"},
    )


def dialog_rows(utts, lex=None):
    """The attribute block of the one dialog of all ``utts``, as rows keyed
    by utterance index (the head row by the subject's)."""
    chat = ChatLog("c", utts)
    dialog = Dialog(subject=0, members=tuple(u.index for u in utts), links=())
    parts = split_head_body(dialog, chat)
    block = ft.heuristic_attributes(dialog, parts, chat, ft.TopicStats(chat), lex or toy_lexicons())
    assert block.shape == (1 + len(parts.body_indices), 29)
    return dict(zip([dialog.subject, *parts.body_indices], block))


def test_question_word_and_punctuation_flags():
    v = dialog_rows([utt(0, "a", "how can i fix this ?", ("how", "fix", "?"))])[0]
    assert v.shape == (29,)
    assert v[5] == 1.0  # "how"
    assert np.array_equal(v[0:5], np.zeros(5))
    assert v[6] == 1.0 and v[7] == 0.0
    assert v[8] == 0.0 and v[9] == 0.0


def test_phrase_flags_and_topic_words():
    u0 = utt(0, "a", "hello there team", ("hello", "team"))
    u1 = utt(1, "b", "this does not work and mine is similar", ("work", "similar"))
    u2 = utt(2, "c", "same here !", ("same", "here", "!"))
    rows = dialog_rows([u0, u1, u2])
    assert rows[0][8] == 1.0 and rows[1][8] == 0.0
    assert rows[1][9] == 1.0 and rows[1][10] == 1.0
    assert rows[2][11] == 1.0 and rows[2][7] == 1.0


def _phrase_flag_reference(text, phrases):
    """One whole-word search per phrase."""
    return float(any(re.search(r"\b" + re.escape(ph) + r"\b", text) for ph in phrases))


def test_phrase_flag_matches_a_per_phrase_search():
    lex = ft.load_heuristic_lexicons()
    lexicons = [lex.greetings, lex.disapproval, ("don't", "can't do", "it's", ":)"), ()]
    texts = [
        "", "hello", "hello there", "othello", "hi!", "say hi", "this doesn't work",
        "don't", "dont", "i can't do it", "can't", "it's fine", "its", "well :)", "a:)b",
        "hey , thanks", "not working at all", "that is wrong", "wrongly", "good morning all",
    ]
    for phrases in lexicons:
        for text in texts:
            assert ft._phrase_flag(text, phrases) == _phrase_flag_reference(text, phrases), (
                text, phrases[:3])
    assert all(ft._phrase_flag(text, ()) == 0.0 for text in texts)


def test_question_word_flags_match_per_word_searches():
    texts = ["what why", "whatever happened", "how now who", "which ?", "somehow when", ""]
    for text in texts:
        v = dialog_rows([utt(0, "a", text, tuple(text.split()) or ("x",))])[0]
        want = [float(bool(re.search(rf"\b{w}\b", text))) for w in ft._QUESTION_WORDS]
        assert list(v[:6]) == want, text


def test_token_count_attributes():
    v = dialog_rows([utt(0, "a", "run runs running run", ("run", "runs", "running", "run"))])[0]
    assert v[12] == 4.0  # tokens
    assert v[13] == 3.0  # unique tokens
    assert v[14] == 1.0  # every form stems to "run"


def test_position_attributes_absolute_and_relative():
    utts = [utt(i, "a" if i == 0 else f"u{i}", f"m{i}", (f"m{i}",)) for i in range(10)]
    rows = dialog_rows(utts)
    assert rows[0][15] == 1.0 and rows[0][16] == pytest.approx(0.1)
    assert rows[1][15] == 2.0
    assert rows[1][16] == pytest.approx(0.2)
    assert rows[9][15] == 10.0 and rows[9][16] == pytest.approx(1.0)


def test_sentiment_attributes_counts_and_share():
    u = utt(1, "b", "great broken fail [EMOJI_NEG]", ("great", "broken", "fail", "[EMOJI_NEG]"))
    v = dialog_rows([utt(0, "a", "hello", ("hello",)), u])[1]
    assert tuple(v[22:25]) == (1.0, 0.0, 2.0)  # word pos/neu/neg
    assert tuple(v[25:28]) == (0.0, 0.0, 1.0)  # emoji pos/neu/neg
    assert v[19] == pytest.approx(1.0 / 4.0)
    assert v[20] == 0.0
    assert v[21] == pytest.approx(3.0 / 4.0)


def test_sentiment_share_capped_at_one_and_empty_safe():
    u = utt(0, "a", "great great", ("great", "great"))
    assert dialog_rows([u])[0][19] == 1.0
    v2 = dialog_rows([u, utt(1, "b", "", ())])[1]
    assert tuple(v2[19:22]) == (0.0, 0.0, 0.0)


def test_initiator_flag():
    u0 = utt(0, "alice", "hi", ("hi",))
    u1 = utt(1, "bob", "yo", ("yo",))
    u2 = utt(2, "alice", "ok", ("ok",))  # the initiator again, in the body
    rows = dialog_rows([u0, u1, u2])
    assert [rows[i][28] for i in (0, 1, 2)] == [1.0, 0.0, 1.0]


def test_flags_invariant_under_duplication_counts_double():
    v = dialog_rows([utt(0, "a", "how to fix ?", ("how", "fix", "?"))])[0]
    double = utt(0, "a", "how to fix ? how to fix ?", ("how", "fix", "?", "how", "fix", "?"))
    w = dialog_rows([double])[0]
    assert np.array_equal(v[0:12], w[0:12])
    assert w[12] == 2 * v[12]


def test_multi_utterance_head_is_one_row_of_the_joined_head():
    utts = [
        utt(0, "alice", "how do i fix this", ("fix",)),
        utt(1, "alice", "it is broken ?", ("broken", "?")),
        utt(2, "bob", "same here !", ("same", "here", "!")),
        utt(3, "alice", "thanks", ("thanks",)),
    ]
    rows = dialog_rows(utts)
    assert list(rows) == [0, 2, 3]
    head = rows[0]
    # flags from the joined text: "how" is in the first utterance, "?" in the second
    assert head[5] == 1.0 and head[6] == 1.0
    # counts from the summed tokens
    assert (head[12], head[13]) == (3.0, 3.0)
    assert tuple(head[22:25]) == (0.0, 0.0, 1.0) and head[21] == pytest.approx(1.0 / 3.0)
    assert (head[15], head[16], head[28]) == (1.0, 0.25, 1.0)
    assert head[18] == 0.0
    docs = [u.tokens for u in utts]
    chat_w = tfidf_oracle([t for d in docs for t in d], docs)
    head_w = tfidf_oracle(("fix", "broken", "?"), docs)
    want_tdh = math.sqrt(sum((chat_w[t] - head_w.get(t, 0.0)) ** 2 for t in chat_w))
    assert head[17] == pytest.approx(want_tdh, abs=1e-12)
    # the body's positions count both head members
    assert (rows[2][15], rows[2][16], rows[2][28]) == (3.0, 0.75, 0.0)
    assert (rows[3][15], rows[3][16], rows[3][28]) == (4.0, 1.0, 1.0)
    assert rows[2][11] == 1.0 and rows[2][7] == 1.0 and rows[2][5] == 0.0
    assert rows[2][17] == head[17]


# -- topic statistics ------------------------------------------------------


def tfidf_oracle(tokens, docs):
    """Straight-from-the-definition TF-IDF used to check TopicStats."""
    n = len(docs)
    df = Counter()
    for d in docs:
        df.update(set(d))
    counts = Counter(tokens)
    total = len(tokens)
    out = {}
    for t, c in counts.items():
        idf = math.log((1 + n) / (1 + df[t])) + 1.0 if t in df else math.log(1 + n) + 1.0
        out[t] = (c / total) * idf
    return out


THREE_DOCS = [("build", "fail"), ("build", "pass"), ("lunch",)]
CHAT_TOKENS = tuple(t for d in THREE_DOCS for t in d)


def three_doc_chat():
    utts = [utt(i, f"u{i}", " ".join(d), d) for i, d in enumerate(THREE_DOCS)]
    return ChatLog("c", utts)


def test_tfidf_matches_hand_oracle():
    stats = ft.TopicStats(three_doc_chat())
    for d in THREE_DOCS:
        got = stats.tfidf(d)
        want = tfidf_oracle(d, THREE_DOCS)
        assert got.keys() == want.keys()
        for t in want:
            assert got[t] == pytest.approx(want[t], abs=1e-12), t


def test_profile_orders_by_weight_then_term():
    stats = ft.TopicStats(three_doc_chat())
    prof = stats.chat
    assert prof == stats.profile(CHAT_TOKENS)
    # build: tf 2/5 idf ln(4/3)+1; the three singletons tie at tf 1/5
    # idf ln(2)+1 and fall back to lexicographic order
    assert prof.terms == ("build", "fail", "lunch", "pass")
    assert len(prof.weights) == 4
    assert prof.weights["build"] == pytest.approx((2 / 5) * (math.log(4 / 3) + 1), abs=1e-12)
    assert prof.weights["fail"] == pytest.approx((1 / 5) * (math.log(2) + 1), abs=1e-12)


def test_profile_keeps_the_ten_strongest_terms():
    tokens = tuple(f"t{i:02d}" for i in range(12)) + ("t11",)
    prof = ft.TopicStats(three_doc_chat()).profile(tokens)
    assert prof.terms == ("t11",) + tuple(f"t{i:02d}" for i in range(9))
    assert len(prof.weights) == 12


def test_topic_deviation_hand_case():
    chat = three_doc_chat()
    stats = ft.TopicStats(chat)
    head = THREE_DOCS[0]
    u = THREE_DOCS[2]
    tdh = ft.topic_deviation(stats.chat, stats.profile(head))
    tdu = ft.topic_deviation(stats.profile(head), stats.profile(u))

    chat_w = tfidf_oracle(CHAT_TOKENS, THREE_DOCS)
    head_w = tfidf_oracle(head, THREE_DOCS)
    utt_w = tfidf_oracle(u, THREE_DOCS)
    union_ch = set(chat_w) | set(head_w)  # both profiles fit in 10 terms
    want_tdh = math.sqrt(
        sum((chat_w.get(t, 0.0) - head_w.get(t, 0.0)) ** 2 for t in union_ch)
    )
    union_hu = set(head_w) | set(utt_w)
    want_tdu = math.sqrt(
        sum((head_w.get(t, 0.0) - utt_w.get(t, 0.0)) ** 2 for t in union_hu)
    )
    assert tdh == pytest.approx(want_tdh, abs=1e-9)
    assert tdu == pytest.approx(want_tdu, abs=1e-9)


def test_topic_deviation_zero_when_head_is_whole_chat():
    stats = ft.TopicStats(ChatLog("c", [utt(0, "a", "build fail", ("build", "fail"))]))
    head = stats.profile(("build", "fail"))
    assert ft.topic_deviation(stats.chat, head) == pytest.approx(0.0, abs=1e-12)
    assert ft.topic_deviation(head, stats.profile(("build", "fail"))) == pytest.approx(0.0, abs=1e-12)


def test_topic_deviation_empty_utterance_is_head_norm():
    stats = ft.TopicStats(three_doc_chat())
    head = THREE_DOCS[0]
    tdu = ft.topic_deviation(stats.profile(head), stats.profile(()))
    head_w = tfidf_oracle(head, THREE_DOCS)
    assert tdu == pytest.approx(math.sqrt(sum(w * w for w in head_w.values())), abs=1e-12)


def test_aligned_distance_is_symmetric():
    stats = ft.TopicStats(three_doc_chat())
    pa = stats.profile(THREE_DOCS[0])
    pb = stats.profile(THREE_DOCS[1])
    d_ab = ft.topic_deviation(pa, pb)
    d_ba = ft.topic_deviation(pb, pa)
    assert d_ab == pytest.approx(d_ba, abs=1e-15)
    assert d_ab > 0.0


def test_topic_stats_keep_no_per_dialog_state():
    chat = three_doc_chat()
    stats = ft.TopicStats(chat)
    before = copy.deepcopy(vars(stats))
    for members in ((0, 1), (1, 2), (0, 1, 2)):
        dialog = Dialog(members[0], members, ())
        ft.heuristic_attributes(dialog, split_head_body(dialog, chat), chat, stats, toy_lexicons())
    assert vars(stats) == before


def test_each_distinct_token_is_stemmed_once_per_log(monkeypatch):
    # the stems live in the log's TopicStats: building them stems each
    # distinct alphabetic token once, scoring dialogs stems nothing more, and
    # the distinct-stem count is the one stemming every token gives
    tokens = (
        ("builds", "failing", "builds", "?", "v2"),
        ("failing", "fixes", "42", "building"),
        ("builds", "fixed", "?"),
    )
    chat = ChatLog("c", [utt(i, "ab"[i % 2], " ".join(t), t) for i, t in enumerate(tokens)])
    calls = Counter()
    stem = ft.lexicons.porter_stem

    def counting(word):
        calls[word] += 1
        return stem(word)

    monkeypatch.setattr(ft.lexicons, "porter_stem", counting)
    stats = ft.TopicStats(chat)
    alphabetic = {t for ts in tokens for t in ts if t.isalpha()}
    assert calls == Counter(alphabetic)
    for members in ((0, 1), (1, 2), (0, 1, 2)):
        dialog = Dialog(members[0], members, ())
        parts = split_head_body(dialog, chat)
        block = ft.heuristic_attributes(dialog, parts, chat, stats, toy_lexicons())
        rows = [parts.head_tokens, *(chat.utterances[i].tokens for i in parts.body_indices)]
        want = [len({stem(t) if t.isalpha() else t for t in ts}) for ts in rows]
        assert block[:, 14].tolist() == want
    assert calls == Counter(alphabetic)


# -- standardization -------------------------------------------------------


def test_fit_heuristic_stats_and_standardize():
    rows = np.zeros((4, ft.HEURISTIC_DIM))
    rows[:, 0] = [1.0, 2.0, 3.0, 4.0]
    stats = ft.fit_heuristic_stats(rows)
    assert stats.mean[0] == pytest.approx(2.5)
    assert stats.std[0] == pytest.approx(math.sqrt(1.25))
    assert stats.std[1] == 1.0  # zero variance guard
    z = ft.standardize_heuristics(rows[0], stats)
    assert z[0] == pytest.approx((1.0 - 2.5) / math.sqrt(1.25))
    assert z[1] == 0.0


def test_fit_heuristic_stats_rejects_wrong_width():
    with pytest.raises(ContractViolation):
        ft.fit_heuristic_stats(np.zeros((3, 7)))


# -- local attention -------------------------------------------------------


def attention_oracle(vectors, pad_mask, params):
    """Plain numpy replication of the damped attention contract for one
    window."""
    n, d = vectors.shape
    k = (n - 1) // 2
    hq = params["attn.wq"].data @ vectors[k]
    live = [s for s in range(n) if pad_mask[s]]
    scores, vals = [], []
    for s in live:
        hk = params["attn.wk"].data @ vectors[s]
        g = 1.0 if s == k else math.exp(-((s - k) ** 2) / (2.0 * k * k))
        scores.append(float(hq @ hk) * g)
        vals.append(params["attn.wv"].data @ vectors[s])
    total = sum(scores)
    if total > 0.0:
        weights = [s / total for s in scores]
    else:
        weights = [1.0 / len(live)] * len(live)
    out = np.zeros(params["attn.wv"].data.shape[0])
    for w, v in zip(weights, vals):
        out += w * v
    return out / math.sqrt(d)


def random_attn_params(rng, input_dim, context_dim):
    """Independent Glorot-uniform query, key and value projections."""
    names = ("attn.wq", "attn.wk", "attn.wv")
    return nn.init_params(rng, dict.fromkeys(names, (context_dim, input_dim)))


def random_window(rng, k, dim):
    n = 2 * k + 1
    mask = rng.random(n) < 0.8
    mask[k] = True
    return np.where(mask[:, None], rng.normal(size=(n, dim)), 0.0), mask


def window(seq, center, k):
    """The window around ``center`` of a sequence of vectors, as a one-row
    batch of (windows, pad mask)."""
    windows, mask = local_windows(np.stack(seq), k)
    return windows[center : center + 1], mask[center : center + 1]


def attend(win, params):
    return ft.local_attention(*win, params).data[0]


def test_attention_matches_independent_replication():
    hit_fallback = hit_normal = False
    for k in (1, 2):
        rng = np.random.default_rng(k)
        params = random_attn_params(rng, 6, 4)
        wins = [random_window(rng, k, dim=6) for _ in range(15)]
        vecs = np.stack([v for v, _ in wins])
        masks = np.stack([m for _, m in wins])
        got = ft.local_attention(vecs, masks, params).data  # one batch per k
        assert got.shape == (15, 4)
        for row, (v, m) in zip(got, wins):
            assert np.allclose(row, attention_oracle(v, m, params), atol=1e-12)
            # record which branch the oracle took so both get covered
            total = sum(
                float((params["attn.wq"].data @ v[k]) @ (params["attn.wk"].data @ v[s]))
                * (1.0 if s == k else math.exp(-((s - k) ** 2) / (2.0 * k * k)))
                for s in range(2 * k + 1)
                if m[s]
            )
            hit_fallback |= total <= 0.0
            hit_normal |= total > 0.0
    assert hit_fallback and hit_normal


def test_attention_gaussian_weights_closed_form():
    # Keys see only coordinate 0 (equal across slots), values only
    # coordinate 1. Weights reduce to the bare Gaussian profile
    # (g, 1, g)/(1 + 2g) with g = exp(-1/2).
    Wq = nn.Parameter("attn.wq", np.array([[1.0, 0.0]]))
    Wk = nn.Parameter("attn.wk", np.array([[1.0, 0.0]]))
    Wv = nn.Parameter("attn.wv", np.array([[0.0, 1.0]]))
    params = {"attn.wq": Wq, "attn.wk": Wk, "attn.wv": Wv}
    vecs = [np.array([1.0, 10.0]), np.array([1.0, 20.0]), np.array([1.0, 30.0])]
    got = attend(window(vecs, 1, k=1), params)
    g = math.exp(-0.5)
    want = ((10.0 * g + 20.0 + 30.0 * g) / (1.0 + 2.0 * g)) / math.sqrt(2.0)
    assert got.shape == (1,)
    assert float(got[0]) == pytest.approx(want, abs=1e-12)


def test_attention_center_weight_closed_form():
    # Identical slots apart from the value coordinate marking the center:
    # the center weight must equal 1 / (1 + 2 exp(-1/2)).
    Wq = nn.Parameter("attn.wq", np.array([[1.0, 0.0]]))
    Wk = nn.Parameter("attn.wk", np.array([[1.0, 0.0]]))
    Wv = nn.Parameter("attn.wv", np.array([[0.0, 1.0]]))
    params = {"attn.wq": Wq, "attn.wk": Wk, "attn.wv": Wv}
    vecs = [np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.array([1.0, 0.0])]
    ctx = attend(window(vecs, 1, k=1), params)
    a_center = float(ctx[0]) * math.sqrt(2.0)
    assert a_center == pytest.approx(1.0 / (1.0 + 2.0 * math.exp(-0.5)), abs=1e-9)


def test_attention_single_live_slot_passes_value_through():
    params = random_attn_params(np.random.default_rng(0), 3, 2)
    vecs = [np.array([0.4, -0.2, 1.0])]
    got = attend(window(vecs, 0, k=1), params)  # both sides padded
    want = (params["attn.wv"].data @ vecs[0]) / math.sqrt(3.0)
    assert np.allclose(got, want, atol=1e-12)
    # at k = 0 the window is the center alone
    assert np.allclose(attend(window(vecs, 0, k=0), params), want, atol=1e-12)


def test_attention_nonpositive_scores_fall_back_to_uniform():
    Wq = nn.Parameter("attn.wq", np.array([[1.0, 0.0]]))
    Wk = nn.Parameter("attn.wk", np.array([[-1.0, 0.0]]))
    Wv = nn.Parameter("attn.wv", np.array([[0.0, 1.0]]))
    params = {"attn.wq": Wq, "attn.wk": Wk, "attn.wv": Wv}
    vecs = [np.array([1.0, 3.0]), np.array([1.0, 6.0]), np.array([1.0, 9.0])]
    got = attend(window(vecs, 1, k=1), params)
    assert float(got[0]) == pytest.approx((6.0 / math.sqrt(2.0)), abs=1e-12)


def test_attention_zero_values_give_zero_context():
    params = {
        "attn.wq": nn.Parameter("attn.wq", np.ones((2, 3))),
        "attn.wk": nn.Parameter("attn.wk", np.ones((2, 3))),
        "attn.wv": nn.Parameter("attn.wv", np.zeros((2, 3))),
    }
    assert np.array_equal(attend(window([np.ones(3)] * 3, 1, k=1), params), np.zeros(2))


def test_attention_ignores_content_outside_window():
    rng = np.random.default_rng(5)
    params = random_attn_params(rng, 4, 3)
    seq_a = [rng.normal(size=4) for _ in range(4)]
    seq_b = [v.copy() for v in seq_a]
    seq_b[3] = rng.normal(size=4)  # outside the k=1 window of center 1
    wa = window(seq_a, 1, k=1)
    wb = window(seq_b, 1, k=1)
    assert np.array_equal(attend(wa, params), attend(wb, params))


def attention_graph_size(rows, k):
    params = random_attn_params(np.random.default_rng(2), 4, 3)
    params["attn.wk"].data = params["attn.wq"].data.copy()  # positive scores
    vecs = [np.array([1.0, 0.5, -0.5, 0.2]) * (i + 1) for i in range(2 * k + 1)]
    windows, mask = window(vecs, k, k)
    ctx = ft.local_attention(np.repeat(windows, rows, 0), np.repeat(mask, rows, 0), params)
    seen, stack = set(), [ctx]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_full_window_attention_graph_is_one_node_per_op():
    # 3 projections, the slot and center constants, the damping and
    # fallback masks, 1/sqrt(d) and sixteen ops, whatever the batch size
    # and window radius
    assert attention_graph_size(1, 1) == attention_graph_size(8, 1) == attention_graph_size(8, 2)
    assert attention_graph_size(8, 1) <= 24


def test_attention_rejects_padded_center():
    params = random_attn_params(np.random.default_rng(0), 2, 2)
    mask = np.array([[True, True, True], [True, False, True]])
    with pytest.raises(ContractViolation):
        ft.local_attention(np.zeros((2, 3, 2)), mask, params)


def test_tied_init_copies_query_into_key():
    p = ft.init_attention_params(np.random.default_rng(3), input_dim=5)
    assert set(p) == set(ft.attention_param_shapes(5))
    assert all(t.data.shape == (ft.CONTEXT_DIM, 5) for t in p.values())
    assert np.array_equal(p["attn.wq"].data, p["attn.wk"].data)
    assert p["attn.wq"].data is not p["attn.wk"].data
    assert not np.array_equal(p["attn.wq"].data, p["attn.wv"].data)


# -- fusion ----------------------------------------------------------------


def test_fuse_concatenates_in_order():
    rng = np.random.default_rng(0)
    t = rng.normal(size=(2, ft.TEXTUAL_DIM))
    h = rng.normal(size=(2, ft.HEURISTIC_DIM))
    c = rng.normal(size=(2, ft.CONTEXT_DIM))
    out = ft.fuse_features(nn.tensor(t), h, nn.tensor(c)).data
    assert out.shape == (2, ft.FUSED_DIM)
    assert ft.FUSED_DIM == 413
    assert np.array_equal(out[:, :256], t)
    assert np.array_equal(out[:, 256:285], h)
    assert np.array_equal(out[:, 285:], c)


def test_fuse_standardizes_only_the_heuristic_block():
    rng = np.random.default_rng(1)
    t = rng.normal(size=(1, ft.TEXTUAL_DIM))
    h = rng.normal(size=(1, ft.HEURISTIC_DIM))
    c = rng.normal(size=(1, ft.CONTEXT_DIM))
    stats = ft.HeuristicStats(mean=tuple([1.0] * 29), std=tuple([2.0] * 29))
    out = ft.fuse_features(nn.tensor(t), h, nn.tensor(c), stats).data
    assert np.array_equal(out[:, :256], t)
    assert np.allclose(out[:, 256:285], (h - 1.0) / 2.0, atol=1e-15)
    assert np.array_equal(out[:, 285:], c)


def test_fuse_rejects_wrong_widths():
    t = nn.tensor(np.zeros((1, ft.TEXTUAL_DIM)))
    h = np.zeros((1, ft.HEURISTIC_DIM))
    c = nn.tensor(np.zeros((1, ft.CONTEXT_DIM)))
    with pytest.raises(ContractViolation):
        ft.fuse_features(nn.tensor(np.zeros((1, 10))), h, c)
    with pytest.raises(ContractViolation):
        ft.fuse_features(t, np.zeros((1, 10)), c)
    with pytest.raises(ContractViolation):
        ft.fuse_features(t, h, nn.tensor(np.zeros((1, 10))))
    with pytest.raises(ContractViolation):  # rows that do not line up
        ft.fuse_features(t, np.zeros((2, ft.HEURISTIC_DIM)), c)
