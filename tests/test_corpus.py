"""Normalization, parsing, fluency-model, and merge tests.

The bigram-model numbers are hand-derived closed forms; merge decisions are
cross-checked against an independent counting implementation in this file.
"""

import json
import math
import os
import re
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatmine import corpus, lexicons
from chatmine.corpus import (
    BigramLM,
    ChatLog,
    PreprocessConfig,
    RawMessage,
    build_corpus_lm,
    merge_broken_utterances,
    ngram_perplexity,
    parse_chat_log,
    preprocess_chat_log,
    preprocess_utterance,
    read_clean_jsonl,
    tokenize,
    write_clean_jsonl,
    write_raw_jsonl,
)
from chatmine.disentangle import load_link_examples
from chatmine.errors import DataError
from chatmine.model import load_labeled_dialogs

CFG = PreprocessConfig()


def prep(text, author="alice", time=0):
    return preprocess_utterance(RawMessage(time, author, text), CFG)


def tags(u):
    """The placeholder tags in an utterance's clean text, counted by name."""
    return Counter(re.findall(r"\[([A-Z_]+)\]", u.clean_text))


# -- normalization ---------------------------------------------------------


def test_pinned_normalization_example():
    u = prep("IMO it fails :(")
    assert u.clean_text == "in my opinion it fail [EMOJI_NEG]"
    assert u.tokens == ("opinion", "fail", "[EMOJI_NEG]")
    assert tags(u) == {"EMOJI_NEG": 1}


def test_placeholders_cover_the_noise_classes():
    u = prep("see https://x.io/a?q=1 or mail bob@x.io about <div> and `rm -rf` build 1.2.3")
    for tag in ("URL", "EMAIL", "HTML", "CODE", "ID"):
        assert tags(u)[tag] == 1, (tag, u.clean_text)
    assert "bob@x.io" not in u.clean_text
    assert "[URL]" in u.clean_text


def test_url_with_credentials_is_one_url_not_an_email():
    u = prep("ftp://user@host.example/path broke")
    assert tags(u) == {"URL": 1}


def test_acronyms_expand_case_insensitively_on_word_boundaries():
    assert "by the way" in prep("BTW this works").clean_text
    assert "thank you" in prep("ty!").clean_text
    # no substring hits inside longer words
    assert "typo" in prep("typo").clean_text


def test_an_acronym_matched_only_by_case_folding_is_left_as_written(tmp_path):
    # IGNORECASE matches "I" to the key "ı", but "I".lower() is "i"
    acronyms = tmp_path / "acronyms.tsv"
    acronyms.write_text("ı\tdotless\n", encoding="utf-8")
    cfg = PreprocessConfig(acronyms_path=str(acronyms))
    assert preprocess_utterance(RawMessage(0, "a", "I ı"), cfg).clean_text == "i dotless"


def test_emoji_mapped_to_sentiment_tags():
    u = prep("works now :) but earlier :(")
    assert tags(u) == {"EMOJI_POS": 1, "EMOJI_NEG": 1}


def test_lemmatizer_examples():
    cases = {
        "fixes": "fix",
        "running": "run",
        "added": "add",
        "releases": "release",
        "tried": "try",
        "bugs": "bug",
        "does": "does",
        "was": "was",
        "this": "this",
        "crashes": "crash",
    }
    for word, want in cases.items():
        assert prep(word).clean_text == want, word


def test_stopwords_removed_from_tokens_but_kept_in_clean_text():
    u = prep("it is the server")
    assert "it" in u.clean_text.split()
    assert u.tokens == ("server",)


def test_question_words_survive_tokenization():
    u = prep("how do I fix this?")
    assert "how" in u.tokens
    assert "?" in u.tokens


def test_normalization_is_idempotent():
    first = prep("IMO the Build 1.2.3 FAILED :( see https://ci.example/run")
    second = preprocess_utterance(RawMessage(0, "alice", first.clean_text), CFG)
    assert second.clean_text == first.clean_text
    assert second.tokens == first.tokens


def test_empty_and_whitespace_normalize_to_empty():
    assert prep("   ").clean_text == ""
    assert prep("").tokens == ()


@settings(max_examples=60, deadline=None)
@given(st.text(min_size=0, max_size=80))
def test_normalization_deterministic_and_token_derivation_holds(text):
    a = preprocess_utterance(RawMessage(0, "x", text), CFG)
    b = preprocess_utterance(RawMessage(0, "x", text), CFG)
    assert a.clean_text == b.clean_text and a.tokens == b.tokens
    stop = lexicons.load_wordlist(lexicons.data_path("stopwords.txt"))
    derived = tuple(t for t in tokenize(a.clean_text) if t not in stop)
    assert a.tokens == derived


# -- parsing ---------------------------------------------------------------


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_parse_chat_log_reads_and_sorts_by_time(tmp_path):
    p = tmp_path / "log.jsonl"
    write_lines(
        p,
        [
            json.dumps({"time": 2000, "id": "bob", "text": "second"}),
            json.dumps({"time": 1000, "id": "alice", "text": "first"}),
        ],
    )
    log, skipped = parse_chat_log(p)
    assert not skipped
    assert [u.raw_text for u in log.utterances] == ["first", "second"]
    assert [u.index for u in log.utterances] == [0, 1]


def test_parse_chat_log_skips_bad_lines_with_reasons(tmp_path):
    p = tmp_path / "log.jsonl"
    write_lines(
        p,
        [
            "not json at all {",
            json.dumps(["a", "list"]),
            json.dumps({"time": 1, "id": "a"}),
            json.dumps({"time": "soon", "id": "a", "text": "x"}),
            json.dumps({"time": -5, "id": "a", "text": "x"}),
            json.dumps({"time": 1, "id": 7, "text": "x"}),
            json.dumps({"time": 1, "id": "a", "text": 9}),
            json.dumps({"time": 10, "id": "a", "text": "good"}),
        ],
    )
    log, skipped = parse_chat_log(p)
    assert len(log.utterances) == 1
    assert log.utterances[0].raw_text == "good"
    assert [s.line_no for s in skipped] == [1, 2, 3, 4, 5, 6, 7]
    reasons = " | ".join(s.reason for s in skipped)
    assert "missing field" in reasons
    assert "time" in reasons


def test_records_split_at_newlines_only(tmp_path):
    text = "one\u2028two\u0085three\u2029four"
    lines = [
        json.dumps({"time": 1, "id": "a", "text": text}, ensure_ascii=False),
        "not json",
        json.dumps({"time": 2, "id": "b", "text": "hi"}),
    ]
    p = tmp_path / "log.jsonl"
    for eol in ("\n", "\r\n", "\r"):
        p.write_bytes((eol.join(lines) + eol).encode("utf-8"))
        log, skipped = parse_chat_log(p)
        assert [u.raw_text for u in log.utterances] == [text, "hi"]
        assert skipped == [corpus.SkippedLine(2, "invalid json")]


def test_parse_stable_order_for_equal_times(tmp_path):
    p = tmp_path / "log.jsonl"
    write_lines(
        p,
        [json.dumps({"time": 5, "id": "a", "text": f"m{i}"}) for i in range(6)],
    )
    log, _ = parse_chat_log(p)
    assert [u.raw_text for u in log.utterances] == [f"m{i}" for i in range(6)]


# a clean-log record, which every reader of utterance records accepts
GOOD = {"time": 1000, "id": "ann", "text": "build fails", "clean_text": "build fail",
        "tokens": ["build", "fail"]}


@pytest.mark.parametrize(
    "record, reason",
    [
        (["a", "list"], "not an object"),
        ({"id": "a", "text": "x"}, "missing field: time"),
        ({"time": 1, "text": "x"}, "missing field: id"),
        ({"time": 1, "id": "a"}, "missing field: text"),
        ({"time": "soon", "id": "a", "text": "x"}, "time is not a whole number"),
        ({"time": 2.5, "id": "a", "text": "x"}, "time is not a whole number"),
        ({"time": True, "id": "a", "text": "x"}, "time is not a whole number"),
        ({"time": -5, "id": "a", "text": "x"}, "negative time -5"),
        ({"time": 1, "id": 7, "text": "x"}, "id is blank or not a string"),
        ({"time": 1, "id": " ", "text": "x"}, "id is blank or not a string"),
        ({"time": 1, "id": "a", "text": 9}, "text is not a string"),
    ],
    ids=["list", "no-time", "no-id", "no-text", "string-time", "fractional-time", "bool-time",
         "negative-time", "int-id", "blank-id", "int-text"],
)
def test_every_reader_applies_the_one_utterance_check(tmp_path, record, reason):
    """The raw log skips a bad utterance with its reason; every other reader
    of utterance records raises that same reason, naming file and line."""
    p = tmp_path / "data.jsonl"
    write_lines(p, [json.dumps(GOOD), "", json.dumps(record)])
    log, skipped = parse_chat_log(p)
    assert [u.raw_text for u in log.utterances] == [GOOD["text"]]
    assert skipped == [corpus.SkippedLine(3, reason)]
    want = re.escape(f"{p}:3: bad utterance ({reason})")
    with pytest.raises(DataError, match=want):
        read_clean_jsonl(p)
    for reader, wrap in (
        (load_labeled_dialogs, lambda utts: {"community_id": "c", "utterances": utts, "y_issue": 0}),
        (load_link_examples, lambda utts: {"utterances": utts, "links": []}),
    ):
        write_lines(p, [json.dumps(wrap([GOOD])), "", json.dumps(wrap([GOOD, record]))])
        with pytest.raises(DataError, match=want):
            reader(p, CFG)


# -- bigram fluency model --------------------------------------------------


def test_bigram_hand_computed_probabilities():
    lm = BigramLM.train([["a", "b", "c", "d"]])
    # vocab {a,b,c,d,<unk>} so V=5; add-one on count 1 out of context 1
    assert lm.prob(corpus.START_TOKEN, "a") == pytest.approx(2.0 / 6.0)
    assert lm.prob("a", "b") == pytest.approx(2.0 / 6.0)
    assert lm.prob("a", "z") == pytest.approx(1.0 / 6.0)  # unseen target -> <unk>
    assert lm.perplexity(["a"]) == pytest.approx(3.0)
    # all-unseen pair: p = 1/6 then 1/5, so ppl = sqrt(30)
    assert lm.perplexity(["x", "y"]) == pytest.approx(math.sqrt(30.0))


def test_bigram_empty_sequence_is_infinitely_surprising():
    lm = BigramLM.train([["a"]])
    assert lm.perplexity([]) == math.inf


class NaiveBigram:
    """Textbook add-one bigram, written independently for cross-checking."""

    def __init__(self, sequences):
        self.pairs = {}
        self.ctx = {}
        vocab = {"<unk>"}
        for seq in sequences:
            prev = "<s>"
            for tok in seq:
                vocab.add(tok)
                self.pairs[(prev, tok)] = self.pairs.get((prev, tok), 0) + 1
                self.ctx[prev] = self.ctx.get(prev, 0) + 1
                prev = tok
        self.vocab = vocab

    def perplexity(self, tokens):
        if not tokens:
            return math.inf
        logp = 0.0
        prev = "<s>"
        for tok in tokens:
            t = tok if tok in self.vocab else "<unk>"
            p = prev if (prev == "<s>" or prev in self.vocab) else "<unk>"
            num = self.pairs.get((p, t), 0) + 1
            den = self.ctx.get(p, 0) + len(self.vocab)
            logp += math.log(num / den)
            prev = tok
        return math.exp(-logp / len(tokens))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from("abcde"), min_size=1, max_size=6),
        min_size=1,
        max_size=8,
    ),
    st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=6),
)
def test_bigram_matches_independent_implementation(train, query):
    ours = BigramLM.train(train).perplexity(query)
    naive = NaiveBigram(train).perplexity(query)
    assert ours == pytest.approx(naive, rel=1e-12)


def test_fluent_word_order_scores_lower_perplexity():
    sentences = [
        "please restart the server now",
        "please restart the build now",
        "please check the server logs",
        "you can restart the server",
    ]
    lm = BigramLM.train([tokenize(s) for s in sentences] * 5)
    fluent = ngram_perplexity("please restart the server", lm)
    scrambled = ngram_perplexity("server the restart please", lm)
    assert fluent < scrambled


# -- merge pass ------------------------------------------------------------


def fixture_log(extra):
    """A log dominated by one intact sentence so its transitions are cheap."""
    base = "how can i fix this error"
    msgs = [RawMessage(1000 * i, f"user{i % 3}", base) for i in range(9)]
    msgs += extra
    msgs.sort(key=lambda m: m.time)
    utts = [preprocess_utterance(m, CFG, index=i) for i, m in enumerate(msgs)]
    return ChatLog("c", [u for u in utts if u.clean_text])


def test_merge_joins_split_sentence():
    log = fixture_log(
        [RawMessage(50_000, "sam", "how can i"), RawMessage(55_000, "sam", "fix this error")]
    )
    lm = build_corpus_lm(log)
    merged = merge_broken_utterances(log, lm, CFG)
    assert len(merged.utterances) == len(log.utterances) - 1
    joined = [u for u in merged.utterances if u.author_id == "sam"]
    assert len(joined) == 1
    assert joined[0].raw_text == "how can i\nfix this error"
    assert joined[0].clean_text == "how can i fix this error"
    assert joined[0].time == 50_000
    assert [u.index for u in merged.utterances] == list(range(len(merged.utterances)))


def test_merge_respects_author_and_time_gap():
    log_a = fixture_log(
        [RawMessage(50_000, "sam", "how can i"), RawMessage(56_000, "kim", "fix this error")]
    )
    merged_a = merge_broken_utterances(log_a, build_corpus_lm(log_a), CFG)
    assert len(merged_a.utterances) == len(log_a.utterances)

    log_b = fixture_log(
        [RawMessage(50_000, "sam", "how can i"), RawMessage(200_000, "sam", "fix this error")]
    )
    merged_b = merge_broken_utterances(log_b, build_corpus_lm(log_b), CFG)
    assert len(merged_b.utterances) == len(log_b.utterances)


def test_merge_decision_matches_independent_perplexity_check():
    log = fixture_log(
        [RawMessage(50_000, "sam", "how can i"), RawMessage(55_000, "sam", "fix this error")]
    )
    naive = NaiveBigram([tokenize(u.clean_text) for u in log.utterances])
    a, b = [u for u in log.utterances if u.author_id == "sam"]
    joint = naive.perplexity(tokenize(a.clean_text + " " + b.clean_text))
    assert joint < CFG.perplexity_threshold
    assert joint < min(
        naive.perplexity(tokenize(a.clean_text)), naive.perplexity(tokenize(b.clean_text))
    )


def test_merge_preserves_tokens_times_and_reindexes():
    log = fixture_log(
        [
            RawMessage(50_000, "sam", "how can i"),
            RawMessage(55_000, "sam", "fix this error"),
            RawMessage(70_000, "sam", "how can i"),
            RawMessage(75_000, "sam", "fix this error"),
        ]
    )
    merged = merge_broken_utterances(log, build_corpus_lm(log), CFG)
    before = [t for u in log.utterances for t in u.tokens]
    after = [t for u in merged.utterances for t in u.tokens]
    assert before == after
    times = [u.time for u in merged.utterances]
    assert times == sorted(times)
    assert [u.index for u in merged.utterances] == list(range(len(merged.utterances)))


def test_merged_raw_text_still_derives_merged_fields():
    log = fixture_log(
        [RawMessage(50_000, "sam", "how can i"), RawMessage(55_000, "sam", "fix this error")]
    )
    merged = merge_broken_utterances(log, build_corpus_lm(log), CFG)
    for u in merged.utterances:
        again = preprocess_utterance(RawMessage(u.time, u.author_id, u.raw_text), CFG)
        assert again.clean_text == u.clean_text
        assert again.tokens == u.tokens


# -- typo correction -------------------------------------------------------


def test_typo_correction_rewrites_rare_oov_words():
    msgs = [RawMessage(i * 1000, f"u{i}", "install the package") for i in range(5)]
    msgs.append(RawMessage(9000, "u9", "cannot instal the package"))
    log = ChatLog("c", [preprocess_utterance(m, CFG, index=i) for i, m in enumerate(msgs)])
    fixed = corpus.correct_typos(list(log.utterances), CFG)
    bad = [u for u in fixed if u.author_id == "u9"][0]
    assert "install" in bad.clean_text
    assert "instal" not in bad.clean_text.split()
    assert "install" in bad.tokens


def test_typo_correction_leaves_short_and_known_words_alone():
    msgs = [RawMessage(i * 1000, f"u{i}", "the server died") for i in range(4)]
    msgs.append(RawMessage(9000, "u9", "teh server died"))
    utts = [preprocess_utterance(m, CFG, index=i) for i, m in enumerate(msgs)]
    fixed = corpus.correct_typos(utts, CFG)
    target = [u for u in fixed if u.author_id == "u9"][0]
    assert "teh" in target.clean_text.split()  # below typo_min_len, untouched


def edit1_reference(word):
    """Every string one a-z substitution or insertion, or one deletion, away."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    out = set()
    for i in range(len(word) + 1):
        head, tail = word[:i], word[i:]
        if tail:
            out.add(head + tail[1:])
        for c in letters:
            if tail:
                out.add(head + c + tail[1:])
            out.add(head + c + tail)
    out.discard(word)
    return out


def correct_typos_reference(utterances, cfg):
    """Typo repair as first written: every edit of each rare token intersected
    with the vocabulary, and clean text rewritten by one alternation regex."""
    counts = Counter(t for u in utterances for t in u.tokens)
    vocab = {t for t, c in counts.items() if c >= cfg.vocab_min_count and t.isalpha()}
    fixes = {}
    for tok in counts:
        if tok in vocab or not tok.isalpha() or len(tok) < cfg.typo_min_len:
            continue
        cands = edit1_reference(tok) & vocab
        if cands:
            fixes[tok] = min(cands, key=lambda w: (-counts[w], w))
    if not fixes:
        return list(utterances)
    fix_re = re.compile(r"\b(?:" + "|".join(sorted(fixes, key=len, reverse=True)) + r")\b")
    return [
        replace(
            u,
            tokens=tuple(fixes.get(t, t) for t in u.tokens),
            clean_text=corpus._outside_placeholders(
                u.clean_text, lambda seg: fix_re.sub(lambda m: fixes[m.group(0)], seg)
            ),
        )
        for u in utterances
    ]


# small alphabets, so that words one edit apart are common
_LETTER = st.sampled_from("abcdeéжz")
_WORD = st.text(_LETTER, min_size=1, max_size=6).filter(str.isalpha)


@settings(max_examples=300, deadline=None)
@given(st.sets(_WORD, max_size=25), _WORD)
def test_typo_candidates_equal_the_edits_in_the_vocabulary(vocab, tok):
    vocab.discard(tok)
    index = corpus._typo_index(vocab)
    assert corpus._typo_candidates(tok, vocab, index) == edit1_reference(tok) & vocab


def test_typo_candidates_cover_each_kind_of_edit():
    vocab = {"build", "buil", "bxild", "builds", "éuild", "ébuild", "bujld"}
    index = corpus._typo_index(vocab)
    # deletion, substitution and insertion of a-z letters; é and ж are never
    # written, but a deletion may drop one
    want = {"build": {"buil", "bxild", "bujld", "builds"}, "bжild": {"build", "bxild"}, "ébuild": {"build", "éuild"}}
    for tok, cands in want.items():
        assert corpus._typo_candidates(tok, vocab, index) == cands == edit1_reference(tok) & vocab


_PIECE = st.sampled_from(
    ["build", "buld", "buldé", "x'buld", "instal", "install", "instll", "é", "ж", "a",
     "ab", "abc", "b", "_buld", "buld2", "2", "[URL]", "url", "it's", "fail", "fale", ",", "?"]
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(_PIECE, min_size=1, max_size=8), min_size=1, max_size=12),
    st.integers(1, 4),
    st.integers(1, 3),
)
def test_correct_typos_matches_the_reference(texts, min_len, min_count):
    cfg = PreprocessConfig(typo_min_len=min_len, vocab_min_count=min_count)
    utts = [
        preprocess_utterance(RawMessage(i, "a", " ".join(words)), cfg, index=i)
        for i, words in enumerate(texts)
    ]
    assert corpus.correct_typos(utts, cfg) == correct_typos_reference(utts, cfg)


def test_typo_fixes_rewrite_tokens_and_text_words_independently():
    texts = ["build build", "buldé", "x'buld"]
    utts = [preprocess_utterance(RawMessage(i, "a", t), CFG, index=i) for i, t in enumerate(texts)]
    fixed = corpus.correct_typos(utts, CFG)
    assert fixed == correct_typos_reference(utts, CFG)
    # "buldé" is one text word but the tokens buld, é: only the token is fixed
    assert (fixed[1].clean_text, fixed[1].tokens) == ("buldé", ("build", "é"))
    # "x'buld" is one token but the text words x, buld: only the text is fixed
    assert (fixed[2].clean_text, fixed[2].tokens) == ("x'build", ("x'buld",))


def test_lemmas_are_cached_per_word_and_rule_table(tmp_path, monkeypatch):
    calls = Counter()
    real = lexicons.lemmatize_word

    def counting(word, rules):
        calls[word] += 1
        return real(word, rules)

    monkeypatch.setattr(lexicons, "lemmatize_word", counting)
    # a rule file no other test reads, so no other test has filled its cache
    rules = tmp_path / "lemma_rules.tsv"
    rules.write_bytes(lexicons.data_path("lemma_rules.tsv").read_bytes())
    cfg = PreprocessConfig(lemma_rules_path=rules)
    first = [preprocess_utterance(RawMessage(0, "a", "builds failing builds"), cfg)]
    again = [preprocess_utterance(RawMessage(0, "a", "builds failing builds"), cfg)]
    assert first == again and first[0].clean_text == "build fail build"
    assert calls == {"builds": 1, "failing": 1}


def test_a_lexicon_rewritten_in_place_is_read_again(tmp_path):
    acronyms = tmp_path / "acronyms.tsv"
    acronyms.write_text("brb\tbe right back\n", encoding="utf-8")
    cfg = PreprocessConfig(acronyms_path=acronyms)
    msg = RawMessage(0, "a", "brb")
    assert preprocess_utterance(msg, cfg).tokens == ("right", "back")
    acronyms.write_text("brb\tback in a minute\n", encoding="utf-8")
    assert preprocess_utterance(msg, cfg).tokens == ("back", "minute")
    # the same size: only the modification time tells the two apart
    acronyms.write_text("brb\tback in a moment\n", encoding="utf-8")
    os.utime(acronyms, ns=(1_000_000_000, 1_000_000_000))
    assert preprocess_utterance(msg, cfg).tokens == ("back", "moment")
    log = ChatLog("c", [corpus.Utterance(0, 0, "a", "brb", "", ())])
    assert preprocess_chat_log(log, cfg).utterances[0].tokens == ("back", "moment")


# -- whole-log pipeline and serialization ----------------------------------


def test_preprocess_chat_log_drops_empty_after_normalization():
    log = ChatLog(
        "c",
        [
            corpus.Utterance(0, 0, "a", "   ", "", ()),
            corpus.Utterance(1, 5, "a", "hello", "hello", ("hello",)),
        ],
    )
    out = preprocess_chat_log(log, CFG)
    assert len(out.utterances) == 1


def test_clean_jsonl_round_trip(tmp_path):
    msgs = [
        RawMessage(1, "a", "IMO it fails :("),
        RawMessage(2, "b", "try `rm -rf build` now"),
    ]
    log = ChatLog("proj", [preprocess_utterance(m, CFG, index=i) for i, m in enumerate(msgs)])
    p = tmp_path / "clean.jsonl"
    write_clean_jsonl(log, p)
    back = read_clean_jsonl(p, community_id="proj")
    assert back.community_id == "proj"
    assert back.utterances == log.utterances


def test_clean_log_holds_no_placeholder_counts_and_reads_old_ones(tmp_path):
    log = ChatLog("proj", [preprocess_utterance(RawMessage(1, "a", "IMO it fails :("), CFG)])
    p = tmp_path / "clean.jsonl"
    write_clean_jsonl(log, p)
    record = json.loads(p.read_text(encoding="utf-8"))
    assert set(record) == {"index", "time", "id", "text", "clean_text", "tokens"}
    # a clean log written with the per-tag counts reads as any other extra key
    write_lines(p, [json.dumps({**record, "placeholders": v}) for v in ({"EMOJI_NEG": 1}, [1])])
    u = log.utterances[0]
    assert read_clean_jsonl(p, community_id="proj").utterances == [u, replace(u, index=1)]


def test_raw_jsonl_round_trip(tmp_path):
    msgs = [RawMessage(5, "a", "hello there"), RawMessage(9, "b", "hi")]
    log = ChatLog("proj", [preprocess_utterance(m, CFG, index=i) for i, m in enumerate(msgs)])
    p = tmp_path / "raw.jsonl"
    write_raw_jsonl(log, p)
    back, skipped = parse_chat_log(p, community_id="proj")
    assert not skipped
    assert [(u.time, u.author_id, u.raw_text) for u in back.utterances] == [
        (5, "a", "hello there"),
        (9, "b", "hi"),
    ]
