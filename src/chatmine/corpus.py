"""Chat log ingestion: parsing, text normalization, and repair of messages
that one author split across consecutive sends.

A log arrives as JSONL with one ``{"time", "id", "text"}`` object per line
(epoch milliseconds, author id, message text). Normalization rewrites noisy
artifacts into stable placeholder tokens, expands chat shorthand, normalizes
emoticons, lowercases, lemmatizes, and tokenizes. Token streams drop
stopwords; ``clean_text`` keeps them so phrase lexicons still match.

Broken-message repair trains a word-bigram language model on the corpus and
joins adjacent same-author sends when the joined text reads more fluently
(lower perplexity) than either piece alone.
"""

import math
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

from . import lexicons
from .errors import ConfigError, DataError
from .fileio import read_jsonl, stamp, write_jsonl

# Tags inserted by normalization; everything else in clean text is lowercase.
_PLACEHOLDER = r"\[(?:URL|EMAIL|HTML|CODE|ID|EMOJI_[A-Z]+)\]"
_PH_SPLIT_RE = re.compile(f"({_PLACEHOLDER})")
_LOWER_WORD_RE = re.compile(r"[a-z]+")
TOKEN_RE = re.compile(_PLACEHOLDER + r"|[a-z0-9]+(?:'[a-z0-9]+)*|[^\sa-z0-9]")

START_TOKEN = "<s>"
UNK_TOKEN = "<unk>"


@dataclass(frozen=True)
class RawMessage:
    time: int
    author_id: str
    text: str


def utterance_fault(record):
    """Why a parsed JSON value is not an utterance record ``{time, id, text}``
    (a whole, non-negative epoch-ms time, a non-blank id string and a text
    string), or None when it is one."""
    if not isinstance(record, dict):
        return "not an object"
    for key in ("time", "id", "text"):
        if key not in record:
            return "missing field: " + key
    time = record["time"]
    # an int or a float with no fractional part; a bool is neither
    if not (type(time) is int or (type(time) is float and time.is_integer())):
        return "time is not a whole number"
    if time < 0:
        return f"negative time {time}"
    if not isinstance(record["id"], str) or not record["id"].strip():
        return "id is blank or not a string"
    if not isinstance(record["text"], str):
        return "text is not a string"
    return None


def raw_message(record, where):
    """An utterance record as a RawMessage; a DataError naming ``where``
    (file:line) and the record's fault when it is not one."""
    fault = utterance_fault(record)
    if fault is not None:
        raise DataError(f"{where}: bad utterance ({fault})")
    return RawMessage(int(record["time"]), record["id"], record["text"])


@dataclass(frozen=True)
class Utterance:
    """One chat message after normalization.

    tokens is derived deterministically from raw_text: normalization is a
    pure function of the text and the configured lexicons. placeholders
    counts substitutions by tag name.
    """

    index: int
    time: int
    author_id: str
    raw_text: str
    clean_text: str
    tokens: tuple
    placeholders: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PreprocessConfig:
    """Paths of None select the bundled lexicons. Time gaps are epoch-ms."""

    placeholder_rules_path: object = None
    acronyms_path: object = None
    emoji_path: object = None
    stopwords_path: object = None
    lemma_rules_path: object = None
    typo_correction: bool = True
    typo_min_len: int = 4
    vocab_min_count: int = 2
    perplexity_threshold: float = 40.0
    merge_time_gap_max_ms: int = 60_000

    def __post_init__(self):
        checks = (
            ("typo_min_len", ">= 1", self.typo_min_len >= 1),
            ("vocab_min_count", ">= 1", self.vocab_min_count >= 1),
            ("perplexity_threshold", "> 0", self.perplexity_threshold > 0.0),  # NaN fails
            ("merge_time_gap_max_ms", ">= 0", self.merge_time_gap_max_ms >= 0),
        )
        for name, rule, ok in checks:
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass
class ChatLog:
    community_id: str
    utterances: list


@dataclass(frozen=True)
class SkippedLine:
    line_no: int
    reason: str


class _LemmaCache(dict):
    """word -> lemma under one rule table. Each distinct word is lemmatized
    once and kept for as long as ``_compiled_lexicons`` keeps its files."""

    def __init__(self, rule_table):
        super().__init__()
        self.rule_table = rule_table

    def __missing__(self, word):
        lemma = self[word] = lexicons.lemmatize_word(word, self.rule_table)
        return lemma


# the lexicon each PreprocessConfig path field names, and its bundled file
_LEXICON_FILES = (
    ("placeholder_rules_path", "placeholder_rules.tsv"),
    ("acronyms_path", "acronyms.tsv"),
    ("emoji_path", "emoji.tsv"),
    ("stopwords_path", "stopwords.txt"),
    ("lemma_rules_path", "lemma_rules.tsv"),
)


def normalization_lexicons(cfg):
    """The compiled normalization lexicons of a PreprocessConfig, as its
    files are now: a file rewritten since the last call is read again."""
    paths = tuple(
        lexicons.data_path(name) if getattr(cfg, field) is None else getattr(cfg, field)
        for field, name in _LEXICON_FILES
    )
    return _compiled_lexicons(paths, tuple(map(stamp, paths)))


@lru_cache(maxsize=8)
def _compiled_lexicons(paths, stamps):
    """The lexicons at ``paths``; ``stamps``, the files', keys the cache."""
    rules_path, acronyms_path, emoji_path, stopwords_path, lemma_path = paths
    acronyms = {k.lower(): v for k, v in lexicons.load_map(acronyms_path).items()}
    keys = sorted(acronyms, key=len, reverse=True)
    acro_re = re.compile(
        r"\b(?:" + "|".join(re.escape(k) for k in keys) + r")\b", re.IGNORECASE
    ) if keys else None
    emoji = lexicons.load_map(emoji_path)
    return {
        "rules": lexicons.load_rules(rules_path),
        "acro_re": acro_re,
        "acronyms": acronyms,
        "emoji": sorted(emoji.items(), key=lambda kv: (-len(kv[0]), kv[0])),
        "stopwords": frozenset(lexicons.load_wordlist(stopwords_path)),
        "lemma": _LemmaCache(lexicons.load_lemma_rules(lemma_path)),
    }


def _outside_placeholders(text, fn):
    """Apply fn to the spans between placeholder tokens."""
    parts = _PH_SPLIT_RE.split(text)
    return "".join(part if i % 2 else fn(part) for i, part in enumerate(parts))


def tokenize(text):
    """Placeholders and word runs are single tokens; other non-space
    characters come out one per token."""
    return TOKEN_RE.findall(text)


def preprocess_utterance(raw, cfg, index=0, res=None):
    """Normalize one message. Stage order matters: placeholders first (URLs
    before emails), then shorthand expansion, emoticons, lowercasing outside
    placeholders, lemmatization, whitespace collapse. A caller normalizing
    a whole log passes ``res``, ``normalization_lexicons(cfg)`` taken once,
    so the lexicon files are not checked again for every message."""
    if res is None:
        res = normalization_lexicons(cfg)
    text = raw.text
    hits = Counter()
    for name, rx in res["rules"]:
        text, n = rx.subn("[" + name + "]", text)
        if n:
            hits[name] += n
    if res["acro_re"] is not None:
        text = _outside_placeholders(
            text,
            lambda seg: res["acro_re"].sub(
                lambda m: res["acronyms"].get(m.group(0).lower(), m.group(0)), seg
            ),
        )
    for key, tag in res["emoji"]:
        if key in text:
            text = text.replace(key, " " + tag + " ")
            hits[tag[1:-1]] += 1
    text = _outside_placeholders(text, str.lower)
    lemma = res["lemma"]
    text = _outside_placeholders(
        text, lambda seg: _LOWER_WORD_RE.sub(lambda m: lemma[m.group(0)], seg)
    )
    clean = " ".join(text.split())
    tokens = tuple(t for t in tokenize(clean) if t not in res["stopwords"])
    return Utterance(
        index=index,
        time=raw.time,
        author_id=raw.author_id,
        raw_text=raw.text,
        clean_text=clean,
        tokens=tokens,
        placeholders=dict(hits),
    )


def parse_chat_log(path, community_id=None):
    """Read raw JSONL. Returns (log, skipped): lines that are not JSON or
    not utterance records are reported in line order, never raised.
    Utterances come back sorted by time with normalization fields still
    empty."""
    p = Path(path)
    records = []
    skipped = []
    for line_no, obj in read_jsonl(
        p, "chat log", lambda n: skipped.append(SkippedLine(n, "invalid json"))
    ):
        fault = utterance_fault(obj)
        if fault is None:
            records.append((int(obj["time"]), obj["id"], obj["text"]))
        else:
            skipped.append(SkippedLine(line_no, fault))
    records.sort(key=lambda r: r[0])
    utterances = [
        Utterance(
            index=i, time=t, author_id=a, raw_text=x, clean_text="", tokens=()
        )
        for i, (t, a, x) in enumerate(records)
    ]
    return ChatLog(p.stem if community_id is None else community_id, utterances), skipped


# -- word-bigram language model -------------------------------------------


class BigramLM:
    """Add-one smoothed word bigram model. Unseen words hit an explicit
    unknown type; every sequence is conditioned on a start symbol."""

    __slots__ = ("bigram", "context", "vocab")

    def __init__(self, bigram, context, vocab):
        self.bigram = bigram
        self.context = context
        self.vocab = vocab

    @classmethod
    def train(cls, sequences):
        bigram = Counter()
        context = Counter()
        vocab = {UNK_TOKEN}
        for seq in sequences:
            prev = START_TOKEN
            for tok in seq:
                vocab.add(tok)
                bigram[(prev, tok)] += 1
                context[prev] += 1
                prev = tok
        return cls(bigram, context, frozenset(vocab))

    def prob(self, prev, tok):
        if prev != START_TOKEN and prev not in self.vocab:
            prev = UNK_TOKEN
        if tok not in self.vocab:
            tok = UNK_TOKEN
        return (self.bigram[(prev, tok)] + 1) / (self.context[prev] + len(self.vocab))

    def perplexity(self, tokens):
        if not tokens:
            return math.inf
        total = 0.0
        prev = START_TOKEN
        for tok in tokens:
            total += math.log(self.prob(prev, tok))
            prev = tok
        return math.exp(-total / len(tokens))


def ngram_perplexity(text, lm):
    """Perplexity of normalized text under a trained bigram model."""
    return lm.perplexity(tokenize(text))


def build_corpus_lm(log):
    """Fluency model for merge decisions, trained on clean text with
    stopwords retained."""
    return BigramLM.train([tokenize(u.clean_text) for u in log.utterances])


# -- corpus-level passes ---------------------------------------------------

_WORD_RE = re.compile(r"\w+")


def _typo_index(vocab):
    """Vocabulary words under the keys of their edit-distance-one variants:
    ``v[:i] + "\\0" + v[i+1:]`` (one letter substituted at i) and
    ``v[:i] + v[i+1:]`` (one letter inserted at i, seen from the shorter
    word). Only a-z positions get keys, the letters a repair may write; the
    NUL keeps the two kinds of key apart, as no token holds one."""
    index = {}
    for v in vocab:
        for i, ch in enumerate(v):
            if "a" <= ch <= "z":
                index.setdefault(v[:i] + "\0" + v[i + 1 :], []).append(v)
                index.setdefault(v[:i] + v[i + 1 :], []).append(v)
    return index


def _typo_candidates(tok, vocab, index):
    """The vocabulary words one edit from ``tok``: one character of it
    deleted, or one a-z letter substituted into it or inserted into it."""
    cands = {tok[:i] + tok[i + 1 :] for i in range(len(tok))} & vocab
    cands.update(index.get(tok, ()))
    for i in range(len(tok)):
        cands.update(index.get(tok[:i] + "\0" + tok[i + 1 :], ()))
    cands.discard(tok)
    return cands


def correct_typos(utterances, cfg):
    """Rewrite rare alphabetic tokens onto an in-vocabulary neighbor at edit
    distance one. Vocabulary is corpus-wide; candidates are ranked by count,
    then alphabetically. A fixed word is rewritten in the tokens that hold
    it, and in clean_text wherever it is a whole ``\\w+`` run outside
    placeholders; the two can disagree (``buldé`` is one text word but
    tokens ``buld``, ``é``)."""
    counts = Counter(t for u in utterances for t in u.tokens)
    vocab = {
        t for t, c in counts.items() if c >= cfg.vocab_min_count and t.isalpha()
    }
    index = _typo_index(vocab)
    fixes = {}
    for tok in counts:
        if tok in vocab or not tok.isalpha() or len(tok) < cfg.typo_min_len:
            continue
        cands = _typo_candidates(tok, vocab, index)
        if cands:
            fixes[tok] = min(cands, key=lambda w: (-counts[w], w))
    if not fixes:
        return list(utterances)

    def fix_words(seg):
        return _WORD_RE.sub(lambda m: fixes.get(m.group(0), m.group(0)), seg)

    out = []
    for u in utterances:
        toks, clean = u.tokens, u.clean_text
        if not fixes.keys().isdisjoint(toks):
            toks = tuple(fixes.get(t, t) for t in toks)
        if not fixes.keys().isdisjoint(_WORD_RE.findall(clean)):
            clean = _outside_placeholders(clean, fix_words)
        if toks is not u.tokens or clean is not u.clean_text:
            u = replace(u, tokens=toks, clean_text=clean)
        out.append(u)
    return out


def merge_broken_utterances(log, lm, cfg):
    """Join consecutive same-author sends when they arrive close together and
    the joined text is more fluent than either piece: joint perplexity under
    the corpus model must beat the configured ceiling and both pieces. A
    merged cell keeps the earliest timestamp and stays eligible for further
    joins; raw texts are joined with a newline so derivation still holds."""
    merged = []
    last_time = None
    for u in log.utterances:
        if merged:
            prev = merged[-1]
            if (
                u.author_id == prev.author_id
                and u.time - last_time <= cfg.merge_time_gap_max_ms
            ):
                joint = prev.clean_text + " " + u.clean_text
                ppl = ngram_perplexity(joint, lm)
                if ppl < cfg.perplexity_threshold and ppl < min(
                    ngram_perplexity(prev.clean_text, lm),
                    ngram_perplexity(u.clean_text, lm),
                ):
                    hits = Counter(prev.placeholders)
                    hits.update(u.placeholders)
                    merged[-1] = replace(
                        prev,
                        raw_text=prev.raw_text + "\n" + u.raw_text,
                        clean_text=joint,
                        tokens=prev.tokens + u.tokens,
                        placeholders=dict(hits),
                    )
                    last_time = u.time
                    continue
        merged.append(u)
        last_time = u.time
    merged = [replace(u, index=i) for i, u in enumerate(merged)]
    return ChatLog(log.community_id, merged)


def preprocess_chat_log(log, cfg):
    """Full normalization pass over a parsed log. Messages whose text
    normalizes to nothing are dropped; broken sends are merged under the
    log's bigram model."""
    processed = []
    res = normalization_lexicons(cfg)
    for u in log.utterances:
        p = preprocess_utterance(
            RawMessage(u.time, u.author_id, u.raw_text), cfg, len(processed), res
        )
        if p.clean_text:
            processed.append(p)
    if cfg.typo_correction:
        processed = correct_typos(processed, cfg)
    staged = ChatLog(log.community_id, processed)
    return merge_broken_utterances(staged, build_corpus_lm(staged), cfg)


# -- serialization ---------------------------------------------------------


def write_raw_jsonl(log, path):
    write_jsonl(
        path, ({"time": u.time, "id": u.author_id, "text": u.raw_text} for u in log.utterances)
    )


def write_clean_jsonl(log, path):
    write_jsonl(
        path,
        (
            {
                "index": u.index,
                "time": u.time,
                "id": u.author_id,
                "text": u.raw_text,
                "clean_text": u.clean_text,
                "tokens": u.tokens,
                "placeholders": u.placeholders,
            }
            for u in log.utterances
        ),
    )


def read_clean_jsonl(path, community_id=None):
    p = Path(path)
    utterances = []
    for line_no, obj in read_jsonl(p, "clean log"):
        raw = raw_message(obj, f"{p}:{line_no}")
        clean, tokens, hits = obj.get("clean_text"), obj.get("tokens"), obj.get("placeholders", {})
        if not (isinstance(clean, str) and isinstance(tokens, list) and isinstance(hits, dict)):
            raise DataError(f"{p}:{line_no}: bad record (clean_text, tokens or placeholders)")
        if not all(isinstance(t, str) for t in tokens):
            raise DataError(f"{p}:{line_no}: bad record (tokens must be strings)")
        utt = Utterance(len(utterances), raw.time, raw.author_id, raw.text, clean, tuple(tokens), hits)
        utterances.append(utt)
    return ChatLog(p.stem if community_id is None else community_id, utterances)
