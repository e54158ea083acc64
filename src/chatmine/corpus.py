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

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

from . import lexicons
from .errors import DataError

# Tags inserted by normalization; everything else in clean text is lowercase.
PLACEHOLDER_TOKEN_RE = re.compile(r"\[(?:URL|EMAIL|HTML|CODE|ID|EMOJI_[A-Z]+)\]")
_PH_SPLIT_RE = re.compile(r"(\[(?:URL|EMAIL|HTML|CODE|ID|EMOJI_[A-Z]+)\])")
TOKEN_RE = re.compile(
    r"\[(?:URL|EMAIL|HTML|CODE|ID|EMOJI_[A-Z]+)\]|[a-z0-9]+(?:'[a-z0-9]+)*|[^\sa-z0-9]"
)

START_TOKEN = "<s>"
UNK_TOKEN = "<unk>"


@dataclass(frozen=True)
class RawMessage:
    time: int
    author_id: str
    text: str


def _whole_number(value):
    """Whether a parsed JSON value is an int or a float with no fractional
    part (a bool is neither)."""
    return type(value) is int or (type(value) is float and value.is_integer())


def raw_message(record, where):
    """A training-file utterance record ``{time, id, text}`` as a RawMessage;
    a DataError naming ``where`` (file:line) when a field is missing or of
    the wrong type, or the time is not a whole number or is negative."""
    try:
        time, author_id, text = record["time"], record["id"], record["text"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"{where}: bad utterance ({exc})") from exc
    if not _whole_number(time):
        raise DataError(f"{where}: bad utterance (time {time!r} is not a whole number)")
    if time < 0:
        raise DataError(f"{where}: bad utterance (negative time {time})")
    if not isinstance(author_id, str) or not isinstance(text, str):
        raise DataError(f"{where}: bad utterance (id and text must be strings)")
    return RawMessage(int(time), author_id, text)


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


@dataclass
class ChatLog:
    community_id: str
    utterances: list


@dataclass(frozen=True)
class SkippedLine:
    line_no: int
    reason: str


@lru_cache(maxsize=8)
def _resources(cfg):
    """The compiled normalization lexicons of a PreprocessConfig."""

    def path(value, name):
        return value if value is not None else lexicons.data_path(name)

    acronyms = {
        k.lower(): v for k, v in lexicons.load_map(path(cfg.acronyms_path, "acronyms.tsv")).items()
    }
    keys = sorted(acronyms, key=len, reverse=True)
    acro_re = re.compile(
        r"\b(?:" + "|".join(re.escape(k) for k in keys) + r")\b", re.IGNORECASE
    ) if keys else None
    emoji = lexicons.load_map(path(cfg.emoji_path, "emoji.tsv"))
    return {
        "rules": lexicons.load_rules(path(cfg.placeholder_rules_path, "placeholder_rules.tsv")),
        "acro_re": acro_re,
        "acronyms": acronyms,
        "emoji": sorted(emoji.items(), key=lambda kv: (-len(kv[0]), kv[0])),
        "stopwords": frozenset(lexicons.load_wordlist(path(cfg.stopwords_path, "stopwords.txt"))),
        "lemma": lexicons.load_lemma_rules(path(cfg.lemma_rules_path, "lemma_rules.tsv")),
    }


def _outside_placeholders(text, fn):
    """Apply fn to the spans between placeholder tokens."""
    parts = _PH_SPLIT_RE.split(text)
    return "".join(part if i % 2 else fn(part) for i, part in enumerate(parts))


def tokenize(text):
    """Placeholders and word runs are single tokens; other non-space
    characters come out one per token."""
    return TOKEN_RE.findall(text)


def preprocess_utterance(raw, cfg, index=0):
    """Normalize one message. Stage order matters: placeholders first (URLs
    before emails), then shorthand expansion, emoticons, lowercasing outside
    placeholders, lemmatization, whitespace collapse."""
    res = _resources(cfg)
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
                lambda m: res["acronyms"][m.group(0).lower()], seg
            ),
        )
    for key, tag in res["emoji"]:
        if key in text:
            text = text.replace(key, " " + tag + " ")
            hits[tag[1:-1]] += 1
    text = _outside_placeholders(text, str.lower)
    text = _outside_placeholders(
        text,
        lambda seg: re.sub(
            r"[a-z]+", lambda m: lexicons.lemmatize_word(m.group(0), res["lemma"]), seg
        ),
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
    """Read raw JSONL. Returns (log, skipped): records that fail validation
    are reported, never raised. Utterances come back sorted by time with
    normalization fields still empty."""
    p = Path(path)
    if not p.is_file():
        raise DataError(f"chat log not found: {p}")
    if community_id is None:
        community_id = p.stem
    records = []
    skipped = []
    for line_no, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            skipped.append(SkippedLine(line_no, "invalid json"))
            continue
        if not isinstance(obj, dict):
            skipped.append(SkippedLine(line_no, "not an object"))
            continue
        missing = [k for k in ("time", "id", "text") if k not in obj]
        if missing:
            skipped.append(SkippedLine(line_no, "missing field: " + missing[0]))
            continue
        t = obj["time"]
        if not _whole_number(t):
            skipped.append(SkippedLine(line_no, "bad time"))
            continue
        t = int(t)
        if t < 0:
            skipped.append(SkippedLine(line_no, "negative time"))
            continue
        if not isinstance(obj["id"], str) or not obj["id"].strip():
            skipped.append(SkippedLine(line_no, "bad id"))
            continue
        if not isinstance(obj["text"], str):
            skipped.append(SkippedLine(line_no, "bad text"))
            continue
        records.append((t, obj["id"], obj["text"]))
    records.sort(key=lambda r: r[0])
    utterances = [
        Utterance(
            index=i, time=t, author_id=a, raw_text=x, clean_text="", tokens=()
        )
        for i, (t, a, x) in enumerate(records)
    ]
    return ChatLog(community_id, utterances), skipped


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

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _edit1(word):
    out = set()
    for i in range(len(word) + 1):
        head, tail = word[:i], word[i:]
        if tail:
            out.add(head + tail[1:])
        for c in _LETTERS:
            if tail:
                out.add(head + c + tail[1:])
            out.add(head + c + tail)
    out.discard(word)
    return out


def correct_typos(utterances, cfg):
    """Rewrite rare alphabetic tokens onto an in-vocabulary neighbor at edit
    distance one. Vocabulary is corpus-wide; candidates are ranked by count,
    then alphabetically. Both tokens and clean_text are rewritten."""
    counts = Counter(t for u in utterances for t in u.tokens)
    vocab = {
        t for t, c in counts.items() if c >= cfg.vocab_min_count and t.isalpha()
    }
    fixes = {}
    for tok, c in counts.items():
        if tok in vocab or not tok.isalpha() or len(tok) < cfg.typo_min_len:
            continue
        cands = _edit1(tok) & vocab
        if cands:
            fixes[tok] = min(cands, key=lambda w: (-counts[w], w))
    if not fixes:
        return list(utterances)
    fix_re = re.compile(r"\b(?:" + "|".join(sorted(fixes, key=len, reverse=True)) + r")\b")
    out = []
    for u in utterances:
        toks = tuple(fixes.get(t, t) for t in u.tokens)
        clean = _outside_placeholders(
            u.clean_text, lambda seg: fix_re.sub(lambda m: fixes[m.group(0)], seg)
        )
        out.append(replace(u, tokens=toks, clean_text=clean))
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
    normalizes to nothing are dropped. Returns (log, lm) with the bigram
    model used for merging."""
    processed = []
    for u in log.utterances:
        p = preprocess_utterance(
            RawMessage(u.time, u.author_id, u.raw_text), cfg, index=len(processed)
        )
        if p.clean_text:
            processed.append(p)
    if cfg.typo_correction:
        processed = correct_typos(processed, cfg)
    staged = ChatLog(log.community_id, processed)
    lm = build_corpus_lm(staged)
    return merge_broken_utterances(staged, lm, cfg), lm


# -- serialization ---------------------------------------------------------


def write_raw_jsonl(log, path):
    lines = [
        json.dumps(
            {"time": u.time, "id": u.author_id, "text": u.raw_text},
            sort_keys=True,
            ensure_ascii=False,
        )
        for u in log.utterances
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def write_clean_jsonl(log, path):
    lines = []
    for u in log.utterances:
        lines.append(
            json.dumps(
                {
                    "index": u.index,
                    "time": u.time,
                    "id": u.author_id,
                    "text": u.raw_text,
                    "clean_text": u.clean_text,
                    "tokens": list(u.tokens),
                    "placeholders": dict(sorted(u.placeholders.items())),
                },
                sort_keys=True,
                ensure_ascii=False,
            )
        )
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_clean_jsonl(path, community_id=None):
    p = Path(path)
    if not p.is_file():
        raise DataError(f"chat log not found: {p}")
    if community_id is None:
        community_id = p.stem
    utterances = []
    for line_no, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{p}:{line_no}: invalid json") from exc
        raw = raw_message(obj, f"{p}:{line_no}")
        clean, tokens, hits = obj.get("clean_text"), obj.get("tokens"), obj.get("placeholders", {})
        if not (isinstance(clean, str) and isinstance(tokens, list) and isinstance(hits, dict)):
            raise DataError(f"{p}:{line_no}: bad record (clean_text, tokens or placeholders)")
        if not all(isinstance(t, str) for t in tokens):
            raise DataError(f"{p}:{line_no}: bad record (tokens must be strings)")
        utt = Utterance(len(utterances), raw.time, raw.author_id, raw.text, clean, tuple(tokens), hits)
        utterances.append(utt)
    return ChatLog(community_id, utterances)
