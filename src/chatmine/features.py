"""Dialog embedding: a convolutional textual extractor, 29 hand-crafted
attributes, and a Gaussian-damped local attention context, concatenated per
utterance into one 413-wide fused vector (256 + 29 + 128).

The attributes are built once per dialog, one row for the head and one per
body utterance. Each row packs, in order: question-word flags (what why when
who which how), "?" and "!" flags, greeting and disapproval flags,
similarity mentions ("simi"-prefixed words, whole word "same"), token counts
(total, unique, unique stems), dialog position (absolute, relative), topic
deviations (chat vs head, head vs utterance), three sentiment score slots,
sentiment word counts, sentiment emoji counts, and the initiator flag.
"""

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import lexicons, nn
from .errors import ConfigError, ContractViolation

TEXTUAL_DIM = 256
HEURISTIC_DIM = 29
CONTEXT_DIM = 128
FUSED_DIM = TEXTUAL_DIM + HEURISTIC_DIM + CONTEXT_DIM

_QUESTION_WORDS = ("what", "why", "when", "who", "which", "how")
_QUESTION_RE = re.compile(r"\b(" + "|".join(_QUESTION_WORDS) + r")\b")
_TOP_TERMS = 10


# -- textual extractor -----------------------------------------------------


@dataclass(frozen=True)
class ConvStackSpec:
    kernel_counts: tuple = (1024, 512, 256)
    kernel_size: int = 3

    def __post_init__(self):
        if not self.kernel_counts or any(m < 1 for m in self.kernel_counts):
            raise ConfigError(f"bad kernel counts: {self.kernel_counts}")
        if self.kernel_size < 1:
            raise ConfigError(f"kernel size must be >= 1, got {self.kernel_size}")

    def validate_input_len(self, input_len):
        """Each stage needs a sequence at least as long as its kernel."""
        length = input_len
        for i, m in enumerate(self.kernel_counts, 1):
            if length < self.kernel_size:
                raise ConfigError(
                    f"conv stage {i}: sequence length {length} < kernel "
                    f"size {self.kernel_size}"
                )
            length = m
        return self.kernel_counts[-1]


def conv_param_shapes(spec):
    """name -> shape of every stage's kernels and biases, stage by stage."""
    shapes = {}
    for i, m in enumerate(spec.kernel_counts, 1):
        shapes[f"conv{i}.w"] = (m, spec.kernel_size)
        shapes[f"conv{i}.b"] = (m,)
    return shapes


def init_conv_params(rng, spec, input_len):
    """Glorot-initialized kernels and zero biases for every stage."""
    spec.validate_input_len(input_len)
    return nn.init_params(rng, conv_param_shapes(spec))


def textual_features(vecs, spec, params, dropout=0.0, uniforms=()):
    """Run a (B, d) batch of utterance vectors, each read as a sequence of
    scalars, through the convolution-pooling stack; returns the (B, m) tensor
    of the last stage. With ``uniforms``, one (B, m_i) array of U[0, 1) draws
    per stage, dropout at rate ``dropout`` follows each stage."""
    x = nn.tensor(vecs)
    for i in range(1, len(spec.kernel_counts) + 1):
        x = nn.conv1d_maxpool(x, params[f"conv{i}.w"], params[f"conv{i}.b"])
        if uniforms:
            x = nn.dropout(x, dropout, uniforms[i - 1])
    return x


# -- heuristic attributes --------------------------------------------------


@dataclass(frozen=True)
class HeuristicLexicons:
    greetings: tuple
    disapproval: tuple
    word_class: dict
    emoji_class: dict


@lru_cache(maxsize=None)
def load_heuristic_lexicons():
    """The bundled greeting, disapproval and sentiment lexicons, read once."""
    path = lexicons.data_path
    return HeuristicLexicons(
        greetings=lexicons.load_wordlist(path("greetings.txt")),
        disapproval=lexicons.load_wordlist(path("disapproval.txt")),
        word_class=lexicons.load_map(path("sentiment_words.tsv")),
        emoji_class=lexicons.load_map(path("sentiment_emojis.tsv")),
    )


@lru_cache(maxsize=None)
def _phrase_pattern(phrases):
    """One whole-word alternation over a lexicon's phrases."""
    return re.compile(r"\b(?:" + "|".join(map(re.escape, phrases)) + r")\b")


def _phrase_flag(text, phrases):
    return 1.0 if phrases and _phrase_pattern(phrases).search(text) else 0.0


@dataclass(frozen=True)
class TopicProfile:
    """A scope's TF-IDF weights, term -> weight, and its ten strongest terms,
    weight-descending with lexicographic tie-break."""

    weights: dict
    terms: tuple


class TopicStats:
    """Chat-level document statistics: IDF over utterances-as-documents, the
    profile of the whole chat as one scope, and the stem of each of its
    distinct tokens."""

    def __init__(self, chat):
        docs = [u.tokens for u in chat.utterances]
        self.n_docs = len(docs)
        df = Counter()
        for d in docs:
            df.update(set(d))
        self.idf = {
            t: math.log((1 + self.n_docs) / (1 + c)) + 1.0 for t, c in df.items()
        }
        self.chat = self.profile(tuple(t for d in docs for t in d))
        self.stems = {t: lexicons.porter_stem(t) if t.isalpha() else t for t in df}

    def tfidf(self, tokens):
        """Term -> TF-IDF weight within the given scope. Unseen terms carry
        the max-rarity IDF."""
        if not tokens:
            return {}
        counts = Counter(tokens)
        total = len(tokens)
        default = math.log(1 + self.n_docs) + 1.0
        return {t: (c / total) * self.idf.get(t, default) for t, c in counts.items()}

    def profile(self, tokens):
        weights = self.tfidf(tokens)
        top = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[:_TOP_TERMS]
        return TopicProfile(weights, tuple(t for t, _ in top))


def topic_deviation(a, b):
    """Euclidean distance between two scopes' TF-IDF weights at the union of
    their top-10 term lists, so positions align."""
    union = sorted(set(a.terms) | set(b.terms))
    return math.sqrt(sum((a.weights.get(t, 0.0) - b.weights.get(t, 0.0)) ** 2 for t in union))


def heuristic_attributes(dialog, parts, chat, stats, lex):
    """The (1 + len(body), 29) attribute rows of one dialog.

    Row 0 is the head: its joined text and tokens, position 1 and the
    initiator flag. Then comes one row per body utterance. ``parts`` is the
    dialog's head/body split, ``stats`` the topic statistics of ``chat``,
    stems included. Flags look at clean text, counts at the token stream.
    """
    head = stats.profile(parts.head_tokens)
    rows = [(parts.head_text, parts.head_tokens, 1, head, parts.initiator)]
    # the head is the members' opening run, so the body follows it in order
    for ap, i in enumerate(parts.body_indices, len(parts.head_indices) + 1):
        u = chat.utterances[i]
        rows.append((u.clean_text, u.tokens, ap, stats.profile(u.tokens), u.author_id))
    chat_vs_head = topic_deviation(stats.chat, head)
    out = np.zeros((len(rows), HEURISTIC_DIM))
    for v, (text, tokens, ap, topic, author) in zip(out, rows):
        asked = set(_QUESTION_RE.findall(text))
        v[:6] = [w in asked for w in _QUESTION_WORDS]
        v[6] = 1.0 if "?" in text else 0.0
        v[7] = 1.0 if "!" in text else 0.0
        v[8] = _phrase_flag(text, lex.greetings)
        v[9] = _phrase_flag(text, lex.disapproval)
        v[10] = 1.0 if re.search(r"\bsimi\w*", text) else 0.0
        v[11] = 1.0 if re.search(r"\bsame\b", text) else 0.0
        nt = len(tokens)
        v[12] = nt
        v[13] = len(set(tokens))
        v[14] = len({stats.stems[t] for t in tokens})
        v[15] = ap
        v[16] = ap / len(dialog.members)
        v[17] = chat_vs_head
        v[18] = topic_deviation(head, topic)
        word_counts = Counter(lex.word_class.get(t) for t in tokens)
        emoji_counts = Counter(lex.emoji_class.get(t) for t in tokens)
        for j, cls in enumerate(("pos", "neu", "neg")):
            sw = word_counts.get(cls, 0)
            se = emoji_counts.get(cls, 0)
            v[19 + j] = min(1.0, (sw + se) / nt) if nt else 0.0
            v[22 + j] = sw
            v[25 + j] = se
        v[28] = 1.0 if author == parts.initiator else 0.0
    return out


@dataclass(frozen=True)
class HeuristicStats:
    """Training-set mean/std for standardizing the attribute block."""

    mean: tuple
    std: tuple


def fit_heuristic_stats(vectors):
    arr = np.asarray(vectors)
    if arr.ndim != 2 or arr.shape[1] != HEURISTIC_DIM:
        raise ContractViolation(f"expected (n, {HEURISTIC_DIM}) attribute matrix")
    mean = arr.mean(axis=0)
    std = arr.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return HeuristicStats(tuple(mean.tolist()), tuple(std.tolist()))


def standardize_heuristics(vec, stats):
    if stats is None:
        return np.asarray(vec, dtype=np.float64)
    return (np.asarray(vec) - np.asarray(stats.mean)) / np.asarray(stats.std)


# -- local attention -------------------------------------------------------


def attention_param_shapes(input_dim):
    """name -> shape of the query/key/value projections from the encoder
    width down to the context width."""
    return dict.fromkeys(("attn.wq", "attn.wk", "attn.wv"), (CONTEXT_DIM, input_dim))


def init_attention_params(rng, input_dim):
    """Glorot-initialized projections. The key starts as a copy of the query,
    so initial attention scores lean positive (the normalization is
    score/sum, not softmax)."""
    shapes = attention_param_shapes(input_dim)
    del shapes["attn.wk"]  # copied, not drawn
    params = nn.init_params(rng, shapes)
    params["attn.wk"] = nn.Parameter("attn.wk", params["attn.wq"].data.copy())
    return params


def local_attention(windows, pad_mask, params):
    """Gaussian-damped dot-product attention over a batch of local windows.

    ``windows`` is (B, 2k+1, d), zero at the slots ``pad_mask`` marks False.
    Per row, with center k, slot s scores h_q·W_K·u_s, h_q = W_Q·u_k, damped
    by exp(−(s−k)² / (2k²)); weights are score / Σscore over the L live slots
    exactly as written, or uniform 1/L when that sum is not positive. The
    (B, 128) context is Σ_s weight_s·W_V·u_s / sqrt(d). ``params`` holds the
    projections attn.wq, attn.wk and attn.wv.
    """
    rows, n_slots, dim = windows.shape
    k = n_slots // 2
    if not pad_mask[:, k].all():
        raise ContractViolation("window center is padded")
    # slot-major columns: column s*B + b is slot s of row b
    slots = nn.tensor(windows.transpose(2, 1, 0).reshape(dim, n_slots * rows))
    h_q = params["attn.wq"] @ nn.tensor(windows[:, k].T)  # (c, B)
    keys = (params["attn.wk"] @ slots).reshape(-1, n_slots, rows)
    raw = (keys * h_q.reshape(-1, 1, rows)).sum(axis=0)  # (2k+1, B)
    gauss = np.array(
        [1.0 if s == k else math.exp(-((s - k) ** 2) / (2.0 * k * k)) for s in range(n_slots)]
    )
    live = pad_mask.T
    damp = gauss[:, None] * live
    positive = (raw.data * damp).sum(axis=0) > 0.0
    # a row whose damped scores do not sum above zero scores 1 on each live
    # slot instead, which normalizes to the uniform weights
    scores = raw * (damp * positive) + live * ~positive
    weights = scores / scores.sum(axis=0)
    values = (params["attn.wv"] @ slots).reshape(-1, n_slots, rows)
    return (values * weights).sum(axis=1).T * (1.0 / math.sqrt(dim))


# -- fusion ----------------------------------------------------------------


def fuse_features(textual, heuristic, context, stats=None):
    """Per row 256 ⊕ 29 ⊕ 128 in that order, from two tensors and a (B, 29)
    array; the attribute block is standardized with training statistics when
    provided."""
    heur = standardize_heuristics(heuristic, stats)
    for name, block, width in (
        ("textual", textual.data, TEXTUAL_DIM),
        ("heuristic", heur, HEURISTIC_DIM),
        ("context", context.data, CONTEXT_DIM),
    ):
        if block.shape != (len(textual.data), width):
            raise ContractViolation(f"{name} block is {block.shape}, want (B, {width})")
    return nn.concat([textual, nn.tensor(heur), context])
