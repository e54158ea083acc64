"""Reply-structure recovery: attach each utterance to the earlier utterance
it answers, or to itself when it starts a new dialog, then group the linked
utterances into dialogs.

Each (child, candidate parent) pair maps to a 77-wide feature row. The link
scorer turns a row into a link probability with two softsign hidden layers
of width 64 and a sigmoid readout. ``link_logit`` is its forward, one graph
over a (rows, 77) block, which training (``train --target link``) runs on
each mini-batch; inference (``disentangle --link-ckpt``) runs the same
operations in place on each chunk of children (``link_mlp_scorer``), with
the same bits. A child takes its best-scoring candidate, falling back
to self when nothing clears the threshold. Connected components of the
chosen links are the dialogs; within a dialog, the initiator's opening run
of messages is the head and everything after it is the body.

``link_columns`` reads a log once into per-utterance columns (times, token
counts and buckets, flags, author codes). ``link_chunks`` cuts the children
into runs of consecutive utterances, and ``extract_link_features(cols,
first, stop, lookback)`` builds one ``LinkBlock`` per run: the stacked
(rows, 77) features of every child, each child's rows in the order self,
``child - 1``, ..., ``max(0, child - lookback)``, plus each row's child and
parent (-1 on the self row) and each child's first row. A scorer is a
callable ``scorer(block)`` that returns one score per row;
``heuristic_link_scorer``, ``link_mlp_scorer(params)`` and
``synth.oracle_scorer`` all have that form. ``choose_parents`` takes the
first maximum of each child's rows, so self beats any parent it ties with
and a nearer parent beats a farther one. Memory stays per chunk: a block
holds at most ``_LINK_CELLS`` rows (one child's rows when a single window
is larger), whatever the lookback, and no array spans the whole log times
the window.
"""

import bisect
import math
import re
from dataclasses import dataclass
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt_io
from . import nn
from .corpus import ChatLog, normalization_lexicons, preprocess_utterance, raw_message
from .errors import ConfigError, ContractViolation, DataError
from .fileio import read_jsonl

FEATURE_DIM = 77
LINK_HIDDEN = 64
LINK_EPOCHS = 5  # link training's default; the flag or config key max_epochs
# link training's fixed Adam step, mini-batch size and sampled negatives per child
LINK_LR = 0.001
LINK_BATCH_SIZE = 32
LINK_NEGATIVES = 3
_TIME_BUCKETS = 25
_DIST_BUCKETS = 15
_COUNT_BUCKETS = 10
_SHARED_BUCKETS = 6
_BASE = _TIME_BUCKETS + _DIST_BUCKETS  # parent token-count one-hot starts here
# times are int64 milliseconds; within +-2**62 every gap fits as well
_MAX_TIME_MS = 2**62

_MENTION_RE = re.compile(r"@\w+")
# count bucket of 0..21 tokens; 21 and more share the last bucket
_COUNT_TABLE = np.array([0, 1, 2, 3, 4, 5, 6, 6, 6, 7, 7, 7, 7, 8, 8, 8, 8, 8, 8, 8, 8, 9])
# time-gap bucket k >= 1 starts at 2**(k - 1) whole seconds
_GAP_EDGES_MS = 1000 * 2 ** np.arange(_TIME_BUCKETS - 1)


# -- feature extraction ----------------------------------------------------


def time_gap_bucket(gap_ms):
    """Power-of-two seconds buckets: <1s, 1-2s, 2-4s, ... capped at ~97 days.
    Works elementwise on an integer array; a negative gap is bucket 0."""
    return np.searchsorted(_GAP_EDGES_MS, gap_ms, side="right")


def distance_bucket(distance):
    return np.minimum(np.asarray(distance) - 1, _DIST_BUCKETS - 1)


def count_bucket(n):
    """Token counts 0..5 get their own bucket, then 6-8, 9-12, 13-20, 21+."""
    return _COUNT_TABLE[np.minimum(n, len(_COUNT_TABLE) - 1)]


def shared_bucket(n):
    return np.minimum(n, _SHARED_BUCKETS - 1)


@dataclass(frozen=True)
class LinkColumns:
    """The per-utterance values the link features read, for one log.

    ``authors`` holds an integer code per utterance; ``names[code]`` is that
    author's lowercased id and ``patterns[code]`` its whole-word regex, or
    None when the id is shorter than two characters and never counts as
    mentioned."""

    times: np.ndarray
    hours: np.ndarray
    count_buckets: np.ndarray
    questions: np.ndarray
    any_mention: np.ndarray
    authors: np.ndarray
    tokens: tuple
    distinct_tokens: np.ndarray
    lower_texts: tuple
    names: tuple
    patterns: tuple

    def mentions(self, i, author):
        """Whether utterance i's raw text names ``author`` (a code), as
        "@name" or as a whole word, case-insensitively."""
        pattern = self.patterns[author]
        if pattern is None:
            return False
        name, text = self.names[author], self.lower_texts[i]
        # both tests below need the name as a substring; most pairs stop here
        return name in text and ("@" + name in text or pattern.search(text) is not None)


def link_columns(log):
    """Read a log once into the columns that every feature block uses."""
    utts = log.utterances
    try:
        times = np.array([u.time for u in utts], dtype=np.int64)
    except OverflowError as exc:
        raise DataError(f"utterance time out of range ({exc})") from exc
    if np.any((times <= -_MAX_TIME_MS) | (times >= _MAX_TIME_MS)):
        raise DataError(f"utterance time out of range (|time| >= {_MAX_TIME_MS})")
    codes, names, patterns = {}, [], []
    for u in utts:
        if u.author_id not in codes:
            codes[u.author_id] = len(names)
            name = u.author_id.lower()
            names.append(name)
            patterns.append(
                re.compile(r"\b" + re.escape(name) + r"\b") if len(u.author_id) >= 2 else None
            )
    return LinkColumns(
        times=times,
        hours=(times // 3_600_000) % 24,
        count_buckets=count_bucket(np.array([len(u.tokens) for u in utts], dtype=np.int64)),
        questions=np.array([1.0 if "?" in u.clean_text else 0.0 for u in utts]),
        any_mention=np.array([1.0 if _MENTION_RE.search(u.raw_text) else 0.0 for u in utts]),
        authors=np.array([codes[u.author_id] for u in utts], dtype=np.int64),
        tokens=tuple(u.tokens for u in utts),
        distinct_tokens=np.array([len(set(u.tokens)) for u in utts], dtype=np.int64),
        lower_texts=tuple(u.raw_text.lower() for u in utts),
        names=tuple(names),
        patterns=tuple(patterns),
    )


# Cells of a chunk's shared-token product, (children, children + lookback).
# They hold every feature row of the chunk, so this also bounds a block's
# rows of 77 floats, at any lookback. On the bench's `disentangle` input
# (1.4k utterances, lookback 50; 2-core Xeon, one BLAS thread) 1024 and 2048
# ran fastest: link-scorer items/s read about 6300 at 512, 7400-9000 at
# 1024, 7800-8800 at 2048 and 7500-7700 at 4096, where larger temporaries
# in the scorer's forward start to cost page faults.
_LINK_CELLS = 2048


def link_chunks(n, lookback):
    """(first, stop) runs of consecutive children covering 0..n-1: k children
    each, k the largest with k * (k + lookback) <= _LINK_CELLS, at least 1."""
    lookback = min(lookback, n)  # no window reaches past utterance 0
    k = max(1, (math.isqrt(lookback * lookback + 4 * _LINK_CELLS) - lookback) // 2)
    return [(first, min(first + k, n)) for first in range(0, n, k)]


@dataclass(frozen=True)
class LinkBlock:
    """The feature rows of the children ``first`` .. ``stop - 1``, child by
    child. ``features`` is (rows, 77); ``child[r]`` and ``parent[r]`` are
    row r's child and candidate parent, -1 on a self row; ``starts[k]`` is
    the first row of child ``first + k``, its self row."""

    features: np.ndarray
    child: np.ndarray
    parent: np.ndarray
    starts: np.ndarray


def extract_link_features(cols, first, stop, lookback):
    """The stacked feature block of the children ``first`` .. ``stop - 1``.
    Each child's rows are self, then the parents ``child - 1`` down to
    ``max(0, child - lookback)``. Layout of a row, in order: time-gap one-hot
    (25), distance one-hot (15), parent token count one-hot (10), child
    token count one-hot (10), shared-token one-hot (6), then scalar flags:
    Jaccard, same author, child mentions parent, parent mentions child,
    child mentions anyone, child asks a question, parent asks a question,
    same hour of day, self candidate, parent opens the log, adjacent pair.

    A self row keeps only child-side features and its own flag. Each column
    is computed once for the whole block.
    """
    if not 0 <= first < stop <= len(cols.times) or lookback < 0:
        raise ContractViolation(
            f"bad children {first}..{stop - 1} of {len(cols.times)} at lookback {lookback}"
        )
    lookback = min(lookback, stop)  # no window reaches past utterance 0
    lo = max(0, first - lookback)
    children = np.arange(first, stop)
    width = 1 + np.minimum(children, lookback)
    starts = np.cumsum(width) - width
    child = np.repeat(children, width)
    step = np.arange(len(child)) - np.repeat(starts, width)  # 0 on self, else distance
    parent = np.where(step > 0, child - step, -1)
    rows = np.flatnonzero(step)
    c, p, distance = child[rows], parent[rows], step[rows]
    shared = _shared_tokens(cols, lo, first, stop, c, p)
    me, theirs = cols.authors[c], cols.authors[p]
    named = _mentioned(cols, lo, stop, np.concatenate((c, p)), np.concatenate((theirs, me)))
    f = np.zeros((len(child), FEATURE_DIM))
    # the one-hot columns, as flat indices into the block
    at = rows * FEATURE_DIM
    hot = (
        at + time_gap_bucket(cols.times[c] - cols.times[p]),
        at + _TIME_BUCKETS + distance_bucket(distance),
        at + _BASE + cols.count_buckets[p],
        np.arange(len(child)) * FEATURE_DIM + _BASE + _COUNT_BUCKETS + cols.count_buckets[child],
        at + _BASE + 2 * _COUNT_BUCKETS + shared_bucket(shared),
    )
    f.reshape(-1)[np.concatenate(hot)] = 1.0
    # the scalar columns 66 .. 76, one contiguous row of ``flags`` each
    flags = np.zeros((FEATURE_DIM - 66, len(child)))
    # an empty union has nothing shared, so shared / max(union, 1) is 0 there
    union = cols.distinct_tokens[c] + cols.distinct_tokens[p] - shared
    flags[0, rows] = shared / np.maximum(union, 1)
    flags[1, rows] = theirs == me
    flags[2, rows] = named[: len(rows)]
    flags[3, rows] = named[len(rows) :]
    flags[4] = cols.any_mention[child]
    flags[5] = cols.questions[child]
    flags[6, rows] = cols.questions[p]
    flags[7, rows] = cols.hours[p] == cols.hours[c]
    flags[8, starts] = 1.0
    flags[9, rows] = p == 0
    flags[10, rows] = distance == 1
    f[:, 66:] = flags.T
    return LinkBlock(features=f, child=child, parent=parent, starts=starts)


def _shared_tokens(cols, lo, first, stop, c, p):
    """Distinct tokens shared by each (c, p) pair, c among the children
    ``first`` .. ``stop - 1`` and p from ``lo`` on: one product of 0/1
    token incidence matrices over the children's vocabulary, the children's
    rows against every utterance's from ``lo`` to ``stop - 1``."""
    vocab = {t: k for k, t in enumerate(set(chain.from_iterable(cols.tokens[first:stop])))}
    ids = [[vocab[t] for t in toks if t in vocab] for toks in cols.tokens[lo:stop]]
    inc = np.zeros((stop - lo, len(vocab)))
    inc[np.repeat(np.arange(stop - lo), [len(x) for x in ids]), list(chain.from_iterable(ids))] = 1.0
    # sums of 0/1 products in float64 are exact integers
    common = inc[first - lo :] @ inc.T
    return common[c - first, p - lo].astype(np.int64)


def _mentioned(cols, lo, stop, utts, authors):
    """cols.mentions(utts[j], authors[j]) for every j, all utterances in
    ``lo`` .. ``stop - 1``. Each author's name is searched for in the joined
    texts, and only the utterances that hold it get the exact test."""
    texts = cols.lower_texts[lo:stop]
    joined = "\n".join(texts)
    starts = [0, *accumulate(len(t) + 1 for t in texts)]
    named = []
    for a in set(cols.authors[lo:stop].tolist()):
        name = cols.names[a]
        at = joined.find(name) if cols.patterns[a] is not None else -1
        while at >= 0:
            # a hit that runs past its text's end is tested and fails
            i = bisect.bisect_right(starts, at) - 1
            if cols.mentions(lo + i, a):
                named.append((lo + i) * len(cols.names) + a)
            at = joined.find(name, starts[i + 1]) if i + 1 < len(texts) else -1
    return np.isin(utts * len(cols.names) + authors, named)


# -- the scorer network ----------------------------------------------------


def link_param_shapes(hidden):
    """name -> shape of the scorer's tensors: two softsign hidden layers of
    width ``hidden`` and a sigmoid readout."""
    return {
        "link.W1": (hidden, FEATURE_DIM),
        "link.b1": (hidden,),
        "link.W2": (hidden, hidden),
        "link.b2": (hidden,),
        "link.w3": (hidden,),
        "link.b3": (),
    }


def init_link_params(rng, hidden):
    """Glorot-initialized weights and zero biases."""
    return nn.init_params(rng, link_param_shapes(hidden))


def link_logit(features, params):
    """The scorer's forward pass over a (rows, 77) feature block: the (rows,)
    tensor of pre-sigmoid logits, as one graph."""
    x = nn.tensor(features)
    h1 = nn.softsign(nn.linear(x, params["link.W1"], params["link.b1"]))
    h2 = nn.softsign(nn.linear(h1, params["link.W2"], params["link.b2"]))
    return (h2 @ params["link.w3"]) + params["link.b3"]


def link_loss(features, signs, params):
    """Mean binary cross-entropy of a block's logits z: softplus(sign * z),
    with sign -1 for a true link and +1 for a negative."""
    z = link_logit(features, params)
    return nn.softplus(nn.tensor(signs) * z).sum() * (1.0 / len(signs))


def link_probabilities(features, params):
    """Link probability of every row of a feature block. All-zero parameters
    give exactly 0.5."""
    return nn.sigmoid(link_logit(features, params)).data


def link_mlp_scorer(params):
    """The trained scorer as a block scorer for assemble_dialogs. It runs
    link_probabilities' operations in the same order, so its probabilities
    have the same bits, but builds no graph: the hidden layers run in place,
    in two (rows, hidden) buffers kept from block to block and grown to the
    largest block."""
    w1, b1, w2, b2, w3, b3 = (
        params[f"link.{name}"].data for name in ("W1", "b1", "W2", "b2", "w3", "b3")
    )
    bufs = [np.empty((0, len(b1)))] * 2

    def scorer(block):
        rows = len(block.features)
        if len(bufs[0]) < rows:
            bufs[:] = [np.empty((rows, len(b1))) for _ in bufs]
        h1, h2 = (buf[:rows] for buf in bufs)
        np.matmul(block.features, w1.T, out=h1)
        h1 += b1
        _softsign(h1, h2)
        np.matmul(h1, w2.T, out=h2)
        h2 += b2
        _softsign(h2, h1)
        z = h2 @ w3
        z += b3
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        return np.divide(1.0, z, out=z)  # sigmoid: 1 / (1 + e^-z)

    return scorer


def _softsign(h, scratch):
    """nn.softsign in place: h / (1 + |h|)."""
    np.abs(h, out=scratch)
    scratch += 1.0
    h /= scratch


# hand-set weights on the interpretable features, summed in this order; used
# when no trained link checkpoint is available
_HEURISTIC_WEIGHTS = (
    (66, 2.0),  # Jaccard overlap
    (67, 0.5),  # same author
    (68, 2.5),  # child mentions parent
    (69, 1.5),  # parent mentions child
    (72, 0.6),  # parent asks a question
    (76, 0.8),  # adjacent
)


def heuristic_link_scorer(block):
    """A hand-set logistic score per row of a block, over its interpretable
    columns; a self row always scores 0.5."""
    f = block.features
    is_self = block.parent < 0
    z = 0.0
    for i, w in _HEURISTIC_WEIGHTS:
        z = z + w * f[:, i]
    z = -1.2 + z
    z = z - 0.10 * np.where(is_self, 0, block.child - block.parent - 1)
    z = z - 0.25 * np.maximum(0, f[:, :_TIME_BUCKETS].argmax(axis=1) - 8)
    return np.where(is_self, 0.5, 1.0 / (1.0 + np.exp(-z)))


# -- dialog assembly -------------------------------------------------------


@dataclass(frozen=True)
class Dialog:
    """subject is the earliest member; links are the chosen (child, parent)
    reply edges inside this dialog."""

    subject: int
    members: tuple
    links: tuple


def choose_parents(block, scores, threshold=0.5):
    """Each child's best candidate in a scored block, as (parents, scores)
    per child, parent -1 for self. A child's first maximum wins, so self
    beats any parent it ties with and nearer parents beat farther ones, as
    with np.argmax a NaN counts as the maximum. Below-threshold winners
    collapse to self."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != block.parent.shape:
        raise ContractViolation(
            f"scorer gave {scores.shape} scores for {len(block.parent)} candidates"
        )
    peak = np.maximum.reduceat(scores, block.starts)
    top = (scores == peak[block.child - block.child[0]]) | np.isnan(scores)
    best = np.minimum.reduceat(np.where(top, np.arange(len(scores)), len(scores)), block.starts)
    parents = np.where(scores[best] >= threshold, block.parent[best], -1)
    return parents, scores[best]


def assemble_dialogs(log, scorer, threshold=0.5, lookback=50):
    """Greedy parent choice per utterance, one scorer call per chunk of
    children, then connected components.

    Every utterance lands in exactly one dialog; members are index-sorted
    and the component's earliest utterance is the subject.
    """
    n = len(log.utterances)
    cols = link_columns(log)
    parent_of = {}
    root = list(range(n))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for first, stop in link_chunks(n, lookback):
        block = extract_link_features(cols, first, stop, lookback)
        parents, _ = choose_parents(block, scorer(block), threshold)
        del block  # so that two blocks are never alive at once
        for child, parent in enumerate(parents.tolist(), first):
            if parent >= 0:
                parent_of[child] = parent
                root[find(child)] = find(parent)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    dialogs = []
    for members in groups.values():
        members.sort()
        links = tuple((c, parent_of[c]) for c in members if c in parent_of)
        dialogs.append(Dialog(subject=members[0], members=tuple(members), links=links))
    dialogs.sort(key=lambda d: d.subject)
    return dialogs


@dataclass(frozen=True)
class HeadBody:
    """The initiator's opening run is the head; the rest of the dialog, in
    order, is the body (including anything the initiator says later)."""

    initiator: str
    head_indices: tuple
    body_indices: tuple
    head_text: str
    head_tokens: tuple


def split_head_body(dialog, log):
    utts = log.utterances
    initiator = utts[dialog.subject].author_id
    head = []
    rest = []
    for i in dialog.members:
        if not rest and utts[i].author_id == initiator:
            head.append(i)
        else:
            rest.append(i)
    head_text = " ".join(utts[i].clean_text for i in head)
    head_tokens = tuple(t for i in head for t in utts[i].tokens)
    return HeadBody(
        initiator=initiator,
        head_indices=tuple(head),
        body_indices=tuple(rest),
        head_text=head_text,
        head_tokens=head_tokens,
    )


def save_link_checkpoint(path, params):
    hidden = params["link.W1"].shape[0]
    ckpt_io.save_checkpoint(
        path, params, {"target": "link", "hidden": hidden, "feature_dim": FEATURE_DIM}
    )


def load_link_checkpoint(path):
    """The scorer's name -> Parameter dict; a checkpoint of another target, or
    with parameters missing or of other shapes than its hidden width needs,
    is a data error."""
    ck = ckpt_io.load_checkpoint(path)
    if ck.manifest.get("target") != "link":
        raise DataError(
            f"expected a link checkpoint, got target {ck.manifest.get('target')!r}"
        )
    return ck.require(link_param_shapes(ck.field("hidden", int)))


# -- training --------------------------------------------------------------


def load_link_examples(path, pre_cfg):
    """Reply-labeled logs for scorer training: JSONL lines of
    {utterances: [{time,id,text}], links: [[child, parent], ...]} where
    omitted children are dialog starters. Utterances are normalized one by
    one (no merging) so the link indices stay valid."""
    p = Path(path)
    examples = []
    res = normalization_lexicons(pre_cfg)
    for line_no, obj in read_jsonl(p, "link training data"):
        where = f"{p}:{line_no}"
        try:
            raw_utts = obj["utterances"]
            link_pairs = obj.get("links", [])
        except (KeyError, TypeError) as exc:
            raise DataError(f"{where}: bad record ({exc})") from exc
        if not isinstance(raw_utts, list) or not isinstance(link_pairs, list):
            raise DataError(f"{where}: utterances and links must be lists")
        raws = [raw_message(r, where) for r in raw_utts]
        utts = [preprocess_utterance(raw, pre_cfg, i, res) for i, raw in enumerate(raws)]
        links = {}
        for pair in link_pairs:
            # indices are JSON integers: no bools, no floats to truncate
            if not (isinstance(pair, list) and len(pair) == 2 and all(type(x) is int for x in pair)):
                raise DataError(f"{where}: bad link {pair!r} (want [child, parent] integers)")
            child, parent = pair
            if not 0 <= parent < child < len(utts):
                raise DataError(f"{where}: bad link {pair}")
            links[child] = parent
        examples.append((ChatLog(f"{p.stem}:{line_no}", utts), links))
    if not examples:
        raise DataError(f"no link training logs in {p}")
    return examples


def train_link_scorer(examples, hidden=LINK_HIDDEN, epochs=LINK_EPOCHS, lookback=50, seed=0):
    """Fit the scorer on (log, links) pairs, links mapping child index to its
    true parent index or None for dialog starters. Negatives are sampled from
    the other in-window candidates. Returns (params, per-epoch mean loss)."""
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    rng = np.random.default_rng(seed)
    blocks, signs = [], []
    for log, links in examples:
        cols = link_columns(log)
        # a window wide enough that every true parent has a row
        reach = max([lookback] + [c - p for c, p in links.items()])
        for first, stop in link_chunks(len(log.utterances), reach):
            block = extract_link_features(cols, first, stop, reach)
            rows = []
            for child in range(first, stop):
                true_parent = links.get(child)
                candidates = [p for p in range(max(0, child - lookback), child) if p != true_parent]
                if true_parent is not None:
                    candidates.append(None)
                rng.shuffle(candidates)
                picked = [true_parent] + candidates[:LINK_NEGATIVES]
                # the child's rows are self, then child - 1 down the window
                start = block.starts[child - first]
                rows += [start if p is None else start + child - p for p in picked]
                signs += [-1.0] + [1.0] * (len(picked) - 1)
            blocks.append(block.features[rows])
    if not blocks:
        raise DataError("no link training pairs")
    features, signs = np.concatenate(blocks), np.array(signs)
    params = init_link_params(rng, hidden)
    state = nn.AdamState(lr=LINK_LR)

    def batch_loss(batch):
        return link_loss(features[batch], signs[batch], params)

    history = []
    order = np.arange(len(features))
    for _ in range(epochs):
        rng.shuffle(order)
        history.append(nn.train_epoch(order, LINK_BATCH_SIZE, batch_loss, params, state))
    return params, history
