"""Reply-structure recovery: attach each utterance to the earlier utterance
it answers, or to itself when it starts a new dialog, then group the linked
utterances into dialogs.

Each (child, candidate parent) pair maps to a 77-wide feature vector; a small
feedforward scorer (two softsign hidden layers, sigmoid output) turns it into
a link probability. The child takes its best-scoring candidate, falling back
to self when nothing clears the threshold. Connected components of the chosen
links are the dialogs; within a dialog, the initiator's opening run of
messages is the head and everything after it is the body.
"""

import re
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ContractViolation, DataError

FEATURE_DIM = 77
LINK_HIDDEN = 64
_TIME_BUCKETS = 25
_DIST_BUCKETS = 15
_COUNT_BUCKETS = 10
_SHARED_BUCKETS = 6

_MENTION_RE = re.compile(r"@\w+")


# -- feature extraction ----------------------------------------------------


def time_gap_bucket(gap_ms):
    """Power-of-two seconds buckets: <1s, 1-2s, 2-4s, ... capped at ~97 days."""
    if gap_ms < 1000:
        return 0
    return min(_TIME_BUCKETS - 1, 1 + int(np.log2(gap_ms // 1000)))


def distance_bucket(distance):
    return min(distance - 1, _DIST_BUCKETS - 1)


def count_bucket(n):
    """Token counts 0..5 get their own bucket, then 6-8, 9-12, 13-20, 21+."""
    if n <= 5:
        return n
    if n <= 8:
        return 6
    if n <= 12:
        return 7
    if n <= 20:
        return 8
    return 9


def shared_bucket(n):
    return min(n, _SHARED_BUCKETS - 1)


def _mentions(text, author_id):
    if len(author_id) < 2:
        return False
    low = text.lower()
    return ("@" + author_id.lower()) in low or bool(
        re.search(r"\b" + re.escape(author_id.lower()) + r"\b", low)
    )


def extract_link_features(log, child, parent):
    """77-wide vector for the (child, parent) candidate; parent None means
    the self candidate. Layout, in order: time-gap one-hot (25), distance
    one-hot (15), parent token count one-hot (10), child token count one-hot
    (10), shared-token one-hot (6), then scalar flags: Jaccard, same author,
    child mentions parent, parent mentions child, child mentions anyone,
    child asks a question, parent asks a question, same hour of day, self
    candidate, parent opens the log, adjacent pair.

    The self candidate keeps only child-side features and its own flag.
    """
    utts = log.utterances
    c = utts[child]
    f = np.zeros(FEATURE_DIM)
    base = _TIME_BUCKETS + _DIST_BUCKETS
    f[base + _COUNT_BUCKETS + count_bucket(len(c.tokens))] = 1.0
    f[71] = 1.0 if "?" in c.clean_text else 0.0
    f[70] = 1.0 if _MENTION_RE.search(c.raw_text) else 0.0
    if parent is None:
        f[74] = 1.0
        return f
    if not 0 <= parent < child:
        raise ContractViolation(f"parent {parent} must precede child {child}")
    p = utts[parent]
    f[time_gap_bucket(c.time - p.time)] = 1.0
    f[_TIME_BUCKETS + distance_bucket(child - parent)] = 1.0
    f[base + count_bucket(len(p.tokens))] = 1.0
    cs, ps = set(c.tokens), set(p.tokens)
    inter = cs & ps
    union = cs | ps
    f[base + 2 * _COUNT_BUCKETS + shared_bucket(len(inter))] = 1.0
    f[66] = len(inter) / len(union) if union else 0.0
    f[67] = 1.0 if c.author_id == p.author_id else 0.0
    f[68] = 1.0 if _mentions(c.raw_text, p.author_id) else 0.0
    f[69] = 1.0 if _mentions(p.raw_text, c.author_id) else 0.0
    f[72] = 1.0 if "?" in p.clean_text else 0.0
    hour_c = (c.time // 3_600_000) % 24
    hour_p = (p.time // 3_600_000) % 24
    f[73] = 1.0 if hour_c == hour_p else 0.0
    f[75] = 1.0 if parent == 0 else 0.0
    f[76] = 1.0 if child - parent == 1 else 0.0
    return f


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
    """Graph-building forward pass; returns the pre-sigmoid scalar tensor."""
    x = nn.tensor(np.asarray(features))
    h1 = nn.softsign(nn.linear(x, params["link.W1"], params["link.b1"]))
    h2 = nn.softsign(nn.linear(h1, params["link.W2"], params["link.b2"]))
    return (params["link.w3"] @ h2) + params["link.b3"]


def score_reply_link(features, params):
    """Link probability in (0, 1). All-zero parameters give exactly 0.5."""
    return float(nn.sigmoid(link_logit(features, params)).data)


def make_scorer(params):
    """Adapt trained parameters to the (log, child, parent) interface that
    assemble_dialogs expects."""

    def scorer(log, child, parent):
        return score_reply_link(extract_link_features(log, child, parent), params)

    return scorer


# hand-set weights on the interpretable features; used when no trained
# link checkpoint is available
_HEURISTIC_WEIGHTS = (
    (66, 2.0),  # Jaccard overlap
    (67, 0.5),  # same author
    (68, 2.5),  # child mentions parent
    (69, 1.5),  # parent mentions child
    (72, 0.6),  # parent asks a question
    (76, 0.8),  # adjacent
)


def heuristic_link_scorer(log, child, parent):
    if parent is None:
        return 0.5
    f = extract_link_features(log, child, parent)
    z = -1.2 + sum(w * f[i] for i, w in _HEURISTIC_WEIGHTS)
    z -= 0.10 * (child - parent - 1)
    z -= 0.25 * max(0, time_gap_bucket(log.utterances[child].time - log.utterances[parent].time) - 8)
    return float(1.0 / (1.0 + np.exp(-z)))


# -- dialog assembly -------------------------------------------------------


@dataclass(frozen=True)
class Dialog:
    """subject is the earliest member; links are the chosen (child, parent)
    reply edges inside this dialog."""

    subject: int
    members: tuple
    links: tuple


def choose_parent(log, child, scorer, threshold=0.5, lookback=50):
    """Best candidate for one child: the self option, then each earlier
    utterance newest first. Ties keep the earlier-considered candidate, so
    self beats any parent it ties with and nearer parents beat farther ones.
    Below-threshold winners collapse to self."""
    best_parent = None
    best_score = scorer(log, child, None)
    lo = max(0, child - lookback)
    for parent in range(child - 1, lo - 1, -1):
        s = scorer(log, child, parent)
        if s > best_score:
            best_score = s
            best_parent = parent
    if best_parent is not None and best_score < threshold:
        best_parent = None
    return best_parent, best_score


def assemble_dialogs(log, scorer, threshold=0.5, lookback=50):
    """Greedy parent choice per utterance, then connected components.

    Every utterance lands in exactly one dialog; members are index-sorted
    and the component's earliest utterance is the subject.
    """
    n = len(log.utterances)
    parent_of = {}
    root = list(range(n))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for child in range(n):
        parent, _ = choose_parent(log, child, scorer, threshold, lookback)
        if parent is not None:
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
    time: int
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
        time=utts[dialog.subject].time,
        head_indices=tuple(head),
        body_indices=tuple(rest),
        head_text=head_text,
        head_tokens=head_tokens,
    )


def save_link_checkpoint(path, params):
    from . import checkpoint as ckpt_io

    hidden = params["link.W1"].shape[0]
    ckpt_io.save_checkpoint(
        path, params, {"target": "link", "hidden": hidden, "feature_dim": FEATURE_DIM}
    )


def load_link_checkpoint(path):
    """The scorer's name -> Parameter dict; a checkpoint of another target, or
    with parameters missing or of other shapes than its hidden width needs,
    is a data error."""
    from . import checkpoint as ckpt_io

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
    import json
    from pathlib import Path

    from .corpus import ChatLog, preprocess_utterance, raw_message

    p = Path(path)
    if not p.is_file():
        raise DataError(f"link training data not found: {p}")
    examples = []
    for line_no, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        where = f"{p}:{line_no}"
        try:
            obj = json.loads(line)
            raw_utts = obj["utterances"]
            link_pairs = obj.get("links", [])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DataError(f"{where}: bad record ({exc})") from exc
        if not isinstance(raw_utts, list) or not isinstance(link_pairs, list):
            raise DataError(f"{where}: utterances and links must be lists")
        raws = [raw_message(r, where) for r in raw_utts]
        utts = [preprocess_utterance(raw, pre_cfg, index=i) for i, raw in enumerate(raws)]
        links = {}
        for pair in link_pairs:
            try:
                child, parent = (int(x) for x in pair)
            except (TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"{where}: bad link {pair!r} ({exc})") from exc
            if not 0 <= parent < child < len(utts):
                raise DataError(f"{where}: bad link {pair}")
            links[child] = parent
        examples.append((ChatLog(f"{p.stem}:{line_no}", utts), links))
    if not examples:
        raise DataError(f"no link training logs in {p}")
    return examples


def train_link_scorer(
    examples,
    hidden=LINK_HIDDEN,
    epochs=5,
    lr=0.001,
    batch_size=32,
    lookback=50,
    negatives_per_positive=3,
    seed=0,
):
    """Fit the scorer on (log, links) pairs, links mapping child index to its
    true parent index or None for dialog starters. Negatives are sampled from
    the other in-window candidates. Returns (params, per-epoch mean loss)."""
    rng = np.random.default_rng(seed)
    pairs = []  # (features, label)
    for log, links in examples:
        n = len(log.utterances)
        for child in range(n):
            true_parent = links.get(child)
            pairs.append((extract_link_features(log, child, true_parent), 1.0))
            candidates = [
                p
                for p in range(max(0, child - lookback), child)
                if p != true_parent
            ]
            if true_parent is not None:
                candidates.append(None)
            rng.shuffle(candidates)
            for p in candidates[:negatives_per_positive]:
                pairs.append((extract_link_features(log, child, p), 0.0))
    if not pairs:
        raise DataError("no link training pairs")
    params = init_link_params(rng, hidden)
    state = nn.AdamState(lr=lr)
    history = []
    order = np.arange(len(pairs))
    for _ in range(epochs):
        rng.shuffle(order)
        total = 0.0
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            losses = []
            for j in batch:
                feats, label = pairs[j]
                z = link_logit(feats, params)
                # BCE on the logit: softplus(-z) for positives, softplus(z)
                # for negatives
                losses.append(nn.softplus(-z) if label == 1.0 else nn.softplus(z))
            total += nn.train_step(losses, params, state) * len(batch)
        history.append(total / len(order))
    return params, history
