"""Reply-structure recovery: attach each utterance to the earlier utterance
it answers, or to itself when it starts a new dialog, then group the linked
utterances into dialogs.

Each (child, candidate parent) pair maps to a 77-wide feature row. The link
scorer turns a row into a link probability with two softsign hidden layers
of width 64 and a sigmoid readout. ``link_logit`` is its only forward, one
graph over a (rows, 77) block: training (``train --target link``) runs it
on each mini-batch and inference (``disentangle --link-ckpt``) on each
child's candidates. The child takes its best-scoring candidate, falling back
to self when nothing clears the threshold. Connected components of the
chosen links are the dialogs; within a dialog, the initiator's opening run
of messages is the head and everything after it is the body.

``link_columns`` reads a log once into per-utterance columns (times, token
counts and buckets, flags, author codes). ``extract_link_features(cols,
child, parents)`` builds the rows a caller needs: row 0 is the self
candidate, row ``j`` the parent ``parents[j - 1]``. A scorer is a callable
``scorer(cols, child, lo)`` that returns one score per candidate in the
order self, ``child - 1``, ..., ``lo``; ``heuristic_link_scorer``,
``link_mlp_scorer(params)`` and ``synth.oracle_scorer`` all have that form.
``choose_parent`` takes the first maximum of the score vector, so self beats
any parent it ties with and a nearer parent beats a farther one. Memory
stays per child: no array spans the whole log times the lookback window.
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


def candidate_parents(child, lo):
    """The candidate parents of ``child`` down to ``lo``, nearest first."""
    return np.arange(child - 1, lo - 1, -1)


def extract_link_features(cols, child, parents):
    """The (len(parents) + 1, 77) feature block of one child: row 0 is the
    self candidate and row j the parent ``parents[j - 1]``. Layout of a row,
    in order: time-gap one-hot (25), distance one-hot (15), parent token
    count one-hot (10), child token count one-hot (10), shared-token one-hot
    (6), then scalar flags: Jaccard, same author, child mentions parent,
    parent mentions child, child mentions anyone, child asks a question,
    parent asks a question, same hour of day, self candidate, parent opens
    the log, adjacent pair.

    The self row keeps only child-side features and its own flag.
    """
    parents = np.asarray(parents, dtype=np.int64)
    plist = parents.tolist()
    if not 0 <= child < len(cols.times) or (plist and not 0 <= min(plist) <= max(plist) < child):
        raise ContractViolation(f"bad candidate parents {plist} for child {child}")
    rows = np.arange(1, len(parents) + 1)
    f = np.zeros((len(parents) + 1, FEATURE_DIM))
    f[:, _BASE + _COUNT_BUCKETS + cols.count_buckets[child]] = 1.0
    f[:, 71] = cols.questions[child]
    f[:, 70] = cols.any_mention[child]
    f[0, 74] = 1.0
    if not len(parents):
        return f
    f[rows, time_gap_bucket(cols.times[child] - cols.times[parents])] = 1.0
    distance = child - parents
    f[rows, _TIME_BUCKETS + distance_bucket(distance)] = 1.0
    f[rows, _BASE + cols.count_buckets[parents]] = 1.0
    mine = set(cols.tokens[child])
    shared = np.array([len(mine.intersection(cols.tokens[p])) for p in plist], dtype=np.int64)
    f[rows, _BASE + 2 * _COUNT_BUCKETS + shared_bucket(shared)] = 1.0
    # an empty union has nothing shared, so shared / max(union, 1) is 0 there
    union = len(mine) + cols.distinct_tokens[parents] - shared
    f[1:, 66] = shared / np.maximum(union, 1)
    me, theirs = cols.authors[child], cols.authors[parents]
    f[1:, 67] = theirs == me
    # the window holds few authors: test the child's text once per author
    who = theirs.tolist()
    named = {a: cols.mentions(child, a) for a in set(who)}
    f[1:, 68] = [named[a] for a in who]
    f[1:, 69] = [cols.mentions(p, me) for p in plist]
    f[1:, 72] = cols.questions[parents]
    f[1:, 73] = cols.hours[parents] == cols.hours[child]
    f[1:, 75] = parents == 0
    f[1:, 76] = distance == 1
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
    """The trained scorer as a per-child scorer for assemble_dialogs, over
    constant copies of ``params`` so that no graph is kept."""
    params = {name: nn.tensor(p.data) for name, p in params.items()}

    def scorer(cols, child, lo):
        block = extract_link_features(cols, child, candidate_parents(child, lo))
        return link_probabilities(block, params)

    return scorer


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


def heuristic_link_scorer(cols, child, lo):
    """A hand-set logistic score per candidate, over the columns of the
    child's feature block; self always scores 0.5."""
    f = extract_link_features(cols, child, candidate_parents(child, lo))[1:]
    z = 0.0
    for i, w in _HEURISTIC_WEIGHTS:
        z = z + w * f[:, i]
    z = -1.2 + z
    z = z - 0.10 * np.arange(len(f))  # distance - 1
    z = z - 0.25 * np.maximum(0, f[:, :_TIME_BUCKETS].argmax(axis=1) - 8)
    return np.concatenate(([0.5], 1.0 / (1.0 + np.exp(-z))))


# -- dialog assembly -------------------------------------------------------


@dataclass(frozen=True)
class Dialog:
    """subject is the earliest member; links are the chosen (child, parent)
    reply edges inside this dialog."""

    subject: int
    members: tuple
    links: tuple


def choose_parent(cols, child, scorer, threshold=0.5, lookback=50):
    """Best candidate for one child among self and the ``lookback`` earlier
    utterances, scored in one scorer call. The first maximum wins, so self
    beats any parent it ties with and nearer parents beat farther ones.
    Below-threshold winners collapse to self."""
    lo = max(0, child - lookback)
    scores = np.asarray(scorer(cols, child, lo))
    if scores.shape != (child - lo + 1,):
        raise ContractViolation(
            f"scorer gave {scores.shape} scores for {child - lo + 1} candidates"
        )
    best = int(np.argmax(scores))
    score = float(scores[best])
    parent = child - best if best and score >= threshold else None
    return parent, score


def assemble_dialogs(log, scorer, threshold=0.5, lookback=50):
    """Greedy parent choice per utterance, then connected components.

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

    for child in range(n):
        parent, _ = choose_parent(cols, child, scorer, threshold, lookback)
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
    blocks, signs = [], []
    for log, links in examples:
        cols = link_columns(log)
        for child in range(len(log.utterances)):
            true_parent = links.get(child)
            candidates = [p for p in range(max(0, child - lookback), child) if p != true_parent]
            if true_parent is not None:
                candidates.append(None)
            rng.shuffle(candidates)
            picked = [true_parent] + candidates[:negatives_per_positive]
            parents = [p for p in picked if p is not None]
            # row 0 of the block is self, row 1 + k the k-th picked parent
            block = extract_link_features(cols, child, parents)
            blocks.append(block[[0 if p is None else 1 + parents.index(p) for p in picked]])
            signs += [-1.0] + [1.0] * (len(picked) - 1)
    if not blocks:
        raise DataError("no link training pairs")
    features, signs = np.concatenate(blocks), np.array(signs)
    params = init_link_params(rng, hidden)
    state = nn.AdamState(lr=lr)

    def batch_loss(batch):
        return link_loss(features[batch], signs[batch], params)

    history = []
    order = np.arange(len(features))
    for _ in range(epochs):
        rng.shuffle(order)
        history.append(nn.train_epoch(order, batch_size, batch_loss, params, state))
    return params, history
