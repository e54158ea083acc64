"""The two dialog classifiers and the end-to-end pair extraction pipeline.

Both models share one architecture over a 413-wide fused embedding: three
convolution-pooling stages over the utterance vector (1024/512/256 kernels),
29 standardized heuristic attributes, and a 128-wide local-attention context,
followed by 413→64→2 fully connected layers with softmax. The issue model
reads the dialog head through the window [pad, head, first body utterance];
the solution model reads each body utterance through its radius-1 window.

One batched forward serves training, evaluation and extraction: each
mini-batch, validation split and test fold is one graph. Extraction scores
a chunk of consecutive dialogs at a time, about 16 example rows: one
forward over the chunk's heads, one over the bodies of the heads that pass.

Training uses Adam on mini-batches of 8 examples with dropout 0.6 after each
conv stage and the first FC layer, a seeded 10% validation split, and early
stopping with patience 5 within at most 100 epochs. Everything is a pure
function of (data, config, seed).
"""

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt_io
from . import encoder as enc
from . import nn
from .corpus import ChatLog, normalization_lexicons, preprocess_utterance, raw_message
from .disentangle import Dialog, HeadBody, split_head_body
from .errors import ConfigError, ContractViolation, DataError
from .features import (
    CONTEXT_DIM,
    HEURISTIC_DIM,
    TEXTUAL_DIM,
    ConvStackSpec,
    HeuristicStats,
    TopicStats,
    attention_param_shapes,
    conv_param_shapes,
    fit_heuristic_stats,
    fuse_features,
    heuristic_attributes,
    init_attention_params,
    init_conv_params,
    load_heuristic_lexicons,
    local_attention,
    textual_features,
)
from .fileio import jsonl_text, read_jsonl

FC_HIDDEN = 64
N_CLASSES = 2
TARGETS = ("issue", "solution")


@dataclass(frozen=True)
class ModelConfig:
    batch_size: int = 8
    dropout: float = 0.6
    lr: float = 0.001
    beta1: float = 0.9
    max_epochs: int = 100
    patience: int = 5
    issue_threshold: float = 0.5
    solution_threshold: float = 0.4
    balance: bool = False
    seed: int = 0

    def __post_init__(self):
        checks = (
            ("issue_threshold", "in [0.2, 0.8]", 0.2 <= self.issue_threshold <= 0.8),
            ("solution_threshold", "in [0.2, 0.8]", 0.2 <= self.solution_threshold <= 0.8),
            ("patience", ">= 1", self.patience >= 1),
            ("dropout", "in [0, 1)", 0.0 <= self.dropout < 1.0),
            ("batch_size", ">= 1", self.batch_size >= 1),
            ("max_epochs", ">= 1", self.max_epochs >= 1),
            ("lr", "a positive finite number", 0.0 < self.lr < np.inf),  # NaN fails
            ("beta1", "in [0, 1)", 0.0 <= self.beta1 < 1.0),
            ("seed", ">= 0", self.seed >= 0),
        )
        for name, rule, ok in checks:
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass(frozen=True)
class LabeledDialog:
    """One annotated dialog: indices into its community's log, its head/body
    split, the head issue label, and per-body-utterance solution labels (only
    when the head is an issue)."""

    community_id: str
    dialog: Dialog
    parts: HeadBody
    y_issue: int
    y_solution: tuple = ()


@dataclass
class LabeledCorpus:
    logs: dict  # community_id -> ChatLog
    dialogs: list


def load_labeled_dialogs(path, pre_cfg):
    """JSONL: {community_id, utterances: [{time,id,text}], y_issue,
    y_solution}. Utterances that normalize to nothing are kept (as
    empty-token records) so solution labels stay aligned. The community log
    is the concatenation of that community's dialogs, in file order; it
    provides the chat scope for topic statistics."""
    p = Path(path)
    logs = {}
    dialogs = []
    res = normalization_lexicons(pre_cfg)
    for line_no, obj in read_jsonl(p, "labeled dialogs"):
        try:
            community = obj["community_id"]
            raw_utts = obj["utterances"]
            y_issue = obj["y_issue"]
            y_solution = obj.get("y_solution", [])
        except (KeyError, TypeError) as exc:
            raise DataError(f"{p}:{line_no}: bad record ({exc})") from exc
        if not (
            isinstance(community, str) and isinstance(raw_utts, list) and isinstance(y_solution, list)
        ):
            raise DataError(
                f"{p}:{line_no}: bad record (community_id must be a string, "
                "utterances and y_solution lists)"
            )
        # labels are JSON integers: no bools, no floats to truncate
        if any(type(y) is not int or y not in (0, 1) for y in [y_issue, *y_solution]):
            raise DataError(f"{p}:{line_no}: bad record (labels must be the integers 0 or 1)")
        y_solution = tuple(y_solution)
        if not raw_utts:
            raise DataError(f"{p}:{line_no}: dialog has no utterances")
        log = logs.setdefault(community, ChatLog(community, []))
        members = []
        for r in raw_utts:
            raw = raw_message(r, f"{p}:{line_no}")
            u = preprocess_utterance(raw, pre_cfg, len(log.utterances), res)
            log.utterances.append(u)
            members.append(u.index)
        dialog = Dialog(subject=members[0], members=tuple(members), links=())
        parts = split_head_body(dialog, log)
        if y_issue == 1:
            if len(y_solution) != len(parts.body_indices):
                raise DataError(
                    f"{p}:{line_no}: y_solution length {len(y_solution)} != "
                    f"body length {len(parts.body_indices)}"
                )
        elif y_solution:
            raise DataError(f"{p}:{line_no}: y_solution given for a non-issue dialog")
        dialogs.append(LabeledDialog(community, dialog, parts, y_issue, y_solution))
    if not dialogs:
        raise DataError(f"no labeled dialogs in {p}")
    return LabeledCorpus(logs, dialogs)


# -- embedding -------------------------------------------------------------


@dataclass
class EmbeddedExample:
    """Everything static about one classification input: the local window
    of 2k+1 vectors and its pad mask (True on real ones), the raw heuristic
    vector, and (for training) the label."""

    window: np.ndarray
    pad_mask: np.ndarray
    heur: np.ndarray
    label: int = -1
    utt_index: int = -1
    community_id: str = ""


class DialogEmbedder:
    """Holds one chat's topic statistics and token vectors and yields (head
    example, body examples) per dialog, encoding each utterance when its
    dialog is embedded: no per-utterance vectors are kept, and each distinct
    token is hashed once per chat. Reusable across dialogs of the same chat."""

    def __init__(self, chat, enc_cfg):
        self.chat = chat
        self.enc_cfg = enc_cfg
        self.lex = load_heuristic_lexicons()
        self.stats = TopicStats(chat)
        self.vectors = enc.TokenVectors(enc_cfg)

    def examples_for(self, dialog, parts, y_issue=-1, y_solution=()):
        """(head example, body examples) of one dialog, given its head/body
        split ``parts``: the head encoded from its joined tokens, each body
        utterance from its own."""
        if not parts.head_indices:
            raise ContractViolation("dialog head is empty")
        utts = self.chat.utterances
        tokens = [parts.head_tokens, *(utts[i].tokens for i in parts.body_indices)]
        seq = np.stack([enc.encode_tokens(t, self.enc_cfg, self.vectors) for t in tokens])
        windows, pad_mask = enc.local_windows(seq, self.enc_cfg.window_k)
        heur = heuristic_attributes(dialog, parts, self.chat, self.stats, self.lex)
        indices = [dialog.subject, *parts.body_indices]
        labels = [y_issue, *y_solution] + [-1] * (len(indices) - 1 - len(y_solution))
        examples = [
            EmbeddedExample(window, mask, row, label, i, self.chat.community_id)
            for window, mask, row, label, i in zip(windows, pad_mask, heur, labels, indices)
        ]
        return examples[0], examples[1:]


# -- parameters and forward pass ------------------------------------------


def model_param_shapes(enc_dim, conv_spec):
    """name -> shape of every trainable tensor: the conv stack, attention and
    the FC head. Checkpoints are checked against it."""
    fused = conv_spec.kernel_counts[-1] + HEURISTIC_DIM + CONTEXT_DIM
    return {
        **conv_param_shapes(conv_spec),
        **attention_param_shapes(enc_dim),
        "fc1.w": (FC_HIDDEN, fused),
        "fc1.b": (FC_HIDDEN,),
        "fc2.w": (N_CLASSES, FC_HIDDEN),
        "fc2.b": (N_CLASSES,),
    }


def init_model_params(rng, enc_dim, conv_spec):
    """All trainable tensors, keyed by name and shaped as model_param_shapes
    says: the conv stack, attention (query and key tied), then the FC head,
    drawn from ``rng`` in that order."""
    params = init_conv_params(rng, conv_spec, enc_dim)
    params.update(init_attention_params(rng, enc_dim))
    shapes = model_param_shapes(enc_dim, conv_spec)
    params.update(nn.init_params(rng, {n: s for n, s in shapes.items() if n not in params}))
    return params


def forward_logits(examples, params, conv_spec, heur_stats, cfg, rng=None, training=False):
    """Fused embedding then the two FC layers over a list of examples, as one
    graph; returns the (B, 2) logits. In training mode dropout at rate
    cfg.dropout follows each conv stage and the first FC layer, its masks cut
    by column from one (B, sum of widths) draw of ``rng``: row i gets the
    draws of a one-row forward after i rows' worth. Outside training the
    params are read as constants, so the forward builds no graph."""
    if not training:
        params = {k: nn.tensor(p.data) for k, p in params.items()}
    windows = np.stack([ex.window for ex in examples])
    pad_mask = np.stack([ex.pad_mask for ex in examples])
    ends = np.cumsum([*conv_spec.kernel_counts, FC_HIDDEN])
    drops = []
    if training and cfg.dropout > 0.0:
        drops = np.split(rng.random((len(examples), ends[-1])), ends[:-1], axis=1)
    k = windows.shape[1] // 2
    x = textual_features(windows[:, k], conv_spec, params, cfg.dropout, drops[:-1])
    ctx = local_attention(windows, pad_mask, params)
    fused = fuse_features(x, np.stack([ex.heur for ex in examples]), ctx, heur_stats)
    h = nn.relu(nn.linear(fused, params["fc1.w"], params["fc1.b"]))
    if drops:
        h = nn.dropout(h, cfg.dropout, drops[-1])
    return nn.linear(h, params["fc2.w"], params["fc2.b"])


# -- training --------------------------------------------------------------


class EarlyStopper:
    """Stop after `patience` consecutive epochs without strict improvement."""

    def __init__(self, patience):
        self.patience = patience
        self.best = np.inf
        self.bad_epochs = 0

    def update(self, value):
        if value < self.best:
            self.best = value
            self.bad_epochs = 0
            return True
        self.bad_epochs += 1
        return False

    @property
    def should_stop(self):
        return self.bad_epochs >= self.patience


@dataclass
class ModelBundle:
    """A model ready for inference, loaded from a checkpoint or just trained."""

    params: dict
    heur_stats: HeuristicStats
    target: str
    cfg: ModelConfig
    conv_spec: ConvStackSpec

    def proba(self, examples):
        """Each example's positive-class probability, from one forward."""
        if not examples:
            return np.empty(0)
        logits = forward_logits(examples, self.params, self.conv_spec, self.heur_stats, self.cfg)
        return nn.softmax(logits).data[:, 1]


@dataclass
class TrainResult(ModelBundle):
    """A trained model plus what its checkpoint records about training."""

    enc_cfg: enc.EncoderConfig
    history: list = field(default_factory=list)  # (train_loss, val_loss)
    best_epoch: int = 0


def build_examples(corpus, enc_cfg):
    """Embed every labeled dialog once, with one embedder per community, and
    flatten the corpus into both targets' classifier examples, in file order.
    Issue: one per dialog, labeled with y_issue. Solution: one per body
    utterance of issue-positive dialogs, labeled with y_solution."""
    embedders = {cid: DialogEmbedder(log, enc_cfg) for cid, log in corpus.logs.items()}
    examples = {target: [] for target in TARGETS}
    for ld in corpus.dialogs:
        emb = embedders[ld.community_id]
        head_ex, body_exs = emb.examples_for(ld.dialog, ld.parts, ld.y_issue, ld.y_solution)
        examples["issue"].append(head_ex)
        if ld.y_issue == 1:
            examples["solution"].extend(body_exs)
    return examples


def bootstrap_balance(items, seed, label):
    """Resample the minority class, by ``label(item)``, with replacement
    (seeded) until the class counts match. All originals are retained; order
    is originals first, then the resampled extras."""
    pos = [it for it in items if label(it) == 1]
    neg = [it for it in items if label(it) != 1]
    if not pos or not neg:
        raise DataError("bootstrap balancing needs both classes present")
    if len(pos) == len(neg):
        return list(items)
    minority, gap = (pos, len(neg) - len(pos)) if len(pos) < len(neg) else (neg, len(pos) - len(neg))
    rng = np.random.default_rng(seed)
    extras = [minority[i] for i in rng.integers(0, len(minority), size=gap)]
    return list(items) + extras


def train_model(examples, target, cfg, enc_cfg, conv_spec=ConvStackSpec(), log_fn=None):
    """Fit one model on ``target``'s examples, built with ``enc_cfg``;
    bit-reproducible given (examples, target, cfg). Raises a data error when
    the examples are single-class, or when the validation split would leave
    them single-class."""
    if target not in TARGETS:
        raise ConfigError(f"unknown target {target!r}")
    if not examples:
        raise DataError(f"no {target} training examples")
    labels = {ex.label for ex in examples}
    if labels != {0, 1}:
        raise DataError(
            f"{target} training data is single-class (labels seen: {sorted(labels)})"
        )
    heur_stats = fit_heuristic_stats([ex.heur for ex in examples])
    rng = np.random.default_rng(cfg.seed)
    init_rng, balance_rng, split_rng, shuffle_rng, drop_rng = rng.spawn(5)
    if cfg.balance and target == "issue":
        examples = bootstrap_balance(
            examples, int(balance_rng.integers(2**31)), label=lambda e: e.label
        )
    n = len(examples)
    perm = split_rng.permutation(n)
    n_val = max(1, round(0.1 * n))
    val_idx = perm[:n_val]
    train_idx = perm[n_val:]
    if len(train_idx) == 0:
        raise DataError("not enough examples to split off validation data")
    train_labels = {examples[i].label for i in train_idx}
    if train_labels != {0, 1}:
        raise DataError("training split is single-class after validation holdout")
    params = init_model_params(init_rng, enc_cfg.dim, conv_spec)
    state = nn.AdamState(lr=cfg.lr, beta1=cfg.beta1)
    stopper = EarlyStopper(cfg.patience)
    best_params = {k: p.data.copy() for k, p in params.items()}
    best_epoch = 0
    history = []
    val_examples = [examples[i] for i in val_idx]

    def batch_loss(idx):
        batch = [examples[i] for i in idx]
        logits = forward_logits(batch, params, conv_spec, heur_stats, cfg, drop_rng, training=True)
        return nn.softmax_cross_entropy(logits, [ex.label for ex in batch])

    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(train_idx)
        train_loss = nn.train_epoch(order, cfg.batch_size, batch_loss, params, state)
        val_logits = forward_logits(val_examples, params, conv_spec, heur_stats, cfg)
        val_loss = float(nn.softmax_cross_entropy(val_logits, [ex.label for ex in val_examples]).data)
        history.append((train_loss, val_loss))
        if stopper.update(val_loss):
            best_params = {k: p.data.copy() for k, p in params.items()}
            best_epoch = epoch
        if log_fn is not None:
            log_fn(epoch, train_loss, val_loss)
        if stopper.should_stop:
            break
    for k, p in params.items():
        p.data = best_params[k]
    return TrainResult(
        params=params,
        heur_stats=heur_stats,
        target=target,
        cfg=cfg,
        enc_cfg=enc_cfg,
        conv_spec=conv_spec,
        history=history,
        best_epoch=best_epoch,
    )


# -- checkpoints -----------------------------------------------------------


def save_model_checkpoint(path, result):
    enc_cfg = result.enc_cfg
    extra = {
        "target": result.target,
        "model_config": asdict(result.cfg),
        "encoder_config": {k: getattr(enc_cfg, k) for k in enc.VECTOR_FIELDS},
        "encoder_fingerprint": enc.config_fingerprint(enc_cfg),
        "conv_spec": {
            "kernel_counts": list(result.conv_spec.kernel_counts),
            "kernel_size": result.conv_spec.kernel_size,
        },
        "heuristic_stats": {
            "mean": list(result.heur_stats.mean),
            "std": list(result.heur_stats.std),
        },
        "best_epoch": result.best_epoch,
    }
    ckpt_io.save_checkpoint(path, result.params, extra)


def _heuristic_stats(d):
    stats = HeuristicStats(tuple(map(float, d["mean"])), tuple(map(float, d["std"])))
    if len(stats.mean) != HEURISTIC_DIM or len(stats.std) != HEURISTIC_DIM:
        raise ValueError(f"mean and std must have {HEURISTIC_DIM} entries")
    return stats


def _conv_spec(d):
    spec = ConvStackSpec(tuple(d["kernel_counts"]), d["kernel_size"])
    if spec.kernel_counts[-1] != TEXTUAL_DIM:
        raise ValueError(f"the last stage must have {TEXTUAL_DIM} kernels")
    return spec


def load_model_checkpoint(path, enc_cfg, target=None):
    """Load and validate against the runtime encoder configuration and, when
    given, the expected target; a checkpoint of another target, stale
    encoder settings, missing or misshapen parameters, or missing manifest
    fields fail loudly."""
    ck = ckpt_io.load_checkpoint(path)
    man = ck.manifest
    found = man.get("target")
    wanted = (target,) if target is not None else TARGETS
    if found not in wanted:
        raise ConfigError(f"checkpoint target {found!r} is not {' or '.join(wanted)}: {path}")
    stored = man.get("encoder_config", {})
    if not isinstance(stored, dict):
        raise DataError("checkpoint manifest field 'encoder_config' malformed (not an object)")
    if stored.get("dim") != enc_cfg.dim:
        raise ConfigError(
            f"checkpoint encoder dim {stored.get('dim')} != runtime dim {enc_cfg.dim}"
        )
    fp = enc.config_fingerprint(enc_cfg)
    if man.get("encoder_fingerprint") != fp:
        mismatched = [k for k in enc.VECTOR_FIELDS if stored.get(k) != getattr(enc_cfg, k)]
        raise ConfigError(
            "checkpoint encoder fingerprint does not match runtime encoder"
            + (f" (differs in: {', '.join(mismatched)})" if mismatched else " (table contents changed)")
        )
    spec = ck.field("conv_spec", _conv_spec)
    params = ck.require(model_param_shapes(enc_cfg.dim, spec))
    stats = ck.field("heuristic_stats", _heuristic_stats)
    cfg = ck.field("model_config", lambda d: ModelConfig(**d))
    return ModelBundle(params, stats, found, cfg, spec)


# -- inference and pair assembly ------------------------------------------


@dataclass(frozen=True)
class IssueSolutionPair:
    community_id: str
    subject_id: int
    issue_text: str
    solutions: tuple  # of dicts {text, author, time, p}
    status: str
    p_issue: float


# Example rows (a head plus its body) per extraction chunk. Larger chunks
# pass faster but hold more temporaries. On the bench's `extract` inputs
# (400 utterances; 2-core Xeon, one BLAS thread) a pass took 0.78 s with one
# dialog per chunk, 0.68 s at 8 rows, 0.60 s at 16 and 0.50 s at 32 or 64,
# and the bench's peak RSS read 54.6-57.2 MB (median 56.2) at 16 rows and
# 57.3-59.9 MB at 32, against 55.0-55.3 MB before chunked extraction.
_EXTRACT_ROWS = 16


def _dialog_chunks(log, dialogs):
    """Runs of consecutive dialogs, as (dialog, head/body split) lists of at
    most _EXTRACT_ROWS example rows, or of one larger dialog."""
    chunk, rows = [], 0
    for dialog in dialogs:
        parts = split_head_body(dialog, log)
        size = 1 + len(parts.body_indices)
        if chunk and rows + size > _EXTRACT_ROWS:
            yield chunk
            chunk, rows = [], 0
        chunk.append((dialog, parts))
        rows += size
    if chunk:
        yield chunk


def extract_pairs(log, dialogs, issue_bundle, solution_bundle, cfg, enc_cfg):
    """The pairs of ``log``'s dialogs, in dialog order: one per dialog whose
    head reaches cfg.issue_threshold, holding the body utterances that reach
    cfg.solution_threshold, in order. A chunk of dialogs is scored at a
    time: one issue forward over its heads, then one solution forward over
    the bodies of the heads that pass."""
    embedder = DialogEmbedder(log, enc_cfg)
    utts = log.utterances
    pairs = []
    for chunk in _dialog_chunks(log, dialogs):
        embedded = [embedder.examples_for(dialog, parts) for dialog, parts in chunk]
        p_issue = issue_bundle.proba([head for head, _ in embedded]).tolist()
        passed = [i for i, p in enumerate(p_issue) if p >= cfg.issue_threshold]
        bodies = [ex for i in passed for ex in embedded[i][1]]
        p_body = iter(solution_bundle.proba(bodies).tolist())
        for i in passed:
            (dialog, parts), (_, body) = chunk[i], embedded[i]
            solutions = []
            # zip reads the body first, so it stops at the body's end
            for ex, p in zip(body, p_body):
                if p >= cfg.solution_threshold:
                    u = utts[ex.utt_index]
                    solutions.append(
                        {"text": u.raw_text, "author": u.author_id, "time": u.time,
                         "p": round(p, 6)}
                    )
            pairs.append(
                IssueSolutionPair(
                    community_id=log.community_id,
                    subject_id=dialog.subject,
                    issue_text="\n".join(utts[j].raw_text for j in parts.head_indices),
                    solutions=tuple(solutions),
                    status="answered" if solutions else "unresolved",
                    p_issue=round(p_issue[i], 6),
                )
            )
    return pairs


def pairs_to_jsonl(pairs):
    return jsonl_text(asdict(pair) for pair in pairs)
