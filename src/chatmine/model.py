"""The two dialog classifiers and the end-to-end pair extraction pipeline.

Both models share one architecture over a 413-wide fused embedding: three
convolution-pooling stages over the utterance vector (1024/512/256 kernels),
29 standardized heuristic attributes, and a 128-wide local-attention context,
followed by 413→64→2 fully connected layers with softmax. The issue model
reads the dialog head through the window [pad, head, first body utterance];
the solution model reads each body utterance through its radius-1 window.

One batched forward serves training, evaluation and extraction: each
mini-batch, validation split, test fold or dialog's replies is one graph.

Training uses Adam on mini-batches of 8 examples with dropout 0.6 after each
conv stage and the first FC layer, a seeded 10% validation split, and early
stopping with patience 5 within at most 100 epochs. Everything is a pure
function of (data, config, seed).
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import checkpoint as ckpt_io
from . import encoder as enc
from . import nn
from .corpus import ChatLog, preprocess_utterance, raw_message
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
        for name in ("issue_threshold", "solution_threshold"):
            t = getattr(self, name)
            if not 0.2 <= t <= 0.8:
                raise ConfigError(f"{name} must be in [0.2, 0.8], got {t}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if not 0.0 < self.lr < np.inf:
            raise ConfigError(f"lr must be a positive finite number, got {self.lr}")


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
    from pathlib import Path

    p = Path(path)
    if not p.is_file():
        raise DataError(f"labeled dialogs not found: {p}")
    logs = {}
    dialogs = []
    for line_no, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{p}:{line_no}: invalid json") from exc
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
            u = preprocess_utterance(raw, pre_cfg, index=len(log.utterances))
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


class DialogEmbedder:
    """Precomputes per-chat utterance vectors and topic statistics, then
    yields (head example, body examples) per dialog. Pure and reusable
    across dialogs of the same chat."""

    def __init__(self, chat, enc_cfg):
        self.chat = chat
        self.enc_cfg = enc_cfg
        self.lex = load_heuristic_lexicons()
        self.stats = TopicStats(chat)
        self.vecs = {u.index: enc.encode_tokens(u.tokens, enc_cfg) for u in chat.utterances}

    def examples_for(self, dialog, parts, y_issue=-1, y_solution=()):
        """(head example, body examples) of one dialog, given its head/body
        split ``parts``."""
        if not parts.head_indices:
            raise ContractViolation("dialog head is empty")
        if len(parts.head_indices) == 1:  # its tokens are that utterance's
            head_vec = self.vecs[parts.head_indices[0]]
        else:
            head_vec = enc.encode_tokens(parts.head_tokens, self.enc_cfg)
        seq = np.stack([head_vec] + [self.vecs[i] for i in parts.body_indices])
        windows, pad_mask = enc.local_windows(seq, self.enc_cfg.window_k)
        heur = heuristic_attributes(dialog, parts, self.chat, self.stats, self.lex)
        indices = [dialog.subject, *parts.body_indices]
        labels = [y_issue, *y_solution] + [-1] * (len(indices) - 1 - len(y_solution))
        examples = [
            EmbeddedExample(window, mask, row, label, i)
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
    draws of a one-row forward after i rows' worth."""
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


def build_examples(corpus, target, enc_cfg):
    """Flatten the labeled corpus into classifier examples. Issue: one per
    dialog, labeled with y_issue. Solution: one per body utterance of
    issue-positive dialogs, labeled with y_solution."""
    if target not in TARGETS:
        raise ConfigError(f"unknown target {target!r}")
    embedders = {cid: DialogEmbedder(log, enc_cfg) for cid, log in corpus.logs.items()}
    examples = []
    for ld in corpus.dialogs:
        emb = embedders[ld.community_id]
        head_ex, body_exs = emb.examples_for(ld.dialog, ld.parts, ld.y_issue, ld.y_solution)
        if target == "issue":
            examples.append(head_ex)
        elif ld.y_issue == 1:
            examples.extend(body_exs)
    return examples


def train_model(
    corpus,
    target,
    cfg,
    enc_cfg=None,
    conv_spec=None,
    log_fn=None,
):
    """Fit one model; bit-reproducible given (corpus, target, cfg). Raises a
    data error when the training examples are single-class, or when the
    validation split would leave them single-class."""
    from .evaluation import bootstrap_balance

    enc_cfg = enc_cfg if enc_cfg is not None else enc.EncoderConfig()
    conv_spec = conv_spec if conv_spec is not None else ConvStackSpec()
    examples = build_examples(corpus, target, enc_cfg)
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


def extract_pairs_for_dialog(dialog, embedder, issue_bundle, solution_bundle, cfg=None):
    """None when the issue gate rejects the dialog's head; otherwise the
    pair with the body utterances whose solution probability reaches the
    threshold, in chronological order. Thresholds come from ``cfg`` when
    given, else from each bundle's own config; both gates are inclusive."""
    issue_thr = (cfg or issue_bundle.cfg).issue_threshold
    sol_thr = (cfg or solution_bundle.cfg).solution_threshold
    chat = embedder.chat
    parts = split_head_body(dialog, chat)
    head_ex, body_exs = embedder.examples_for(dialog, parts)
    p_issue = float(issue_bundle.proba([head_ex])[0])
    if p_issue < issue_thr:
        return None
    solutions = []
    for ex, p in zip(body_exs, solution_bundle.proba(body_exs).tolist()):
        if p >= sol_thr:
            u = chat.utterances[ex.utt_index]
            solutions.append(
                {"text": u.raw_text, "author": u.author_id, "time": u.time, "p": round(p, 6)}
            )
    return IssueSolutionPair(
        community_id=chat.community_id,
        subject_id=dialog.subject,
        issue_text="\n".join(chat.utterances[i].raw_text for i in parts.head_indices),
        solutions=tuple(solutions),
        status="answered" if solutions else "unresolved",
        p_issue=round(p_issue, 6),
    )


def assemble_pairs(log, issue_bundle, solution_bundle, scorer, cfg=None, enc_cfg=None):
    """Full pipeline: disentangle, split, gate on the issue model, extract
    solutions. Dialog order follows the subject utterance."""
    from .disentangle import assemble_dialogs

    enc_cfg = enc_cfg if enc_cfg is not None else enc.EncoderConfig()
    embedder = DialogEmbedder(log, enc_cfg)
    pairs = (
        extract_pairs_for_dialog(d, embedder, issue_bundle, solution_bundle, cfg)
        for d in assemble_dialogs(log, scorer)
    )
    return [p for p in pairs if p is not None]


def pairs_to_jsonl(pairs):
    lines = []
    for pair in pairs:
        lines.append(
            json.dumps(
                {
                    "community_id": pair.community_id,
                    "subject_id": pair.subject_id,
                    "issue_text": pair.issue_text,
                    "solutions": list(pair.solutions),
                    "status": pair.status,
                    "p_issue": pair.p_issue,
                },
                sort_keys=True,
                ensure_ascii=False,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
