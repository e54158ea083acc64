"""Dataset balancing, cross-project splits, and precision/recall/F1.

Issue metrics count dialogs; solution metrics pool every body utterance of
the gold issue dialogs within a community. Cross-project evaluation holds
out one project per fold and trains on the rest; fold metrics are macro
averaged and labeled as such.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, DataError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ContractViolation("confusion counts must be nonnegative")

    def __add__(self, other):
        return ConfusionCounts(
            self.tp + other.tp,
            self.fp + other.fp,
            self.fn + other.fn,
            self.tn + other.tn,
        )


def compute_prf(c):
    """(precision, recall, F1), with 0/0 collapsing to 0 by convention."""
    p = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
    r = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def bootstrap_balance(items, seed, label=None):
    """Resample the minority class with replacement (seeded) until the class
    counts match. All originals are retained; order is originals first, then
    the resampled extras."""
    if label is None:
        label = lambda d: d.y_issue
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


@dataclass(frozen=True)
class CrossProjectSplit:
    folds: tuple  # of (test_project, train_projects)


def cross_project_split(projects):
    """One fold per project, testing on it and training on all others.
    Accepts a dict keyed by project or an iterable of project ids."""
    ids = list(projects.keys()) if isinstance(projects, dict) else list(projects)
    if len(set(ids)) != len(ids):
        raise DataError("duplicate project ids")
    if len(ids) < 2:
        raise DataError(f"cross-project split needs >= 2 projects, got {len(ids)}")
    folds = tuple(
        (test, tuple(p for p in ids if p != test)) for test in ids
    )
    return CrossProjectSplit(folds)


# -- model evaluation ------------------------------------------------------


def confusion_from_examples(examples, bundle, threshold):
    """Thresholded predictions against gold labels, from one forward."""
    pred = bundle.proba(examples) >= threshold
    gold = np.array([ex.label == 1 for ex in examples], dtype=bool)
    return ConfusionCounts(
        tp=int(np.sum(pred & gold)),
        fp=int(np.sum(pred & ~gold)),
        fn=int(np.sum(~pred & gold)),
        tn=int(np.sum(~pred & ~gold)),
    )


def _subset(corpus, projects):
    from .model import LabeledCorpus

    keep = set(projects)
    return LabeledCorpus(
        logs={cid: log for cid, log in corpus.logs.items() if cid in keep},
        dialogs=[d for d in corpus.dialogs if d.community_id in keep],
    )


def evaluate_fold(corpus, test_project, train_projects, cfg, enc_cfg=None, conv_spec=None):
    """Train both models on the training projects, measure on the held-out
    one. Balancing (when enabled in cfg) touches training data only."""
    from . import encoder as enc
    from .features import ConvStackSpec
    from .model import build_examples, train_model

    enc_cfg = enc_cfg if enc_cfg is not None else enc.EncoderConfig()
    conv_spec = conv_spec if conv_spec is not None else ConvStackSpec()
    train_corpus = _subset(corpus, train_projects)
    test_corpus = _subset(corpus, [test_project])
    results = {}
    for target, threshold_name in (("issue", "issue_threshold"), ("solution", "solution_threshold")):
        bundle = train_model(train_corpus, target, cfg, enc_cfg, conv_spec)
        examples = build_examples(test_corpus, target, enc_cfg)
        counts = confusion_from_examples(
            examples, bundle, getattr(cfg, threshold_name)
        )
        p, r, f1 = compute_prf(counts)
        results[target] = {
            "P": p,
            "R": r,
            "F1": f1,
            "counts": {"tp": counts.tp, "fp": counts.fp, "fn": counts.fn, "tn": counts.tn},
        }
    return results


def cross_project_evaluate(corpus, cfg, enc_cfg=None, conv_spec=None):
    """The full leave-one-project-out report: per-fold P/R/F1 plus the
    macro average over folds, per target."""
    split = cross_project_split(corpus.logs)
    per_fold = {}
    for test_project, train_projects in split.folds:
        per_fold[test_project] = evaluate_fold(
            corpus, test_project, train_projects, cfg, enc_cfg, conv_spec
        )
    macro = {}
    for target in ("issue", "solution"):
        for metric in ("P", "R", "F1"):
            vals = [per_fold[p][target][metric] for p in per_fold]
            macro.setdefault(target, {})[metric] = float(np.mean(vals))
    return {"per_fold": per_fold, "macro_average": macro, "averaging": "macro"}
