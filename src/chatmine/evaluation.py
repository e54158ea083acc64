"""Cross-project splits and evaluation, and precision/recall/F1.

Issue metrics count dialogs; solution metrics pool every body utterance of
the gold issue dialogs within a community. Cross-project evaluation holds
out one project per fold and trains on the rest; fold metrics are macro
averaged and labeled as such.
"""

from dataclasses import dataclass

import numpy as np

from . import model
from .errors import ContractViolation, DataError
from .features import ConvStackSpec


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ContractViolation("confusion counts must be nonnegative")


def compute_prf(c):
    """(precision, recall, F1), with 0/0 collapsing to 0 by convention."""
    p = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
    r = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def cross_project_split(projects):
    """One (test_project, train_projects) fold per project, testing on it and
    training on all others; ``projects`` iterates over the project ids."""
    ids = list(projects)
    if len(set(ids)) != len(ids):
        raise DataError("duplicate project ids")
    if len(ids) < 2:
        raise DataError(f"cross-project split needs >= 2 projects, got {len(ids)}")
    return tuple((test, tuple(p for p in ids if p != test)) for test in ids)


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


def cross_project_evaluate(corpus, cfg, enc_cfg, conv_spec=ConvStackSpec()):
    """The full leave-one-project-out report: per-fold P/R/F1 plus the
    macro average over folds, per target. The corpus is embedded once; each
    fold trains both models on its training projects' examples and measures
    them on the held-out project's. Balancing (when enabled in cfg) touches
    training data only."""
    examples = model.build_examples(corpus, enc_cfg)
    per_fold = {}
    for test_project, train_projects in cross_project_split(corpus.logs):
        results = per_fold[test_project] = {}
        for target in model.TARGETS:
            train = [ex for ex in examples[target] if ex.community_id in train_projects]
            test = [ex for ex in examples[target] if ex.community_id == test_project]
            bundle = model.train_model(train, target, cfg, enc_cfg, conv_spec)
            counts = confusion_from_examples(test, bundle, getattr(cfg, f"{target}_threshold"))
            p, r, f1 = compute_prf(counts)
            results[target] = {
                "P": p,
                "R": r,
                "F1": f1,
                "counts": {"tp": counts.tp, "fp": counts.fp, "fn": counts.fn, "tn": counts.tn},
            }
    macro = {}
    for target in model.TARGETS:
        for metric in ("P", "R", "F1"):
            vals = [per_fold[p][target][metric] for p in per_fold]
            macro.setdefault(target, {})[metric] = float(np.mean(vals))
    return {"per_fold": per_fold, "macro_average": macro, "averaging": "macro"}
