"""Metric arithmetic against an exact-rational oracle, balancing, splits,
and a small end-to-end fold evaluation."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from chatmine import model as mdl
from chatmine import synth
from chatmine.encoder import EncoderConfig
from chatmine.errors import ContractViolation, DataError
from chatmine.evaluation import (
    ConfusionCounts,
    compute_prf,
    confusion_from_examples,
    cross_project_evaluate,
    cross_project_split,
)
from chatmine.features import ConvStackSpec
from chatmine.model import DialogEmbedder, ModelConfig, bootstrap_balance, build_examples

COMMUNITIES = ("alpha", "beta", "gamma")
TINY_ENC = EncoderConfig(dim=16)
TINY_SPEC = ConvStackSpec(kernel_counts=(4, 4, 256))


# -- precision / recall / F1 ----------------------------------------------


def prf_oracle(tp, fp, fn):
    """Exact-rational metric computation; 0/0 is 0 by convention."""
    p = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    r = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
    f1 = 2 * p * r / (p + r) if p + r else Fraction(0)
    return p, r, f1


def test_prf_closed_forms():
    p, r, f1 = compute_prf(ConfusionCounts(tp=3, fp=1, fn=2, tn=10))
    assert p == pytest.approx(0.75)
    assert r == pytest.approx(0.6)
    assert f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)


def test_prf_zero_conventions():
    assert compute_prf(ConfusionCounts(0, 0, 0, 5)) == (0.0, 0.0, 0.0)
    assert compute_prf(ConfusionCounts(0, 3, 0, 5)) == (0.0, 0.0, 0.0)
    assert compute_prf(ConfusionCounts(0, 0, 4, 5)) == (0.0, 0.0, 0.0)
    assert compute_prf(ConfusionCounts(7, 0, 0, 0)) == (1.0, 1.0, 1.0)


def test_prf_matches_rational_oracle_on_random_tables():
    rng = np.random.default_rng(17)
    for _ in range(10):
        tp, fp, fn, tn = (int(x) for x in rng.integers(0, 40, size=4))
        got = compute_prf(ConfusionCounts(tp, fp, fn, tn))
        want = prf_oracle(tp, fp, fn)
        for g, w in zip(got, want):
            assert g == pytest.approx(float(w), abs=1e-12)


def test_f1_lies_between_precision_and_recall():
    rng = np.random.default_rng(23)
    for _ in range(50):
        tp, fp, fn = (int(x) for x in rng.integers(0, 30, size=3))
        p, r, f1 = compute_prf(ConfusionCounts(tp, fp, fn, 0))
        assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12


def test_confusion_counts_reject_negative_counts():
    with pytest.raises(ContractViolation):
        ConfusionCounts(tp=-1)


# -- balancing -------------------------------------------------------------


class Item:
    def __init__(self, y):
        self.y_issue = y


def by_issue(item):
    return item.y_issue


def test_bootstrap_balance_equalizes_and_keeps_originals():
    items = [Item(1) for _ in range(20)] + [Item(0) for _ in range(60)]
    out = bootstrap_balance(items, seed=0, label=by_issue)
    pos = [it for it in out if it.y_issue == 1]
    neg = [it for it in out if it.y_issue == 0]
    assert len(pos) == len(neg) == 60
    assert out[:80] == items  # originals first, in order
    assert all(it in items[:20] for it in out[80:])


def test_bootstrap_balance_deterministic_per_seed():
    items = [Item(1) for _ in range(3)] + [Item(0) for _ in range(9)]
    a = bootstrap_balance(items, seed=5, label=by_issue)
    b = bootstrap_balance(items, seed=5, label=by_issue)
    c = bootstrap_balance(items, seed=6, label=by_issue)
    assert [id(x) for x in a] == [id(x) for x in b]
    assert [id(x) for x in a] != [id(x) for x in c]


def test_bootstrap_balance_noop_when_already_balanced():
    items = [Item(1), Item(0)]
    out = bootstrap_balance(items, seed=0, label=by_issue)
    assert out == items
    assert out is not items


def test_bootstrap_balance_requires_both_classes():
    with pytest.raises(DataError):
        bootstrap_balance([Item(1), Item(1)], seed=0, label=by_issue)


def test_bootstrap_balance_custom_label():
    class Ex:
        def __init__(self, label):
            self.label = label

    items = [Ex(1)] * 2 + [Ex(0)] * 5
    out = bootstrap_balance(items, seed=1, label=lambda e: e.label)
    assert sum(e.label for e in out) == 5


# -- splits ----------------------------------------------------------------


def test_cross_project_split_shapes():
    folds = cross_project_split(["p1", "p2", "p3"])
    assert len(folds) == 3
    for test, train in folds:
        assert test not in train
        assert len(train) == 2
        assert set(train) | {test} == {"p1", "p2", "p3"}


def test_cross_project_split_two_projects():
    assert cross_project_split({"a": 1, "b": 2}) == (("a", ("b",)), ("b", ("a",)))


def test_cross_project_split_rejects_bad_input():
    with pytest.raises(DataError):
        cross_project_split(["only"])
    with pytest.raises(DataError):
        cross_project_split(["a", "a"])


# -- end-to-end fold evaluation --------------------------------------------


def test_confusion_from_examples_uses_threshold(labeled_corpus, small_bundles, small_enc, monkeypatch):
    examples = build_examples(labeled_corpus, small_enc)["issue"][:6]
    probs = iter([0.9, 0.6, 0.4, 0.3, 0.5, 0.1])
    fixed = {id(ex): p for ex, p in zip(examples, [0.9, 0.6, 0.4, 0.3, 0.5, 0.1])}
    monkeypatch.setattr(
        mdl.ModelBundle, "proba", lambda self, exs: np.array([fixed[id(ex)] for ex in exs])
    )
    c = confusion_from_examples(examples, small_bundles["issue"], threshold=0.5)
    # 0.9, 0.6, 0.5 clear the bar; gold labels decide tp vs fp
    picked = [ex for ex in examples if fixed[id(ex)] >= 0.5]
    want_tp = sum(1 for ex in picked if ex.label == 1)
    assert c.tp == want_tp
    assert c.tp + c.fp == 3
    assert c.tp + c.fp + c.fn + c.tn == 6


def test_cross_project_evaluate_report_shape(labeled_corpus):
    report = cross_project_evaluate(
        labeled_corpus,
        ModelConfig(max_epochs=2, patience=2, seed=0),
        enc_cfg=EncoderConfig(dim=32),
        conv_spec=ConvStackSpec(kernel_counts=(8, 8, 256)),
    )
    assert report["averaging"] == "macro"
    assert set(report["per_fold"]) == {"alpha", "beta"}
    for fold in report["per_fold"].values():
        for target in ("issue", "solution"):
            block = fold[target]
            assert set(block) == {"P", "R", "F1", "counts"}
            assert 0.0 <= block["F1"] <= 1.0
            counts = block["counts"]
            assert min(counts.values()) >= 0
    for target in ("issue", "solution"):
        got = report["macro_average"][target]["F1"]
        want = np.mean([report["per_fold"][p][target]["F1"] for p in ("alpha", "beta")])
        assert got == pytest.approx(float(want))


@pytest.fixture(scope="module")
def three_communities(tmp_path_factory, pre_cfg):
    """30 labeled dialogs over three communities, ten each."""
    path = tmp_path_factory.mktemp("three") / "labeled.jsonl"
    synth.write_labeled_jsonl(synth.synth_labeled_records(30, 3, communities=COMMUNITIES), path)
    return mdl.load_labeled_dialogs(path, pre_cfg)


def test_cross_project_evaluate_embeds_each_dialog_once(three_communities, monkeypatch):
    calls = Counter()
    init, examples_for = DialogEmbedder.__init__, DialogEmbedder.examples_for

    def counted_init(self, chat, enc_cfg):
        calls["init", chat.community_id] += 1
        init(self, chat, enc_cfg)

    def counted_examples_for(self, *a, **k):
        calls["examples_for"] += 1
        return examples_for(self, *a, **k)

    monkeypatch.setattr(DialogEmbedder, "__init__", counted_init)
    monkeypatch.setattr(DialogEmbedder, "examples_for", counted_examples_for)
    report = cross_project_evaluate(
        three_communities, ModelConfig(max_epochs=1, patience=1), TINY_ENC, TINY_SPEC
    )
    assert set(report["per_fold"]) == set(COMMUNITIES)
    assert calls == {
        **{("init", c): 1 for c in COMMUNITIES},
        "examples_for": len(three_communities.dialogs),
    }


def test_each_fold_trains_on_its_training_projects_and_tests_on_its_own(three_communities, monkeypatch):
    calls = []

    def rows(examples):
        return [(ex.community_id, ex.utt_index, ex.label) for ex in examples]

    class StubBundle:
        def proba(self, examples):
            calls.append(("test", rows(examples)))
            return np.zeros(len(examples))

    def stub_train(examples, target, cfg, enc_cfg, conv_spec):
        calls.append((target, rows(examples)))
        return StubBundle()

    monkeypatch.setattr(mdl, "train_model", stub_train)
    cross_project_evaluate(three_communities, ModelConfig(), TINY_ENC, TINY_SPEC)

    # the reference lists, in file order, read straight off the labeled dialogs
    want = {"issue": [], "solution": []}
    for ld in three_communities.dialogs:
        want["issue"].append((ld.community_id, ld.dialog.subject, ld.y_issue))
        body = zip(ld.dialog.body_indices, ld.y_solution)
        want["solution"] += [(ld.community_id, i, y) for i, y in body]
    expected = []
    for test_project, train_projects in cross_project_split(COMMUNITIES):
        for target in ("issue", "solution"):
            expected.append((target, [r for r in want[target] if r[0] in train_projects]))
            expected.append(("test", [r for r in want[target] if r[0] == test_project]))
    assert calls == expected
