"""Release gate: one test per acceptance criterion.

Each test states its criterion in the docstring and carries its own oracle;
tolerances are pinned here, not imported. The conftest summary hook prints
one [ACCEPTANCE] line per test at the end of the run.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from chatmine import cli, features as ft, nn, synth
from chatmine.corpus import ChatLog, PreprocessConfig, Utterance
from chatmine.disentangle import (
    assemble_dialogs,
    heuristic_link_scorer,
    split_head_body,
)
from chatmine.encoder import EncoderConfig, local_windows
from chatmine.evaluation import (
    ConfusionCounts,
    compute_prf,
    confusion_from_examples,
    cross_project_split,
)
from chatmine.model import (
    DialogEmbedder,
    ModelConfig,
    build_examples,
    extract_pairs,
    train_model,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def _window(seq, center, k):
    """The window around ``center`` of a sequence of vectors, as a one-row
    batch of (windows, pad mask)."""
    windows, mask = local_windows(np.stack(seq), k)
    return windows[center : center + 1], mask[center : center + 1]


def test_c01_scope_and_limitations_documented():
    """No external benchmark corpus ships with the repository, so published
    quality figures are out of scope; the README must say so explicitly and
    point at the property-based gates that replace them."""
    assert README.exists(), "README.md is missing"
    text = README.read_text().lower()
    assert "scope" in text or "limitation" in text
    assert "synthetic" in text, "README must state that the bundled corpus is synthetic"
    assert "benchmark" in text, "README must address external benchmark figures"
    assert "property" in text, "README must point at the property-based acceptance tests"


def test_c02_gradient_checks_all_fragments_three_seeds(standard_gradchecks):
    """Central finite differences vs analytic gradients for every computation
    fragment (linear+CE over a batch; conv-pool over two rows, over more
    than one kernel block, over sparse rows and scoring only the outputs a
    dropout keeps, its input's gradient checked too; batched link MLP; softmax+CE over a batch; local attention over
    batches with padded windows and a row on the uniform fallback; 413-64-2
    head) at seeds 1..3: max relative error < 1e-4 at 64-bit, total runtime
    under 60 seconds. The reports come from the session's one run of the
    standard checks, timed where it ran."""
    reports = standard_gradchecks["reports"]
    elapsed = standard_gradchecks["seconds"]
    assert len(reports) == 30  # 10 fragments x 3 seeds
    for r in reports:
        assert r.tolerance == 1e-4
        assert r.passed, f"{r.fragment} seed {r.seed}: {r.max_rel_error} at {r.worst_param}"
        assert r.max_rel_error < 1e-4
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"


def test_c03_block_widths_and_attention_weight_normalization():
    """At full scale the fused vector is 256 + 29 + 128 = 413 wide, and the
    attention weights over the live window slots always sum to one (the
    Gaussian damping at the center slot is exactly 1)."""
    rng = np.random.default_rng(11)

    # widths on a full-size utterance vector
    spec = ft.ConvStackSpec()
    assert spec.kernel_counts == (1024, 512, 256)
    conv = ft.init_conv_params(rng, spec, 800)
    textual = ft.textual_features(rng.normal(size=(1, 800)), spec, conv)
    assert textual.data.shape == (1, ft.TEXTUAL_DIM) == (1, 256)

    heur = np.zeros((1, ft.HEURISTIC_DIM))
    assert heur.shape == (1, 29)

    att = ft.init_attention_params(rng, input_dim=800)
    win = _window([rng.normal(size=800) for _ in range(3)], 1, k=1)
    ctx = ft.local_attention(*win, att)
    assert ctx.data.shape == (1, ft.CONTEXT_DIM) == (1, 128)

    fused = ft.fuse_features(textual, heur, ctx)
    assert fused.data.shape == (1, ft.FUSED_DIM) == (1, 413)

    # weight normalization, recovered through the public output: with
    # Wv = I the context times sqrt(d) is the weighted sum of the slot
    # vectors, so least squares on independent slots returns the weights.
    dim = 6
    eye = nn.Parameter("attn.wv", np.eye(dim))
    for case in range(40):
        crng = np.random.default_rng(300 + case)
        k = 1 if case % 2 == 0 else 2
        sign = -1.0 if case % 5 == 0 else 1.0  # forces the uniform branch too
        params = {
            "attn.wq": nn.Parameter("attn.wq", crng.normal(size=(dim, dim))),
            "attn.wk": nn.Parameter("attn.wk", sign * crng.normal(size=(dim, dim))),
            "attn.wv": eye,
        }
        n = crng.integers(1, 2 * k + 2)  # short sequences exercise padding
        seq = [crng.normal(size=dim) for _ in range(n)]
        center = int(crng.integers(n))
        vectors, pad_mask = _window(seq, center, k)
        ctx = ft.local_attention(vectors, pad_mask, params)
        live = [vectors[0, s] for s in range(2 * k + 1) if pad_mask[0, s]]
        weights, *_ = np.linalg.lstsq(
            np.stack(live, axis=1), ctx.data[0] * math.sqrt(dim), rcond=None
        )
        assert abs(weights.sum() - 1.0) <= 1e-9

    # a single live slot must pass through with weight exactly 1
    params = {
        "attn.wq": nn.Parameter("attn.wq", rng.normal(size=(dim, dim))),
        "attn.wk": nn.Parameter("attn.wk", rng.normal(size=(dim, dim))),
        "attn.wv": eye,
    }
    v = rng.normal(size=dim)
    ctx = ft.local_attention(*_window([v], 0, k=1), params)
    assert np.array_equal(ctx.data[0], v * (1.0 / math.sqrt(dim)))
    assert math.exp(-0.0) == 1.0


def _equal_dot_weights():
    """Three-slot window where every query-key dot is 1 and the values are
    the standard basis, so the context times sqrt(3) IS the weight vector."""
    proj = np.zeros((3, 4))
    proj[0, 0] = 1.0
    selector = np.zeros((3, 4))
    selector[0, 1] = selector[1, 2] = selector[2, 3] = 1.0
    params = {
        "attn.wq": nn.Parameter("attn.wq", proj),
        "attn.wk": nn.Parameter("attn.wk", proj.copy()),
        "attn.wv": nn.Parameter("attn.wv", selector),
    }
    vecs = [
        np.array([1.0, 1.0, 0.0, 0.0]),
        np.array([1.0, 0.0, 1.0, 0.0]),
        np.array([1.0, 0.0, 0.0, 1.0]),
    ]
    ctx = ft.local_attention(*_window(vecs, 1, k=1), params)
    return ctx.data[0] * math.sqrt(4.0)  # undo the 1/sqrt(input width) scale


def test_c04_center_weight_closed_form():
    """k=1, all query-key dots equal: the damping factors are
    (e^-1/2, 1, e^-1/2), so the center weight is 1 / (1 + 2 e^-1/2).
    Hand value, tolerance 1e-9."""
    a = _equal_dot_weights()
    g = math.exp(-0.5)
    assert abs(a[1] - 1.0 / (1.0 + 2.0 * g)) <= 1e-9
    # full weight vector and the center-to-neighbor ratio e^(1/2)
    np.testing.assert_allclose(a, np.array([g, 1.0, g]) / (1.0 + 2.0 * g), atol=1e-12)
    assert abs(a[1] / a[0] - math.exp(0.5)) <= 1e-12
    assert abs(a.sum() - 1.0) <= 1e-12


# -- criterion 5: hand-labeled attribute fixture ---------------------------

_LEX = ft.HeuristicLexicons(
    greetings=("hello there",),
    disapproval=("does not work",),
    word_class={"great": "pos", "broken": "neg", "fail": "neg", "fine": "neu"},
    emoji_class={"[EMOJI_POS]": "pos", "[EMOJI_NEG]": "neg"},
)

# (author, clean_text, tokens); three dialogs sized 10 / 6 / 4
_FIXTURE = (
    ("nora", "why does the deploy fail ?", ("why", "deploy", "fail", "?")),
    ("omar", "hello there nora", ("hello", "nora")),
    ("pria", "it does not work for me [EMOJI_NEG]", ("work", "[EMOJI_NEG]")),
    ("omar", "similar issue on my machine", ("similar", "issue", "machine")),
    ("nora", "same here with version two", ("same", "version", "two")),
    ("quin", "what port does it use ?", ("what", "port", "use", "?")),
    ("omar", "run runs running", ("run", "runs", "running")),
    ("pria", "great fix broken fail fine", ("great", "fix", "broken", "fail", "fine")),
    ("quin", "check the server logs now !", ("check", "server", "logs", "!")),
    ("nora", "thanks all fixed now", ("thanks", "fixed")),
    ("sam", "how do i install the linter ?", ("how", "install", "linter", "?")),
    ("tess", "pip install the linter package", ("pip", "install", "linter", "package")),
    ("sam", "that does the trick [EMOJI_POS]", ("trick", "[EMOJI_POS]")),
    ("tess", "when will the release land ?", ("when", "release", "land", "?")),
    ("uma", "who owns the release notes", ("who", "owns", "release", "notes")),
    ("sam", "which branch has the fix", ("which", "branch", "fix")),
    ("vik", "the cache keeps crashing", ("cache", "keeps", "crashing")),
    ("wes", "hello hello restart the cache", ("hello", "hello", "restart", "cache")),
    ("vik", "still crashing after the restart", ("crashing", "restart")),
    ("wes", "", ()),
)

_MEMBERS = (tuple(range(10)), tuple(range(10, 16)), tuple(range(16, 20)))

# hand-filled per-utterance expectations; None marks the two topic-deviation
# slots, which are checked against the brute-force oracle instead.
_T, _U = None, None
_EXPECTED = {
    #    what why when who which how  ?  !  gr dis sim sam  NT NUT NST  AP  RP   TDH TDU  SSp  SSu  SSn  SWp SWu SWn SEp SEu SEn ini
    0:  (0, 1, 0, 0, 0, 0,  1, 0,  0, 0, 0, 0,  4, 4, 4,  1, 1 / 10,  _T, _U,  0.0, 0.0, 1 / 4,  0, 0, 1,  0, 0, 0,  1),
    1:  (0, 0, 0, 0, 0, 0,  0, 0,  1, 0, 0, 0,  2, 2, 2,  2, 2 / 10,  _T, _U,  0.0, 0.0, 0.0,    0, 0, 0,  0, 0, 0,  0),
    2:  (0, 0, 0, 0, 0, 0,  0, 0,  0, 1, 0, 0,  2, 2, 2,  3, 3 / 10,  _T, _U,  0.0, 0.0, 1 / 2,  0, 0, 0,  0, 0, 1,  0),
    3:  (0, 0, 0, 0, 0, 0,  0, 0,  0, 0, 1, 0,  3, 3, 3,  4, 4 / 10,  _T, _U,  0.0, 0.0, 0.0,    0, 0, 0,  0, 0, 0,  0),
    4:  (0, 0, 0, 0, 0, 0,  0, 0,  0, 0, 0, 1,  3, 3, 3,  5, 5 / 10,  _T, _U,  0.0, 0.0, 0.0,    0, 0, 0,  0, 0, 0,  1),
    5:  (1, 0, 0, 0, 0, 0,  1, 0,  0, 0, 0, 0,  4, 4, 4,  6, 6 / 10,  _T, _U,  0.0, 0.0, 0.0,    0, 0, 0,  0, 0, 0,  0),
    6:  (0, 0, 0, 0, 0, 0,  0, 0,  0, 0, 0, 0,  3, 3, 1,  7, 7 / 10,  _T, _U,  0.0, 0.0, 0.0,    0, 0, 0,  0, 0, 0,  0),
    7:  (0, 0, 0, 0, 0, 0,  0, 0,  0, 0, 0, 0,  5, 5, 5,  8, 8 / 10,  _T, _U,  1 / 5, 1 / 5, 2 / 5,  1, 1, 2,  0, 0, 0,  0),
    8:  (0, 0, 0, 0, 0, 0,  0, 1,  0, 0, 0, 0,  4, 4, 4,  9, 9 / 10,  _T, _U,  0.0, 0.0, 0.0,    0, 0, 0,  0, 0, 0,  0),
    9:  (0, 0, 0, 0, 0, 0,  0, 0,  0, 0, 0, 0,  2, 2, 2,  10, 1.0,   _T, _U,  0.0, 0.0, 0.0,    0, 0, 0,  0, 0, 0,  1),
    10: (0, 0, 0, 0, 0, 1,  1, 0,  0, 0, 0, 0,  4, 4, 4,  1, 1 / 6,  _T, _U,  0.0, 0.0, 0.0,    0, 0, 0,  0, 0, 0,  1),
    11: (0, 0, 0, 0, 0, 0,  0, 0,  0, 0, 0, 0,  4, 4, 4,  2, 2 / 6,  _T, _U,  0.0, 0.0, 0.0,    0, 0, 0,  0, 0, 0,  0),
    12: (0, 0, 0, 0, 0, 0,  0, 0,  0, 0, 0, 0,  2, 2, 2,  3, 3 / 6,  _T, _U,  1 / 2, 0.0, 0.0,  0, 0, 0,  1, 0, 0,  1),
    13: (0, 0, 1, 0, 0, 0,  1, 0,  0, 0, 0, 0,  4, 4, 4,  4, 4 / 6,  _T, _U,  0.0, 0.0, 0.0,    0, 0, 0,  0, 0, 0,  0),
    14: (0, 0, 0, 1, 0, 0,  0, 0,  0, 0, 0, 0,  4, 4, 4,  5, 5 / 6,  _T, _U,  0.0, 0.0, 0.0,    0, 0, 0,  0, 0, 0,  0),
    15: (0, 0, 0, 0, 1, 0,  0, 0,  0, 0, 0, 0,  3, 3, 3,  6, 6 / 6,  _T, _U,  0.0, 0.0, 0.0,    0, 0, 0,  0, 0, 0,  1),
    16: (0, 0, 0, 0, 0, 0,  0, 0,  0, 0, 0, 0,  3, 3, 3,  1, 1 / 4,  _T, _U,  0.0, 0.0, 0.0,    0, 0, 0,  0, 0, 0,  1),
    17: (0, 0, 0, 0, 0, 0,  0, 0,  0, 0, 0, 0,  4, 3, 3,  2, 2 / 4,  _T, _U,  0.0, 0.0, 0.0,    0, 0, 0,  0, 0, 0,  0),
    18: (0, 0, 0, 0, 0, 0,  0, 0,  0, 0, 0, 0,  2, 2, 2,  3, 3 / 4,  _T, _U,  0.0, 0.0, 0.0,    0, 0, 0,  0, 0, 0,  1),
    19: (0, 0, 0, 0, 0, 0,  0, 0,  0, 0, 0, 0,  0, 0, 0,  4, 4 / 4,  _T, _U,  0.0, 0.0, 0.0,    0, 0, 0,  0, 0, 0,  0),
}


def _fixture_chat():
    utts = [
        Utterance(
            index=i, time=i * 1000, author_id=a, raw_text=c, clean_text=c,
            tokens=tuple(toks),
        )
        for i, (a, c, toks) in enumerate(_FIXTURE)
    ]
    log = ChatLog("fixture", utts)
    dialogs = [
        split_head_body(m, tuple((c, m[j]) for j, c in enumerate(m[1:])), log)
        for m in _MEMBERS
    ]
    return log, dialogs


def _tfidf_oracle(tokens, docs):
    if not tokens:
        return {}
    n = len(docs)
    df = {}
    for d in docs:
        for t in set(d):
            df[t] = df.get(t, 0) + 1
    total = len(tokens)
    return {
        t: (tokens.count(t) / total) * (math.log((1 + n) / (1 + df.get(t, 0))) + 1.0)
        for t in set(tokens)
    }


def _top10(weights):
    return {t for t, _ in sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[:10]}


def _deviation_oracle(wa, wb):
    union = _top10(wa) | _top10(wb)
    return math.sqrt(sum((wa.get(t, 0.0) - wb.get(t, 0.0)) ** 2 for t in union))


def test_c05_attribute_fixture_matches_hand_expectations():
    """Every attribute slot of the 20-utterance fixture equals the value
    filled in by hand, including RP = AP / dialog size (AP 2 in the
    ten-member dialog gives 0.20); the two topic-deviation slots match a
    from-scratch TF-IDF oracle within 1e-9."""
    log, dialogs = _fixture_chat()
    docs = [list(u.tokens) for u in log.utterances]
    chat_tokens = [t for d in docs for t in d]
    w_chat = _tfidf_oracle(chat_tokens, docs)

    stats = ft.TopicStats(log)
    rows = {}
    for dialog in dialogs:
        assert dialog.head_indices == (dialog.subject,)  # one-utterance heads only
        w_head = _tfidf_oracle(list(dialog.head_tokens), docs)
        block = ft.heuristic_attributes(dialog, log, stats, _LEX)
        assert block.shape == (len(dialog.members), 29)
        rows[dialog.subject] = dict(zip(dialog.members, block))
        for i, got in rows[dialog.subject].items():
            want = _EXPECTED[i]
            for slot, expect in enumerate(want):
                if expect is None:
                    continue
                assert got[slot] == expect, f"utterance {i} slot {slot}: {got[slot]} != {expect}"
            w_utt = _tfidf_oracle(list(log.utterances[i].tokens), docs)
            assert abs(got[17] - _deviation_oracle(w_chat, w_head)) <= 1e-9
            assert abs(got[18] - _deviation_oracle(w_head, w_utt)) <= 1e-9

    # the worked example: second arrival in a ten-member dialog
    row = rows[dialogs[0].subject][1]
    assert row[15] == 2 and row[16] == 0.20


def test_c06_models_overfit_fixture_corpus(labeled_corpus, trained_full):
    """Both full-width models reach training-set F1 >= 0.95 on the balanced
    40-dialog fixture corpus within the configured epoch budget and under
    ten minutes each, and training is bit-reproducible for a fixed seed."""
    examples = build_examples(labeled_corpus, EncoderConfig())
    for target, threshold in (("issue", 0.5), ("solution", 0.4)):
        res = trained_full[target]
        assert len(res.history) <= ModelConfig().max_epochs
        counts = confusion_from_examples(examples[target], res, threshold)
        _, _, f1 = compute_prf(counts)
        assert f1 >= 0.95, f"{target} training F1 {f1:.3f} ({counts})"
        assert trained_full["seconds"][target] < 600.0

    # determinism probe at reduced width: same seed, same bytes
    cfg = ModelConfig(max_epochs=2, patience=2, seed=3)
    enc16 = EncoderConfig(dim=16)
    spec = ft.ConvStackSpec(kernel_counts=(4, 4, 256))
    issue_exs = build_examples(labeled_corpus, enc16)["issue"]
    runs = [train_model(issue_exs, "issue", cfg, enc16, spec) for _ in range(2)]
    assert runs[0].history == runs[1].history
    for name in runs[0].params:
        assert runs[0].params[name].data.tobytes() == runs[1].params[name].data.tobytes()


def test_c07_issue_gate_blocks_solutions_and_thresholds_are_monotone(small_bundles, small_enc):
    """Over 1,000 randomized fixture logs: a dialog rejected by the issue
    model contributes no pair and no solution lines, every emitted pair
    agrees with an independent re-prediction, and raising either threshold
    never adds output."""
    issue_b, sol_b = small_bundles["issue"], small_bundles["solution"]
    own = ModelConfig(
        issue_threshold=issue_b.cfg.issue_threshold,
        solution_threshold=sol_b.cfg.solution_threshold,
    )
    total_pairs = 0
    for i in range(1000):
        log, _, _ = synth.synth_interleaved(seed=20_000 + i, n_dialogs=1 + i % 3)
        dialogs = assemble_dialogs(log, heuristic_link_scorer)
        pairs = extract_pairs(log, dialogs, issue_b, sol_b, own, small_enc)
        total_pairs += len(pairs)
        by_subject = {p.subject_id: p for p in pairs}
        assert len(by_subject) == len(pairs)

        embedder = DialogEmbedder(log, small_enc)
        assert set(by_subject) <= {d.subject for d in dialogs}
        for d in dialogs:
            head_ex, body_exs = embedder.examples_for(d)
            p_issue = issue_b.proba([head_ex])[0]
            positive = p_issue >= issue_b.cfg.issue_threshold
            assert (d.subject in by_subject) == positive
            if not positive:
                continue
            pair = by_subject[d.subject]
            # one-row forwards, while extraction scores the replies as one batch
            body_p = [(ex.utt_index, float(sol_b.proba([ex])[0])) for ex in body_exs]
            want = [(j, p) for j, p in body_p if p >= sol_b.cfg.solution_threshold]
            body_times = [log.utterances[j].time for j in d.body_indices]
            assert len(pair.solutions) == len(want)
            for sol, (j, p) in zip(pair.solutions, want):
                assert sol["time"] == log.utterances[j].time
                assert sol["p"] == round(p, 6)
                assert sol["time"] in body_times
            assert pair.status == ("answered" if want else "unresolved")
    assert total_pairs > 50  # the sweep must actually exercise the gate

    # monotonicity: stricter thresholds keep a subset of the output
    base = ModelConfig(issue_threshold=0.5, solution_threshold=0.4)
    hard_issue = ModelConfig(issue_threshold=0.6, solution_threshold=0.4)
    hard_sol = ModelConfig(issue_threshold=0.5, solution_threshold=0.5)
    for i in range(100):
        log, _, _ = synth.synth_interleaved(seed=21_000 + i, n_dialogs=2)
        dialogs = assemble_dialogs(log, heuristic_link_scorer)
        got = {
            name: extract_pairs(log, dialogs, issue_b, sol_b, c, small_enc)
            for name, c in (("base", base), ("issue", hard_issue), ("sol", hard_sol))
        }
        subjects = {name: {p.subject_id for p in ps} for name, ps in got.items()}
        assert subjects["issue"] <= subjects["base"]
        assert subjects["sol"] == subjects["base"]  # issue gate unchanged
        base_sols = {
            p.subject_id: {s["time"] for s in p.solutions} for p in got["base"]
        }
        for p in got["sol"]:
            assert {s["time"] for s in p.solutions} <= base_sols[p.subject_id]


def test_c08_disentangling_is_a_partition_and_oracle_links_recover_truth():
    """Random interleavings of 2 to 5 scripted dialogs: the dialog list is
    always a partition of the log, and with a scorer that rates true parents
    1 and everything else 0 the grouping equals the ground truth exactly."""
    for i in range(200):
        n = 2 + i % 4
        log, links, truth = synth.synth_interleaved(seed=40_000 + i, n_dialogs=n)
        all_idx = set(range(len(log.utterances)))

        for scorer in (heuristic_link_scorer, synth.oracle_scorer(links)):
            dialogs = assemble_dialogs(log, scorer)
            seen = []
            for d in dialogs:
                assert d.subject == min(d.members)
                seen.extend(d.members)
            assert sorted(seen) == sorted(all_idx)  # partition: no gap, no overlap
            assert len(seen) == len(set(seen))

        recovered = {
            frozenset(d.members)
            for d in assemble_dialogs(log, synth.oracle_scorer(links))
        }
        assert recovered == set(truth)


def test_c09_metrics_match_rational_oracle_and_folds_leave_one_out():
    """Precision/recall/F1 agree with exact rational arithmetic on random
    confusion tables, and 8 projects yield 8 leave-one-out folds."""
    rng = np.random.default_rng(5150)
    for _ in range(10):
        tp, fp, fn, tn = (int(x) for x in rng.integers(0, 40, size=4))
        got_p, got_r, got_f1 = compute_prf(ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn))
        p = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        r = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        f = 2 * p * r / (p + r) if p + r else Fraction(0)
        assert got_p == pytest.approx(float(p), abs=1e-12)
        assert got_r == pytest.approx(float(r), abs=1e-12)
        assert got_f1 == pytest.approx(float(f), abs=1e-12)

    projects = tuple(f"proj{i}" for i in range(8))
    folds = cross_project_split(projects)
    assert len(folds) == 8
    assert {test for test, _ in folds} == set(projects)
    for test, train in folds:
        assert len(train) == 7
        assert test not in train
        assert set(train) == set(projects) - {test}


def test_c10_cli_round_trip_is_byte_reproducible(tmp_path):
    """train -> save -> load -> extract run twice from the same seed produces
    byte-identical checkpoints and byte-identical pairs output."""
    data = tmp_path / "labeled.jsonl"
    synth.write_labeled_jsonl(synth.synth_labeled_records(8, seed=13), data)
    raw = tmp_path / "raw.jsonl"
    records = synth.synth_raw_chat_records(seed=29, n_dialogs=3)
    raw.write_text("".join(json.dumps(r) + "\n" for r in records))

    def round_trip(tag):
        d = tmp_path / tag
        d.mkdir()
        ckpts = {}
        for target in ("issue", "solution"):
            out = d / f"{target}.npz"
            rc = cli.main([
                "train", "--data", str(data), "--target", target,
                "--out", str(out), "--epochs", "2", "--encoder-dim", "16",
            ])
            assert rc == 0
            ckpts[target] = out.read_bytes()
        pairs = d / "pairs.jsonl"
        rc = cli.main([
            "extract", "--input", str(raw),
            "--issue-ckpt", str(d / "issue.npz"),
            "--solution-ckpt", str(d / "solution.npz"),
            "--out", str(pairs), "--encoder-dim", "16",
        ])
        assert rc == 0
        return ckpts, pairs.read_bytes()

    first_ckpts, first_pairs = round_trip("a")
    second_ckpts, second_pairs = round_trip("b")
    assert first_ckpts["issue"] == second_ckpts["issue"]
    assert first_ckpts["solution"] == second_ckpts["solution"]
    assert first_pairs == second_pairs
    for line in first_pairs.decode().splitlines():
        rec = json.loads(line)
        assert set(rec) == {
            "community_id", "subject_id", "issue_text", "solutions", "status", "p_issue",
        }
