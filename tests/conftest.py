"""Session-scoped fixtures: one synthetic labeled corpus, models trained on
it at two scales, the standard gradient-check reports, and the
acceptance-report summary hook.

Training runs at most once per scale per session; everything downstream
(prediction tests, pipeline tests, the overfit gate) shares the results.
"""

import time

import pytest

from chatmine import synth
from chatmine.corpus import PreprocessConfig
from chatmine.gradcheck import run_standard_checks
from chatmine.encoder import EncoderConfig
from chatmine.features import ConvStackSpec
from chatmine.model import (
    DialogEmbedder,
    ModelConfig,
    build_examples,
    load_labeled_dialogs,
    train_model,
)

CORPUS_SEED = 7
N_DIALOGS = 40


@pytest.fixture(scope="session")
def pre_cfg():
    return PreprocessConfig()


@pytest.fixture(scope="session")
def labeled_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "labeled.jsonl"
    synth.write_labeled_jsonl(synth.synth_labeled_records(N_DIALOGS, seed=CORPUS_SEED), path)
    return path


@pytest.fixture(scope="session")
def labeled_corpus(labeled_path, pre_cfg):
    return load_labeled_dialogs(labeled_path, pre_cfg)


@pytest.fixture(scope="session")
def small_enc():
    return EncoderConfig(dim=64)


@pytest.fixture(scope="session")
def small_spec():
    # last stage must stay at 256 so fusion widths hold
    return ConvStackSpec(kernel_counts=(64, 64, 256))


@pytest.fixture(scope="session")
def small_bundles(labeled_corpus, small_enc, small_spec):
    """Issue and solution models trained briefly at reduced width. Good
    enough for pipeline plumbing tests; not meant to be accurate."""
    cfg = ModelConfig(max_epochs=12, patience=4, seed=0)
    examples = build_examples(labeled_corpus, small_enc)
    return {
        target: train_model(examples[target], target, cfg, small_enc, small_spec)
        for target in ("issue", "solution")
    }


@pytest.fixture(scope="session")
def small_embedders(labeled_corpus, small_enc):
    return {
        cid: DialogEmbedder(log, small_enc) for cid, log in labeled_corpus.logs.items()
    }


@pytest.fixture(scope="session")
def trained_full(labeled_corpus):
    """Full-width models trained to convergence on the fixture corpus.
    Wall-clock per target, embedding the corpus included, is recorded for
    the overfit acceptance gate."""
    cfg = ModelConfig(seed=0)
    enc_cfg = EncoderConfig()
    t0 = time.monotonic()
    examples = build_examples(labeled_corpus, enc_cfg)
    embed_s = time.monotonic() - t0
    out = {"seconds": {}}
    for target in ("issue", "solution"):
        t0 = time.monotonic()
        out[target] = train_model(examples[target], target, cfg, enc_cfg)
        out["seconds"][target] = embed_s + time.monotonic() - t0
    return out


@pytest.fixture(scope="session")
def full_embedders(labeled_corpus):
    enc_cfg = EncoderConfig()
    return {
        cid: DialogEmbedder(log, enc_cfg) for cid, log in labeled_corpus.logs.items()
    }


@pytest.fixture(scope="session")
def standard_gradchecks():
    """The standard gradient-check reports for seeds 1-3, computed once per
    session for the tests that only read them, and their wall time."""
    t0 = time.monotonic()
    reports = run_standard_checks(seeds=(1, 2, 3))
    return {"reports": reports, "seconds": time.monotonic() - t0}


def pytest_terminal_summary(terminalreporter):
    tr = terminalreporter
    lines = []
    for status in ("passed", "failed", "error"):
        for rep in tr.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" in nodeid and getattr(rep, "when", "call") == "call":
                name = nodeid.split("::")[-1]
                lines.append((name, status.upper()))
    if lines:
        tr.write_sep("-", "acceptance criteria")
        for name, status in sorted(lines):
            tr.write_line(f"[ACCEPTANCE] {name}: {status}")
