"""The input generator: determinism, bounded concurrency, and true links that
survive `preprocess` merges."""

import json

import pytest

from chatmine import cli, disentangle
from chatmine.corpus import ChatLog, PreprocessConfig, RawMessage, preprocess_utterance
from perfbench import gen, layers, workloads

TAIL = gen.LongTail(rare_rate=0.3, typo_rate=0.15, split_rate=0.3)


def _dialog_of(log):
    """Record index -> index of its dialog's starter."""
    root = {}
    for i in range(len(log.records)):
        p = log.parent.get(i)
        root[i] = i if p is None else root[p]
    return root


def test_same_seed_same_log_and_other_seed_other_log():
    a = gen.chained_log(5, 200, tail=TAIL)
    b = gen.chained_log(5, 200, tail=TAIL)
    c = gen.chained_log(6, 200, tail=TAIL)
    assert a == b
    assert a.records != c.records


def test_record_count_is_fixed_and_time_strictly_increases():
    log = gen.chained_log(1, 137, tail=TAIL)
    assert len(log.records) == 137
    times = [r["time"] for r in log.records]
    assert all(t0 < t1 for t0, t1 in zip(times, times[1:]))
    assert all(p < c < 137 for c, p in log.parent.items())
    assert all("\n" not in r["text"] for r in log.records)


@pytest.mark.parametrize("concurrency", [1, 3, 5])
def test_open_dialogs_never_exceed_the_concurrency(concurrency):
    log = gen.chained_log(2, 300, concurrency=concurrency, tail=TAIL)
    root = _dialog_of(log)
    last = {}
    for i in range(len(log.records)):
        last[root[i]] = i
    open_now = set()
    for i in range(len(log.records)):
        open_now.add(root[i])
        assert len(open_now) <= concurrency
        if last[root[i]] == i:
            open_now.discard(root[i])


def test_split_sends_are_quick_same_author_continuations():
    log = gen.chained_log(3, 300, tail=gen.LongTail(split_rate=0.5))
    recs = log.records
    splits = [c for c, p in log.parent.items() if p == c - 1
              and recs[c]["id"] == recs[p]["id"]
              and recs[c]["time"] - recs[p]["time"] < 4_000]
    assert len(splits) > 20


def test_hand_built_merge_maps_links_to_the_merged_cell():
    log = gen.RawLog(
        records=[
            {"time": 0, "id": "a", "text": "why does it crash ?"},
            {"time": 5, "id": "b", "text": "try the"},
            {"time": 6, "id": "b", "text": "patch"},
            {"time": 9, "id": "a", "text": "thanks"},
        ],
        parent={1: 0, 2: 1, 3: 1},
        n_blocks=1,
    )
    clean = ["why does it crash ?", "try the\npatch", "thanks"]
    assert gen.clean_index_map(log.records, clean) == {0: 0, 1: 1, 2: 1, 3: 2}
    assert gen.clean_true_parents(log, clean) == [None, 0, 1]
    with pytest.raises(ValueError):
        gen.clean_index_map(log.records, ["why does it crash ?", "try the", "thanks"])


def test_true_links_map_through_real_preprocess_merges(tmp_path):
    log = gen.chained_log(4, 400, tail=gen.LongTail(split_rate=0.4))
    raw, clean_path = tmp_path / "raw.jsonl", tmp_path / "clean.jsonl"
    gen.write_raw(log, raw)
    assert cli.main(["preprocess", "--input", str(raw), "--out", str(clean_path)]) == 0
    clean = [json.loads(line) for line in clean_path.read_text().splitlines()]
    assert len(clean) < len(log.records), "no split send was merged"
    truth = gen.clean_true_parents(log, [u["text"] for u in clean])
    first_piece = {}
    for r, k in sorted(gen.clean_index_map(log.records, [u["text"] for u in clean]).items()):
        first_piece.setdefault(k, r)
    for k, parent in enumerate(truth):
        raw_parent = log.parent.get(first_piece[k])
        if raw_parent is None:
            assert parent is None
            continue
        # the mapped parent is the clean cell that holds the raw parent
        assert parent < k
        assert log.records[raw_parent]["text"] in clean[parent]["text"].split("\n")
        assert clean[parent]["id"] == log.records[raw_parent]["id"]


def test_link_pair_count_matches_the_link_trainer():
    examples = []
    logs = [gen.chained_log(s, 70) for s in (1, 2)]
    for log in logs:
        utts = [
            preprocess_utterance(RawMessage(r["time"], r["id"], r["text"]), PreprocessConfig(), i)
            for i, r in enumerate(log.records)
        ]
        examples.append((ChatLog("t", utts), dict(log.parent)))
    rec = layers.install()
    try:
        disentangle.train_link_scorer(examples, hidden=4, epochs=0)
    finally:
        rec.uninstall()
    built = rec.totals()["disentangle.features"][0]
    assert built == sum(workloads._link_pairs(log) for log in logs)


def test_labeled_corpus_has_fixed_example_counts(tmp_path):
    from chatmine.model import load_labeled_dialogs

    for seed in (1, 2, 3):
        path = tmp_path / f"labeled{seed}.jsonl"
        records = gen.write_labeled(seed, 40, path, n_solution_examples=80)
        assert len(records) == 40
        corpus = load_labeled_dialogs(path, PreprocessConfig())  # validates labels
        assert sum(len(d.y_solution) for d in corpus.dialogs if d.y_issue) == 80
