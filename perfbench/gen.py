"""Seeded inputs for the benchmark workloads.

`synth.synth_interleaved` keeps every dialog it is given open at once, so a
single call cannot stand for a long log: true parents drift past the
disentangler's lookback as the dialog count grows. Here a long log is a chain
of short blocks instead. Each block interleaves a few scripted dialogs (the
concurrency), starts a few minutes after the previous block ended, and gets
its own authors from a pool, so true links stay local and known.

The long-tail options inject rare identifier words, one-letter typos and
quick same-author split sends into the scripted text. Every record keeps its
true parent, so accuracy can be scored after `preprocess` merges sends.

Everything is a pure function of the arguments; the seed is one of them.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from chatmine import synth

START_TIME = 1_600_000_000_000
_AUTHOR_POOL = tuple(
    "dev_" + name
    for name in (
        "ana", "bo", "cy", "dee", "eli", "flo", "gus", "hal", "ivy", "jo",
        "kai", "lu", "max", "ned", "oz", "pia", "quin", "rex", "sol", "tam",
        "uma", "vic", "wes", "xia",
    )
)
_SYLLABLES = (
    "zor", "vak", "plim", "tex", "quo", "brin", "dax", "fel", "grum", "hux",
    "jiv", "kel", "mop", "nurt", "pax", "rov", "sib", "tuv", "wex", "yob",
)


@dataclass(frozen=True)
class LongTail:
    """Per-utterance probabilities of each injection."""

    rare_rate: float = 0.0
    typo_rate: float = 0.0
    split_rate: float = 0.0


@dataclass(frozen=True)
class RawLog:
    """records: raw {"time", "id", "text"} dicts in time order. parent:
    record index -> true parent record index, absent for dialog starters.
    n_blocks: blocks chained, the last one possibly cut."""

    records: list
    parent: dict
    n_blocks: int


def _rare_word(rng):
    return "".join(_SYLLABLES[int(i)] for i in rng.integers(len(_SYLLABLES), size=3))


def _typo(rng, text):
    """Replace one letter of one long word; mentions are left alone."""
    words = text.split(" ")
    spots = [i for i, w in enumerate(words) if len(w) >= 5 and w.isalpha()]
    if not spots:
        return text
    i = spots[int(rng.integers(len(spots)))]
    w = words[i]
    j = int(rng.integers(1, len(w) - 1))
    c = "abcdefghijklmnopqrstuvwxyz"[int(rng.integers(26))]
    if c == w[j]:
        c = "x" if w[j] != "x" else "y"
    words[i] = w[:j] + c + w[j + 1 :]
    return " ".join(words)


def chained_log(seed, n_records, concurrency=3, tail=LongTail()):
    """Chain blocks of `concurrency` interleaved dialogs until the log holds
    `n_records` raw records; the last block is cut there.

    A split send becomes two records by the same author one to three seconds
    apart; the second piece's true parent is the first, and replies to the
    message point at the first piece.
    """
    rng = np.random.default_rng(seed)
    records = []
    parent = {}
    t = START_TIME
    n_blocks = 0
    while len(records) < n_records:
        n_blocks += 1
        block, links, _ = synth.synth_interleaved(
            int(rng.integers(2**31)), concurrency, start_time=t
        )
        authors = sorted({u.author_id for u in block.utterances})
        names = rng.choice(len(_AUTHOR_POOL), size=len(authors), replace=False)
        rename = {a: _AUTHOR_POOL[int(n)] for a, n in zip(authors, names)}
        first_record = {}  # block index -> first record index
        for u in block.utterances:
            text = u.raw_text
            for old, new in rename.items():
                text = text.replace("@" + old + " ", "@" + new + " ")
            if rng.random() < tail.rare_rate:
                text += " in " + _rare_word(rng)
            if rng.random() < tail.typo_rate:
                text = _typo(rng, text)
            author = rename[u.author_id]
            first_record[u.index] = len(records)
            if u.index in links:
                parent[len(records)] = first_record[links[u.index]]
            words = text.split(" ")
            if rng.random() < tail.split_rate and len(words) >= 4:
                cut = int(rng.integers(2, len(words) - 1))
                records.append({"time": u.time, "id": author, "text": " ".join(words[:cut])})
                parent[len(records)] = len(records) - 1
                gap = int(rng.integers(1_000, 3_000))
                records.append({"time": u.time + gap, "id": author, "text": " ".join(words[cut:])})
            else:
                records.append({"time": u.time, "id": author, "text": text})
        t = records[-1]["time"] + int(rng.integers(120_000, 600_000))
    del records[n_records:]
    parent = {c: p for c, p in parent.items() if c < n_records}
    return RawLog(records, parent, n_blocks)


def write_raw(log, path):
    Path(path).write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in log.records),
        encoding="utf-8",
    )


def write_link_labeled(seed, n_logs, n_records, path, concurrency=3):
    """Link-labeled logs for `train --target link`, one chained log a line.
    Returns the logs."""
    rng = np.random.default_rng(seed)
    logs = [
        chained_log(int(rng.integers(2**31)), n_records, concurrency)
        for _ in range(n_logs)
    ]
    lines = []
    for log in logs:
        lines.append(
            json.dumps(
                {
                    "utterances": log.records,
                    "links": sorted([c, p] for c, p in log.parent.items()),
                },
                sort_keys=True,
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return logs


def write_labeled(seed, n_dialogs, path, n_solution_examples=None):
    """Labeled dialogs for `train --target issue|solution`; returns them.

    With `n_solution_examples`, the corpus is drawn from a larger seeded
    pool so that its issue dialogs hold exactly that many body utterances:
    issue dialogs are taken in order until the count is reached, the last
    one cut short, and non-issue dialogs fill up to `n_dialogs`. Both
    classifiers then see the same number of examples for every seed.
    """
    if n_solution_examples is None:
        records = synth.synth_labeled_records(n_dialogs, seed=seed)
    else:
        pool = synth.synth_labeled_records(4 * n_dialogs, seed=seed)
        issues, total = [], 0
        for i, r in enumerate(pool):
            if r["y_issue"] and total < n_solution_examples:
                keep = min(len(r["y_solution"]), n_solution_examples - total)
                head = len(r["utterances"]) - len(r["y_solution"])
                cut = dict(r, utterances=r["utterances"][: head + keep],
                           y_solution=r["y_solution"][:keep])
                issues.append((i, cut))
                total += keep
        if total < n_solution_examples or len(issues) >= n_dialogs:
            raise ValueError("labeled pool too small for the requested corpus")
        others = [(i, r) for i, r in enumerate(pool) if not r["y_issue"]]
        records = [r for _, r in sorted(issues + others[: n_dialogs - len(issues)],
                                        key=lambda ir: ir[0])]
    synth.write_labeled_jsonl(records, path)
    return records


def clean_index_map(records, clean_texts):
    """Map each raw record index to the clean-log utterance that holds it.

    `clean_texts` are the clean log's `text` fields in order; a merged cell
    joins its raw pieces with newlines. Raw records must be in time order,
    none may normalize to nothing, and no raw text may hold a newline.
    """
    out = {}
    r = 0
    for k, text in enumerate(clean_texts):
        for piece in text.split("\n"):
            if r >= len(records) or records[r]["text"] != piece:
                raise ValueError(f"clean utterance {k} does not follow raw record {r}")
            out[r] = k
            r += 1
    if r != len(records):
        raise ValueError(f"clean log covers {r} of {len(records)} raw records")
    return out


def clean_true_parents(log, clean_texts):
    """True parent per clean utterance (None for dialog starters): the parent
    of the utterance's first raw piece, mapped through the merges."""
    to_clean = clean_index_map(log.records, clean_texts)
    first = {}
    for r, k in sorted(to_clean.items()):
        first.setdefault(k, r)
    out = []
    for k in range(len(clean_texts)):
        p = log.parent.get(first[k])
        out.append(None if p is None else to_clean[p])
    return out
