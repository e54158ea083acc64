"""Seeded synthetic chat fixtures for tests, training demos, and the
gradient-free parts of the pipeline.

Issue dialogs open with a question-shaped problem report and carry
imperative fix suggestions in the body; non-issue dialogs open with
greetings or status chatter. A recurring follow-up line ("and restart the
service afterwards") is labeled a solution only when it extends a solution
utterance, so solution models must read the local window, not just the
utterance. Interleaved logs carry their true reply links for
disentanglement tests.
"""

import numpy as np

from .corpus import (
    ChatLog,
    PreprocessConfig,
    RawMessage,
    normalization_lexicons,
    preprocess_utterance,
)
from .fileio import write_jsonl

_AUTHORS = ("dev_ana", "dev_bo", "dev_cy", "dev_dee", "dev_eli", "dev_flo")

_NOUNS = ("parser", "scheduler", "cache", "compiler", "daemon", "installer", "driver")
_EVENTS = ("the upgrade", "a reboot", "the migration", "enabling tls", "the merge")
_FLAGS = ("timeout", "retry", "verbose", "strict", "fallback")

_ISSUE_HEADS = (
    "why does the {noun} crash after {event} ?",
    "how can i fix the {noun} error after {event} ?",
    "what causes the {noun} to hang when i run it ?",
    "which version fixes the {noun} bug from {event} ?",
    "my {noun} fails with a weird error , any idea why ?",
)
_NONISSUE_HEADS = (
    "hello everyone , happy friday",
    "good morning all",
    "just upgraded after {event} and the {noun} feels faster , great work",
    "the new docs for the {noun} look nice",
    "welcome to the channel , introduce yourself",
)
_SOLUTIONS = (
    "try reinstalling the {noun} package",
    "set the {flag} option in the config file",
    "install the patch from the tracker",
    "downgrade the {noun} and clear the cache directory",
    "run the setup script with the {flag} flag",
)
_FOLLOWUP = "and restart the service afterwards"
_NOISE = (
    "i have the same problem",
    "no luck here , still broken",
    "thanks , i will check later",
    "lol",
    "did you read the release notes ?",
    "same here",
)
_CLOSERS = ("that worked , thanks !", "perfect , issue gone now")


def _fill(rng, template):
    return template.format(
        noun=rng.choice(_NOUNS), event=rng.choice(_EVENTS), flag=rng.choice(_FLAGS)
    )


def synth_labeled_records(n_dialogs, seed, communities=("alpha", "beta"), start_time=1_600_000_000_000):
    """Balanced labeled dialogs as JSONL-ready dicts. Half the dialogs are
    issues; issue bodies mix solution utterances, the context-dependent
    follow-up, and noise. Non-issue bodies reuse the same follow-up line in
    a non-solution context."""
    rng = np.random.default_rng(seed)
    records = []
    t = start_time
    for d in range(n_dialogs):
        # cycle communities at half the issue/non-issue period so every
        # community sees both labels
        community = communities[(d // 2) % len(communities)]
        is_issue = d % 2 == 0
        authors = list(rng.permutation(_AUTHORS))
        initiator, responder, third = authors[0], authors[1], authors[2]
        utts = []

        def say(author, text):
            nonlocal t
            utts.append({"time": t, "id": author, "text": text})
            t += int(rng.integers(5_000, 90_000))

        y_solution = []

        def body(author, text, label):
            say(author, text)
            y_solution.append(label)

        if is_issue:
            say(initiator, _fill(rng, rng.choice(_ISSUE_HEADS)))
            if rng.random() < 0.4:
                say(initiator, "it started after " + str(rng.choice(_EVENTS)))
            body(responder, _NOISE[int(rng.integers(len(_NOISE)))], 0)
            sol_author = third
            body(sol_author, _fill(rng, rng.choice(_SOLUTIONS)), 1)
            if rng.random() < 0.6:
                # same author extends their own fix; only the window says
                # this line is a solution
                body(sol_author, _FOLLOWUP, 1)
            if rng.random() < 0.5:
                body(initiator, _CLOSERS[int(rng.integers(len(_CLOSERS)))], 0)
            if rng.random() < 0.4:
                # the identical follow-up after chatter is not a solution;
                # the two cases differ only in their windows
                body(responder, _NOISE[int(rng.integers(len(_NOISE)))], 0)
                body(responder, _FOLLOWUP, 0)
        else:
            say(initiator, _fill(rng, rng.choice(_NONISSUE_HEADS)))
            body(responder, _NOISE[int(rng.integers(len(_NOISE)))], 0)
            if rng.random() < 0.5:
                body(responder, _FOLLOWUP, 0)
            if rng.random() < 0.4:
                body(third, _NOISE[int(rng.integers(len(_NOISE)))], 0)
        records.append(
            {
                "community_id": community,
                "utterances": utts,
                "y_issue": int(is_issue),
                "y_solution": y_solution if is_issue else [],
            }
        )
        t += int(rng.integers(600_000, 3_600_000))
    return records


def write_labeled_jsonl(records, path):
    write_jsonl(path, records)


# -- interleaved raw logs --------------------------------------------------


def synth_interleaved(seed, n_dialogs, pre_cfg=None, start_time=1_600_000_000_000):
    """Interleave n_dialogs scripted dialogs into one chat log.

    Returns (log, true_links, partition): the preprocessed log (no merge or
    typo passes, so indices match the script), each utterance's true parent
    index (absent for dialog starters), and the ground-truth member sets.
    Every dialog uses its own authors so the fixture stays separable.
    """
    if pre_cfg is None:
        pre_cfg = PreprocessConfig()
    rng = np.random.default_rng(seed)
    scripts = []
    for d in range(n_dialogs):
        a = _AUTHORS[(2 * d) % len(_AUTHORS)]
        b = _AUTHORS[(2 * d + 1) % len(_AUTHORS)]
        lines = [(a, _fill(rng, rng.choice(_ISSUE_HEADS)))]
        n_replies = int(rng.integers(1, 4))
        for j in range(n_replies):
            who, prev = (b, a) if j % 2 == 0 else (a, b)
            text = _fill(rng, rng.choice(_SOLUTIONS + _NOISE[:3]))
            if rng.random() < 0.7:
                text = "@" + prev + " " + text
            lines.append((who, text))
        scripts.append(lines)
    queues = [list(enumerate(s)) for s in scripts]
    order = []  # (dialog, position, author, text)
    while any(queues):
        alive = [i for i, q in enumerate(queues) if q]
        pick = int(alive[int(rng.integers(len(alive)))])
        pos, (author, text) = queues[pick].pop(0)
        order.append((pick, pos, author, text))
    t = start_time
    utterances = []
    true_links = {}
    partition = [[] for _ in range(n_dialogs)]
    last_index_of = {}
    res = normalization_lexicons(pre_cfg)
    for global_idx, (d, pos, author, text) in enumerate(order):
        u = preprocess_utterance(RawMessage(t, author, text), pre_cfg, global_idx, res)
        utterances.append(u)
        partition[d].append(global_idx)
        if pos > 0:
            true_links[global_idx] = last_index_of[d]
        last_index_of[d] = global_idx
        t += int(rng.integers(4_000, 40_000))
    log = ChatLog(f"interleaved-{seed}", utterances)
    return log, true_links, tuple(frozenset(m) for m in partition)


def oracle_scorer(true_links):
    """Scores the true parent (or true self choice) 1.0, everything else
    0.0; recovers the exact partition through assemble_dialogs."""

    def scorer(block):
        want = np.array([true_links.get(c, -1) for c in block.child.tolist()])
        return (block.parent == want).astype(np.float64)

    return scorer


def synth_raw_chat_records(seed, n_dialogs=3, start_time=1_600_000_000_000):
    """Raw {"time","id","text"} records of an interleaved chat, for feeding
    the CLI pipeline end to end."""
    log, _, _ = synth_interleaved(seed, n_dialogs, start_time=start_time)
    return [
        {"time": u.time, "id": u.author_id, "text": u.raw_text}
        for u in log.utterances
    ]
