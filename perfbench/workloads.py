"""The benchmark's workloads: inputs, the CLI verbs of one pass, output
checks and the numbers each pass yields.

Each workload is a closed loop with one caller: the verbs of a pass run one
after another through `chatmine.cli.main`, each starting when the previous
one has returned. `verbs` lists (verb, label, argv) per invocation; `check`
reads the outputs and returns the failed checks, as (label, message), plus
the facts the metrics need.
README.md beside this file says why each workload exists.
"""

import json
from pathlib import Path

from . import gen

CKPT_DIR = Path(__file__).resolve().parent / "checkpoints"
ISSUE_THRESHOLD = 0.5
SOLUTION_THRESHOLD = 0.4


def _read_jsonl(path):
    text = Path(path).read_text(encoding="utf-8")
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _check_dialogs(dialogs, n_clean):
    """Partition and link invariants of one `disentangle` output."""
    failures = []
    seen = [0] * n_clean
    for d in dialogs:
        members = d["members"]
        for i in members:
            if 0 <= i < n_clean:
                seen[i] += 1
        if members != sorted(members) or d["subject"] != members[0]:
            failures.append(f"dialog {d['subject']}: members unsorted or subject not first")
        inside = set(members)
        for child, parent in d["links"]:
            if child not in inside or parent not in inside or not parent < child:
                failures.append(f"dialog {d['subject']}: bad link {child}->{parent}")
        if sorted(d["head_indices"] + d["body_indices"]) != members:
            failures.append(f"dialog {d['subject']}: head and body do not split the members")
    bad = [i for i, n in enumerate(seen) if n != 1]
    if bad:
        failures.append(f"{len(bad)} clean utterances not in exactly one dialog")
    return failures


class Workload:
    """`params` fix the inputs; `warmup_params` override them for the small
    untimed warm-up pass."""

    params = {}
    warmup_params = {}

    def __init__(self, **overrides):
        self.params = dict(type(self).params, **overrides)


def _link_accuracy(dialogs, true_parents):
    chosen = [None] * len(true_parents)
    for d in dialogs:
        for child, parent in d["links"]:
            chosen[child] = parent
    hits = sum(c == t for c, t in zip(chosen, true_parents))
    return hits / len(true_parents)


class Extract(Workload):
    name = "extract"
    params = {"raw_utterances": 400, "concurrency": 3, "long_tail": None}
    warmup_params = {"raw_utterances": 30}

    def prepare(self, seed, work):
        p = self.params
        self.log = gen.chained_log(seed, p["raw_utterances"], p["concurrency"])
        self.raw = work / "raw.jsonl"
        gen.write_raw(self.log, self.raw)
        self.pairs = work / "pairs.jsonl"
        return {"blocks": self.log.n_blocks}

    def verbs(self):
        return [(
            "extract",
            "extract",
            ["extract", "--input", str(self.raw),
             "--issue-ckpt", str(CKPT_DIR / "issue.ckpt"),
             "--solution-ckpt", str(CKPT_DIR / "solution.ckpt"),
             "--out", str(self.pairs)],
        )]

    def outputs(self):
        return {"extract": self.pairs}

    def check(self, logs):
        failures = []
        pairs = _read_jsonl(self.pairs)
        n_solutions = 0
        for pair in pairs:
            tag = f"pair {pair['subject_id']}"
            if pair["p_issue"] < ISSUE_THRESHOLD:
                failures.append(("extract", f"{tag}: p_issue {pair['p_issue']} below the gate"))
            for s in pair["solutions"]:
                if s["p"] < SOLUTION_THRESHOLD:
                    failures.append(("extract", f"{tag}: solution p {s['p']} below threshold"))
            want = "answered" if pair["solutions"] else "unresolved"
            if pair["status"] != want:
                failures.append(
                    ("extract", f"{tag}: status {pair['status']} with {len(pair['solutions'])} solutions")
                )
            n_solutions += len(pair["solutions"])
        return failures, {"pairs": len(pairs), "solutions": n_solutions}

    def metrics(self, seconds, facts):
        """(headline items/s, named details) of one pass."""
        rate = len(self.log.records) / seconds["extract"]
        return rate, {
            "extract.utt_per_s": rate,
            "extract.pairs": facts["pairs"],
            "extract.solutions": facts["solutions"],
        }



class Disentangle(Workload):
    name = "disentangle"
    params = {
        "raw_utterances": 1500,
        "concurrency": 3,
        "long_tail": {"rare_rate": 0.3, "typo_rate": 0.15, "split_rate": 0.1},
        "lookback": 50,
    }
    warmup_params = {"raw_utterances": 60}

    def prepare(self, seed, work):
        p = self.params
        tail = gen.LongTail(**p["long_tail"])
        self.log = gen.chained_log(seed, p["raw_utterances"], p["concurrency"], tail)
        self.raw = work / "raw.jsonl"
        gen.write_raw(self.log, self.raw)
        self.clean = work / "clean.jsonl"
        self.heuristic = work / "dialogs_heuristic.jsonl"
        self.link = work / "dialogs_link.jsonl"
        return {"blocks": self.log.n_blocks}

    def verbs(self):
        lookback = str(self.params["lookback"])
        return [
            ("preprocess", "preprocess",
             ["preprocess", "--input", str(self.raw), "--out", str(self.clean)]),
            ("disentangle", "disentangle_heuristic",
             ["disentangle", "--input", str(self.clean), "--out", str(self.heuristic),
              "--lookback", lookback]),
            ("disentangle", "disentangle_link",
             ["disentangle", "--input", str(self.clean), "--out", str(self.link),
              "--lookback", lookback, "--link-ckpt", str(CKPT_DIR / "link.ckpt")]),
        ]

    def outputs(self):
        return {
            "preprocess": self.clean,
            "disentangle_heuristic": self.heuristic,
            "disentangle_link": self.link,
        }

    def check(self, logs):
        clean = _read_jsonl(self.clean)
        try:
            truth = gen.clean_true_parents(self.log, [u["text"] for u in clean])
        except ValueError as exc:
            return [("preprocess", f"clean log does not cover the raw log: {exc}")], None
        failures = []
        facts = {"clean": len(clean), "merges": len(self.log.records) - len(clean)}
        for key, path in (("heuristic", self.heuristic), ("link", self.link)):
            dialogs = _read_jsonl(path)
            errs = _check_dialogs(dialogs, len(clean))
            failures += [("disentangle_" + key, e) for e in errs]
            facts[key + "_dialogs"] = len(dialogs)
            facts[key + "_acc"] = _link_accuracy(dialogs, truth) if not errs else 0.0
        return failures, facts

    def metrics(self, seconds, facts):
        n_raw, n_clean = len(self.log.records), facts["clean"]
        rate = n_clean / seconds["disentangle_link"]
        return rate, {
            "preprocess.utt_per_s": n_raw / seconds["preprocess"],
            "disentangle.utt_per_s": rate,
            "disentangle.heuristic_utt_per_s": n_clean / seconds["disentangle_heuristic"],
            "disentangle.link_acc": facts["link_acc"],
            "disentangle.heuristic_link_acc": facts["heuristic_acc"],
            "disentangle.clean_utterances": n_clean,
            "disentangle.link_dialogs": facts["link_dialogs"],
            "disentangle.heuristic_dialogs": facts["heuristic_dialogs"],
        }



def _link_pairs(log, lookback=50, negatives=3):
    """Training pairs `train --target link` builds from one log: per child,
    the true choice plus up to `negatives` other in-window candidates."""
    total = 0
    for child in range(len(log.records)):
        parent = log.parent.get(child)
        window = min(child, lookback)
        others = window - (parent is not None and child - parent <= lookback)
        others += parent is not None  # the self candidate is then a negative
        total += 1 + min(negatives, others)
    return total


class Train(Workload):
    name = "train"
    params = {
        "labeled_dialogs": 40,
        "solution_examples": 80,
        "epochs": 2,
        "link_logs": 4,
        "link_log_utterances": 90,
        "link_epochs": 3,
        "link_hidden": 64,
    }
    warmup_params = {
        "labeled_dialogs": 8, "solution_examples": 12, "epochs": 1, "link_logs": 1,
        "link_log_utterances": 20, "link_epochs": 1,
    }

    def prepare(self, seed, work):
        p = self.params
        self.labeled = work / "labeled.jsonl"
        records = gen.write_labeled(
            seed, p["labeled_dialogs"], self.labeled, p["solution_examples"]
        )
        self.examples = {
            "issue": len(records),
            "solution": sum(len(r["y_solution"]) for r in records if r["y_issue"]),
        }
        self.links = work / "links.jsonl"
        logs = gen.write_link_labeled(
            seed + 1, p["link_logs"], p["link_log_utterances"], self.links
        )
        self.link_pairs = sum(_link_pairs(log) for log in logs)
        self.ckpts = {t: work / f"{t}.ckpt" for t in ("issue", "solution", "link")}
        return {"examples": dict(self.examples), "link_pairs": self.link_pairs}

    def verbs(self):
        n = str(self.params["epochs"])
        out = [
            ("train", f"train_{t}",
             ["train", "--data", str(self.labeled), "--target", t,
              "--out", str(self.ckpts[t]), "--epochs", n, "--patience", n])
            for t in ("issue", "solution")
        ]
        out.append((
            "train", "train_link",
            ["train", "--data", str(self.links), "--target", "link",
             "--out", str(self.ckpts["link"]),
             "--link-hidden", str(self.params["link_hidden"]),
             "--epochs", str(self.params["link_epochs"])],
        ))
        return out

    def outputs(self):
        return {f"train_{t}": path for t, path in self.ckpts.items()}

    def check(self, logs):
        failures = []
        facts = {}
        n = self.params["epochs"]
        for t in ("issue", "solution"):
            epochs = [l for l in logs[f"train_{t}"].splitlines() if l.startswith("epoch ")]
            if len(epochs) != n:
                failures.append((f"train_{t}", f"{len(epochs)} epoch lines, expected {n}"))
                continue
            facts[f"val_loss_{t}"] = float(epochs[-1].rsplit("val ", 1)[1])
        losses = [l for l in logs["train_link"].splitlines() if l.startswith("link scorer loss:")]
        values = losses[-1].split(":", 1)[1].split() if losses else []
        if len(values) != self.params["link_epochs"]:
            failures.append(
                ("train_link", f"{len(values)} epoch losses, expected {self.params['link_epochs']}")
            )
        else:
            facts["link_loss"] = float(values[-1])
        return failures, facts

    def metrics(self, seconds, facts):
        n = self.params["epochs"]
        work = n * (self.examples["issue"] + self.examples["solution"])
        rate = work / (seconds["train_issue"] + seconds["train_solution"])
        return rate, {
            "train.examples_per_s": rate,
            "train.link_pairs_per_s": self.params["link_epochs"] * self.link_pairs
            / seconds["train_link"],
            "train.val_loss_issue": facts.get("val_loss_issue", float("nan")),
            "train.val_loss_solution": facts.get("val_loss_solution", float("nan")),
            "train.link_loss": facts.get("link_loss", float("nan")),
        }



WORKLOADS = {w.name: w for w in (Extract, Disentangle, Train)}
