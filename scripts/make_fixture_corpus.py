#!/usr/bin/env python3
"""Write a synthetic corpus for demos and smoke runs: labeled dialogs for
training, an interleaved raw log for extraction, and a link-labeled log for
the reply scorer."""

import argparse
from pathlib import Path

from chatmine import synth
from chatmine.fileio import write_jsonl


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--n-dialogs", type=int, default=40,
                    help="labeled dialogs; half are issues")
    ap.add_argument("--raw-dialogs", type=int, default=6,
                    help="scripted dialogs interleaved into the raw log")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    files = {
        "labeled.jsonl": synth.synth_labeled_records(args.n_dialogs, seed=args.seed),
        "raw.jsonl": synth.synth_raw_chat_records(seed=args.seed + 1, n_dialogs=args.raw_dialogs),
        "links.jsonl": [],
    }
    # ground-truth reply links for the same style of interleaving
    for i in range(4):
        log, links, _ = synth.synth_interleaved(seed=args.seed + 10 + i, n_dialogs=3)
        files["links.jsonl"].append({
            "utterances": [
                {"time": u.time, "id": u.author_id, "text": u.raw_text}
                for u in log.utterances
            ],
            "links": sorted([c, p] for c, p in links.items() if p is not None),
        })

    for name, records in files.items():
        write_jsonl(out / name, records)
        print(f"wrote {out / name} ({len(records)} lines)")


if __name__ == "__main__":
    main()
