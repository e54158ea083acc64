#!/usr/bin/env python3
"""Rebuild the benchmark's fixed checkpoints and their recipe record.

The checkpoints are made once and committed, so the amount of work in the
`extract` and `disentangle` workloads does not follow later changes to the
training code. Run from the repository root:

    python3 perfbench/make_checkpoints.py

It trains through `chatmine.cli.main` with one BLAS thread and writes
`perfbench/checkpoints/{issue,solution,link}.ckpt` plus `recipe.json`, which
holds the recipe and the SHA-256 of each file that `run.py` verifies.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent))

from chatmine import cli  # noqa: E402

from perfbench import gen  # noqa: E402

CKPT_DIR = HERE / "checkpoints"
RECIPE = {
    "labeled": {"generator": "synth.synth_labeled_records", "n_dialogs": 40, "seed": 1001},
    "links": {"generator": "gen.write_link_labeled", "n_logs": 4, "n_records": 90, "seed": 1002},
    "issue": ["--seed", "0", "train", "--target", "issue", "--epochs", "40", "--patience", "5"],
    "solution": ["--seed", "0", "train", "--target", "solution", "--epochs", "40", "--patience", "5"],
    "link": ["--seed", "0", "train", "--target", "link", "--link-hidden", "64", "--epochs", "5"],
}


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def main():
    CKPT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        labeled = Path(tmp) / "labeled.jsonl"
        links = Path(tmp) / "links.jsonl"
        lab, lk = RECIPE["labeled"], RECIPE["links"]
        gen.write_labeled(lab["seed"], lab["n_dialogs"], labeled)
        gen.write_link_labeled(lk["seed"], lk["n_logs"], lk["n_records"], links)
        hashes = {}
        for target in ("issue", "solution", "link"):
            out = CKPT_DIR / f"{target}.ckpt"
            data = links if target == "link" else labeled
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main(RECIPE[target] + ["--data", str(data), "--out", str(out)])
            print(err.getvalue().strip().splitlines()[-1], file=sys.stderr)
            if rc != 0:
                print(err.getvalue(), file=sys.stderr)
                return rc
            hashes[target] = sha256(out)
    record = {"recipe": RECIPE, "sha256": hashes}
    (CKPT_DIR / "recipe.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
