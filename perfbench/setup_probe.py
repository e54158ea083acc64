"""What a fresh interpreter loads before a workload's first input record.

`run.py` times this script end to end, interpreter start included, as the
`setup_s` metric: import chatmine, then load the lexicons and checkpoints the
workload's verbs need. Usage: python3 perfbench/setup_probe.py WORKLOAD
"""

import sys
from pathlib import Path

CKPT_DIR = Path(__file__).resolve().parent / "checkpoints"


def main(workload):
    from chatmine import cli  # noqa: F401
    from chatmine.corpus import PreprocessConfig, RawMessage, preprocess_utterance
    from chatmine.disentangle import load_link_checkpoint
    from chatmine.encoder import EncoderConfig
    from chatmine.features import load_heuristic_lexicons
    from chatmine.model import load_model_checkpoint

    # normalizing one message loads every preprocessing lexicon
    preprocess_utterance(RawMessage(0, "probe", "probe"), PreprocessConfig())
    if workload in ("extract", "train"):
        load_heuristic_lexicons()
    if workload == "extract":
        for target in ("issue", "solution"):
            load_model_checkpoint(CKPT_DIR / f"{target}.ckpt", EncoderConfig())
    if workload == "disentangle":
        load_link_checkpoint(CKPT_DIR / "link.ckpt")


if __name__ == "__main__":
    main(sys.argv[1])
