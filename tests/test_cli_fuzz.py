"""Fuzz gate for the command line: every verb, fed mutated JSONL records,
truncated and byte-edited copies of the benchmark checkpoints, or edited
config files, lexicons and embedding tables, must end with exit 0, 2 or 3
and never with a traceback.

Runs are in-process through main(), so an exception escaping main() is the
traceback a user would see. Examples are derandomized: the gate checks the
same inputs on every run.
"""

import contextlib
import copy
import hashlib
import io
import json
import math
import struct
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from chatmine import lexicons, synth
from chatmine.cli import main

CKPT_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "checkpoints"
FUZZ = settings(max_examples=25, deadline=None, derandomize=True, database=None)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

LABELED = synth.synth_labeled_records(8, seed=3)
LINKED = [
    {
        "utterances": [
            {"time": 1000, "id": "ann", "text": "why does the build fail?"},
            {"time": 2000, "id": "bob", "text": "clear the cache"},
            {"time": 3000, "id": "ann", "text": "thanks, that fixed it"},
        ],
        "links": [[1, 0], [2, 1]],
    }
]
RAW = synth.synth_raw_chat_records(2, n_dialogs=2)
UTTERANCE_KEYS = ("time", "id", "text")

# config key -> bundled lexicon: a word list, two maps, the placeholder rules
# and the lemma rules
LEXICONS = {
    "stopwords_path": "stopwords.txt",
    "acronyms_path": "acronyms.tsv",
    "emoji_path": "emoji.tsv",
    "placeholder_rules_path": "placeholder_rules.tsv",
    "lemma_rules_path": "lemma_rules.tsv",
}
CONFIG = """# every kind of setting a config file holds
perplexity_threshold=40.0
typo_min_len=4
typo_correction=true
batch_size=8
dropout=0.6
lr=0.001
patience=5
issue_threshold=0.5
balance=false
seed=3
encoder_window_k=1
encoder_buckets_per_token=3
"""
TABLE = "".join(
    f"{w} {i % 3 - 1} 0.5 {i / 7:.3f} -2e-1\n"
    for i, w in enumerate(("# tokens", "why", "the", "fix", "cache", "restart", "thanks"))
)
# replacements that mean something to one of the line formats
LINE_EDITS = ("", "\t", " ", "=", "#", "!", "\\", "(", "[", "{99999999999}", "x", "9", "-",
              "nan", "1e999", "\n")

# (valid, invalid) values of --lookback and of --threshold
LOOKBACKS = (
    st.integers(1, 2**70),
    st.integers(-(2**70), 0) | st.sampled_from(("2.5", "", "x")),
)
THRESHOLDS = (
    st.floats(0.0, 1.0),
    st.floats().filter(lambda t: not 0.0 <= t <= 1.0) | st.sampled_from(("", "x", "1e400")),
)


@st.composite
def disentangle_flags(draw):
    """--lookback and --threshold, each valid three times in four, so most
    runs still get past argument parsing."""

    def value(choices):
        valid, invalid = choices
        return str(draw(valid if draw(st.integers(0, 3)) else invalid))

    return ["--lookback", value(LOOKBACKS), "--threshold", value(THRESHOLDS)]


def run(argv):
    """(exit code, stderr) of one in-process CLI run; a usage error's
    SystemExit counts as its exit code."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


def assert_clean_exit(argv):
    rc, err = run(argv)
    event(f"{argv[0]} exit {rc}")
    assert rc in (0, 2, 3), f"exit {rc} for {argv}: {err}"
    assert "Traceback" not in err


def _edit(draw, obj, keys):
    key = draw(st.sampled_from(keys))
    if draw(st.booleans()):
        obj.pop(key, None)
    else:
        obj[key] = draw(JSON_VALUES)


@st.composite
def mutated_jsonl(draw, records):
    """The records as JSONL after one edit: a field of a record or of one of
    its utterances dropped or replaced by arbitrary JSON, or the text
    truncated or one character replaced."""
    records = copy.deepcopy(records)
    rec = records[draw(st.integers(0, len(records) - 1))]
    where = draw(st.sampled_from(("record", "utterance", "text")))
    if where == "record":
        _edit(draw, rec, sorted(rec) + ["extra"])
    elif where == "utterance" and isinstance(rec.get("utterances"), list):
        utt = rec["utterances"][draw(st.integers(0, len(rec["utterances"]) - 1))]
        _edit(draw, utt, UTTERANCE_KEYS)
    text = "".join(json.dumps(r) + "\n" for r in records)
    if where == "text":
        pos = draw(st.integers(0, len(text) - 1))
        text = text[:pos] + draw(st.sampled_from(("", "x", "{", "]", '"', "9", "\x00")))
        if draw(st.booleans()):
            text += "".join(json.dumps(r) + "\n" for r in records)[pos + 1 :]
    return text


@st.composite
def mutated_lines(draw, text):
    """The text with one line dropped or replaced by arbitrary text, or with
    one character of a line replaced by one of LINE_EDITS."""
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(("drop", "line", "char")))
    if kind == "drop":
        del lines[i]
    elif kind == "line":
        lines[i] = draw(st.text(max_size=12))
    elif lines[i]:
        pos = draw(st.integers(0, len(lines[i]) - 1))
        lines[i] = lines[i][:pos] + draw(st.sampled_from(LINE_EDITS)) + lines[i][pos + 1 :]
    return "\n".join(lines)


def write_named_by_content(directory, text):
    """Write ``text`` to a file named by its hash: lexicons and tables are
    cached by path, so each distinct content needs a path of its own."""
    path = directory / hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    path.write_text(text, encoding="utf-8")
    return path


@st.composite
def damaged_checkpoint(draw, name):
    """A benchmark checkpoint truncated, with one byte replaced (mostly in
    the length prefix or the manifest), with one float32 of the blob set to
    NaN or an infinity, or with one manifest field dropped or replaced by
    arbitrary JSON."""
    raw = (CKPT_DIR / f"{name}.ckpt").read_bytes()
    (mlen,) = struct.unpack("<I", raw[:4])
    kind = draw(st.sampled_from(("truncate", "byte", "nonfinite", "field")))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "nonfinite":
        pos = 4 + mlen + 4 * draw(st.integers(0, (len(raw) - 4 - mlen) // 4 - 1))
        value = struct.pack("<f", draw(st.sampled_from((math.nan, math.inf, -math.inf))))
        return raw[:pos] + value + raw[pos + 4 :]
    if kind == "byte":
        pos = draw(st.integers(0, min(len(raw), 4 + mlen + 64) - 1))
        return raw[:pos] + bytes([draw(st.integers(0, 255))]) + raw[pos + 1 :]
    manifest = json.loads(raw[4 : 4 + mlen])
    _edit(draw, manifest, sorted(manifest))
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return struct.pack("<I", len(body)) + body + raw[4 + mlen :]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    raw = d / "raw.jsonl"
    raw.write_text("".join(json.dumps(r) + "\n" for r in RAW), encoding="utf-8")
    assert run(["preprocess", "--input", str(raw), "--out", str(d / "clean.jsonl")])[0] == 0
    synth.write_labeled_jsonl(LABELED, d / "labeled_ok.jsonl")
    return d


@FUZZ
@given(text=mutated_jsonl(LABELED), verb=st.sampled_from(("issue", "solution", "eval")))
def test_training_verbs_survive_mutated_labeled_records(work, text, verb):
    data = work / "labeled.jsonl"
    data.write_text(text, encoding="utf-8")
    small = ["--epochs", "1", "--encoder-dim", "16", "--data", str(data), "--out", str(work / "o")]
    if verb == "eval":
        assert_clean_exit(["eval"] + small)
    else:
        assert_clean_exit(["train", "--target", verb] + small)


@FUZZ
@given(text=mutated_jsonl(LINKED))
def test_link_training_survives_mutated_link_records(work, text):
    data = work / "links.jsonl"
    data.write_text(text, encoding="utf-8")
    assert_clean_exit(
        ["train", "--target", "link", "--epochs", "1", "--link-hidden", "4",
         "--data", str(data), "--out", str(work / "link.ckpt")]
    )


@FUZZ
@given(raw=mutated_jsonl(RAW), clean=st.data(), flags=disentangle_flags())
def test_log_verbs_survive_mutated_logs(work, raw, clean, flags):
    log = work / "raw_fuzz.jsonl"
    log.write_text(raw, encoding="utf-8")
    assert_clean_exit(["preprocess", "--input", str(log), "--out", str(work / "c.jsonl")])
    records = [json.loads(line) for line in (work / "clean.jsonl").read_text().splitlines()]
    log.write_text(clean.draw(mutated_jsonl(records)), encoding="utf-8")
    assert_clean_exit(["disentangle", "--input", str(log), "--out", str(work / "d.jsonl")] + flags)


@FUZZ
@given(name=st.sampled_from(("issue", "solution", "link")), data=st.data(), flags=disentangle_flags())
def test_verbs_survive_damaged_checkpoints(work, name, data, flags):
    ckpt = work / f"damaged_{name}.ckpt"
    ckpt.write_bytes(data.draw(damaged_checkpoint(name)))
    if name == "link":
        assert_clean_exit(
            ["disentangle", "--input", str(work / "clean.jsonl"), "--out", str(work / "d.jsonl"),
             "--link-ckpt", str(ckpt)] + flags
        )
        return
    ckpts = {t: str(CKPT_DIR / f"{t}.ckpt") for t in ("issue", "solution")}
    ckpts[name] = str(ckpt)
    assert_clean_exit(
        ["extract", "--input", str(work / "raw.jsonl"), "--out", str(work / "pairs.jsonl"),
         "--issue-ckpt", ckpts["issue"], "--solution-ckpt", ckpts["solution"]]
    )


@FUZZ
@given(key=st.sampled_from(sorted(LEXICONS)), data=st.data())
def test_preprocess_survives_mutated_lexicons(work, key, data):
    bundled = lexicons.data_path(LEXICONS[key]).read_text(encoding="utf-8")
    lexicon = write_named_by_content(work, data.draw(mutated_lines(bundled)))
    cfg = work / "lexicon.cfg"
    cfg.write_text(f"{key}={lexicon}\n", encoding="utf-8")
    assert_clean_exit(
        ["--config", str(cfg), "preprocess", "--input", str(work / "raw.jsonl"),
         "--out", str(work / "c.jsonl")]
    )


@FUZZ
@given(text=mutated_lines(CONFIG))
def test_training_survives_mutated_config_files(work, text):
    cfg = work / "fuzz.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert_clean_exit(
        ["--config", str(cfg), "train", "--target", "issue", "--epochs", "1", "--encoder-dim", "16",
         "--data", str(work / "labeled_ok.jsonl"), "--out", str(work / "o")]
    )


@FUZZ
@given(text=mutated_lines(TABLE))
def test_training_survives_mutated_embedding_tables(work, text):
    table = write_named_by_content(work, text)
    assert_clean_exit(
        ["train", "--target", "issue", "--epochs", "1", "--encoder-provider", "table",
         "--encoder-table", str(table), "--encoder-dim", "4",
         "--data", str(work / "labeled_ok.jsonl"), "--out", str(work / "o")]
    )
