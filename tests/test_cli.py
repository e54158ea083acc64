"""Command-line behavior: verbs, exit codes, the one-line error contract,
and config-file layering. Commands run in-process through main()."""

import argparse
import gc
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from chatmine import cli, synth
from chatmine.cli import _coerce, _parse_config_file, _settings, main
from chatmine.corpus import PreprocessConfig
from chatmine.encoder import EncoderConfig
from chatmine.errors import ConfigError, ContractViolation, DataError
from chatmine.model import ModelConfig


def write_raw(path, seed=0, n_dialogs=2):
    records = synth.synth_raw_chat_records(seed, n_dialogs)
    path.write_text(
        "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8"
    )
    return path


@pytest.fixture(scope="module")
def cli_ckpts(tmp_path_factory, labeled_path):
    """Small checkpoints trained through the CLI itself."""
    d = tmp_path_factory.mktemp("cli_ckpts")
    paths = {}
    for target in ("issue", "solution"):
        out = d / f"{target}.ckpt"
        rc = main(
            [
                "train",
                "--data", str(labeled_path),
                "--target", target,
                "--out", str(out),
                "--epochs", "2",
                "--encoder-dim", "16",
            ]
        )
        assert rc == 0
        paths[target] = out
    return paths


# -- parser and exit codes -------------------------------------------------


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_missing_required_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["preprocess", "--input", "x.jsonl"])  # --out missing
    assert exc.value.code == 2


def test_missing_input_maps_to_exit_3(tmp_path, capsys):
    rc = main(["preprocess", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err.startswith("error: code=3 reason=")
    assert "\n" not in err


def test_contract_violation_maps_to_exit_4(monkeypatch, capsys):
    def boom(**kw):
        raise ContractViolation("oh\nno")

    monkeypatch.setattr(cli, "run_standard_checks", boom)
    rc = main(["gradcheck"])
    assert rc == 4
    err = capsys.readouterr().err.strip()
    assert err == "error: code=4 reason=oh no"  # collapsed to one line


def test_missing_config_file_maps_to_exit_3(tmp_path, capsys):
    rc = main(
        ["--config", str(tmp_path / "none.cfg"), "preprocess", "--input", "x", "--out", "y"]
    )
    assert rc == 3
    assert "config file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, text, want",
    [
        ("placeholder_rules_path", "# rules\nURL\t([a-z\n", "{p}:2: bad regex"),
        ("placeholder_rules_path", "URL (no tab)\n", "{p}:1: bad rule"),
        ("placeholder_rules_path", "U\\1RL\tx\n", "{p}:1: bad rule"),
        ("placeholder_rules_path", "URL\ta{99999999999}\n", "{p}:1: bad regex"),
        ("lemma_rules_path", "!went\ning\t\tx\tfix\n", "{p}:2: bad lemma rule"),
        ("lemma_rules_path", "ing\t\n", "{p}:1: bad lemma rule"),
        ("acronyms_path", "brb be right back\n", "{p}:1: map line without TAB"),
        # an empty key would match between every two characters of a message
        ("emoji_path", "\t[EMOJI_POS]\n", "{p}:1: map line with an empty key"),
        ("acronyms_path", "brb\tbe right back\n\tfoo\n", "{p}:2: map line with an empty key"),
        ("emoji_path", None, "cannot read lexicon file {p}: No such file"),
        ("stopwords_path", "", "cannot read lexicon file {p}: Is a directory"),
    ],
    ids=["bad-regex", "rule-without-tab", "backslash-in-name", "huge-repeat", "bad-min-stem",
         "short-lemma-rule", "map-without-tab", "empty-emoji-key", "empty-acronym-key", "missing",
         "directory"],
)
def test_bad_lexicon_exits_3_naming_its_line(tmp_path, capsys, key, text, want):
    # text None leaves the lexicon missing; "" makes it a directory
    lexicon = tmp_path / "lexicon"
    if text:
        lexicon.write_text(text, encoding="utf-8")
    elif text == "":
        lexicon.mkdir()
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{key}={lexicon}\n", encoding="utf-8")
    raw = write_raw(tmp_path / "raw.jsonl")
    rc = main(["--config", str(cfg), "preprocess", "--input", str(raw), "--out", str(tmp_path / "c")])
    assert want.format(p=lexicon) in assert_data_error(rc, capsys)


@pytest.mark.parametrize("table", ["nope.txt", "."], ids=["missing", "directory"])
def test_extract_with_an_unreadable_encoder_table_exits_3(tmp_path, cli_ckpts, capsys, table):
    rc = main(
        [
            "extract",
            "--input", str(write_raw(tmp_path / "raw.jsonl")),
            "--issue-ckpt", str(cli_ckpts["issue"]),
            "--solution-ckpt", str(cli_ckpts["solution"]),
            "--out", str(tmp_path / "pairs.jsonl"),
            "--encoder-dim", "16",
            "--encoder-provider", "table",
            "--encoder-table", str(tmp_path / table),
        ]
    )
    assert f"cannot read embedding table {tmp_path / table}" in assert_data_error(rc, capsys)


# -- config handling -------------------------------------------------------


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# comment\n\nlr = 0.01\nname = \"quoted\"\n", encoding="utf-8"
    )
    assert _parse_config_file(p) == {"lr": "0.01", "name": "quoted"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        _parse_config_file(bad)


def test_coerce_booleans_and_numbers():
    assert _coerce("true", bool) is True
    assert _coerce("0", bool) is False
    assert _coerce("3", int) == 3
    assert _coerce("0.5", float) == 0.5
    with pytest.raises(ConfigError):
        _coerce("maybe", bool)
    with pytest.raises(ConfigError):
        _coerce("abc", int)


def model_args(**kw):
    base = dict(
        seed=0, batch_size=None, dropout=None, lr=None, max_epochs=None,
        patience=None, issue_threshold=None, solution_threshold=None,
    )
    base.update(kw)
    return argparse.Namespace(**base)


def test_cli_flags_override_config_file_values():
    file_cfg = {"dropout": "0.3", "max_epochs": "7"}
    cfg = _settings(ModelConfig(), model_args(dropout=0.2), file_cfg)
    assert cfg.dropout == 0.2  # explicit flag wins
    assert cfg.max_epochs == 7  # file fills what flags leave unset
    assert cfg.batch_size == 8  # untouched default


def train_argv(tmp_path, labeled_path, target, out):
    """A brief training run of ``target`` writing ``out``."""
    if target == "link":
        data, flags = write_link_data(tmp_path), ["--link-hidden", "4"]
    else:
        data, flags = labeled_path, ["--encoder-dim", "16"]
    return ["train", "--data", str(data), "--target", target, "--out", str(out), "--epochs", "1",
            *flags]


@pytest.mark.parametrize("target", ["issue", "solution", "link"])
def test_config_seed_is_read_and_the_seed_flag_wins(tmp_path, labeled_path, target):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed=5\n", encoding="utf-8")

    def train(name, *global_flags):
        out = tmp_path / f"{name}.ckpt"
        assert main([*global_flags, *train_argv(tmp_path, labeled_path, target, out)]) == 0
        return out.read_bytes()

    from_config = train("config", "--config", str(cfg))
    assert from_config == train("flag", "--seed", "5")
    seed0 = train("default")
    assert from_config != seed0
    assert train("both", "--config", str(cfg), "--seed", "0") == seed0


@pytest.mark.parametrize("target", ["issue", "link"])
def test_negative_config_seed_exits_3(tmp_path, labeled_path, target, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed=-1\n", encoding="utf-8")
    out = tmp_path / "neg.ckpt"
    rc = main(["--config", str(cfg), *train_argv(tmp_path, labeled_path, target, out)])
    assert "seed" in assert_data_error(rc, capsys)
    assert not out.exists()


def test_encoder_config_uses_prefixed_keys():
    file_cfg = {"encoder_dim": "32", "encoder_seed": "4"}
    args = argparse.Namespace(encoder_dim=None, encoder_provider=None, encoder_table_path=None)
    cfg = _settings(EncoderConfig(), args, file_cfg, prefix="encoder_")
    assert (cfg.dim, cfg.seed) == (32, 4)
    cfg2 = _settings(
        EncoderConfig(),
        argparse.Namespace(encoder_dim=64, encoder_provider=None, encoder_table_path=None),
        file_cfg,
        prefix="encoder_",
    )
    assert cfg2.dim == 64


def test_no_typo_correction_flag_reaches_the_preprocess_config(tmp_path, monkeypatch):
    seen = []
    real = cli.preprocess_chat_log
    monkeypatch.setattr(
        cli, "preprocess_chat_log", lambda log, cfg: seen.append(cfg.typo_correction) or real(log, cfg)
    )
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("typo_correction=true\n", encoding="utf-8")
    argv = ["preprocess", "--input", str(write_raw(tmp_path / "raw.jsonl")), "--out", str(tmp_path / "c")]
    assert main(argv) == 0
    assert main([*argv, "--no-typo-correction"]) == 0
    assert main(["--config", str(cfg), *argv, "--no-typo-correction"]) == 0
    cfg.write_text("typo_correction=false\n", encoding="utf-8")
    assert main(["--config", str(cfg), *argv]) == 0
    assert seen == [True, False, False, False]


def test_config_file_thresholds_reach_extract_and_a_flag_beats_them(tmp_path, monkeypatch):
    # the bench checkpoints gate at 0.5 (issue) and 0.4 (solution); on this
    # log a solution threshold of 0.8 drops one of the six solutions
    seen = []
    real = cli.model_mod.extract_pairs

    def spy(clean, dialogs, issue, solution, cfg, enc_cfg):
        seen.append((cfg.issue_threshold, cfg.solution_threshold))
        return real(clean, dialogs, issue, solution, cfg, enc_cfg)

    monkeypatch.setattr(cli.model_mod, "extract_pairs", spy)
    ckpts = Path(__file__).resolve().parent.parent / "perfbench" / "checkpoints"
    raw = write_raw(tmp_path / "raw.jsonl", seed=1, n_dialogs=4)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("issue_threshold=0.7\nsolution_threshold=0.8\n", encoding="utf-8")

    def extract(config, *flags):
        out = tmp_path / "pairs.jsonl"
        given = ["--config", str(cfg)] if config else []
        assert main([*given, "extract", "--input", str(raw), "--out", str(out),
                     "--issue-ckpt", str(ckpts / "issue.ckpt"),
                     "--solution-ckpt", str(ckpts / "solution.ckpt"), *flags]) == 0
        return out.read_bytes()

    default = extract(False)
    from_config = extract(True)
    from_flags = extract(False, "--issue-threshold", "0.7", "--solution-threshold", "0.8")
    flag_wins = extract(True, "--solution-threshold", "0.4")
    assert seen == [(0.5, 0.4), (0.7, 0.8), (0.7, 0.8), (0.7, 0.4)]
    assert from_config == from_flags != default
    assert flag_wins == default


# flags that name a verb's inputs and outputs or set what only that verb
# reads; every other flag stores into the config key of its setting
NOT_CONFIG_KEYS = {
    "help", "config", "input", "out", "data", "target", "community", "issue_ckpt",
    "solution_ckpt", "link_ckpt", "link_hidden", "threshold", "lookback", "tol", "step", "seeds",
}


# (flag, config key, an out-of-range value, a verb reading the setting)
OUT_OF_RANGE = {
    "seed-negative": ("--seed", "seed", "-1", "preprocess"),
    "perplexity-zero": ("--perplexity-threshold", "perplexity_threshold", "0", "preprocess"),
    "merge-gap-negative": ("--merge-gap-ms", "merge_time_gap_max_ms", "-100", "preprocess"),
    "link-epochs-negative": ("--epochs", "max_epochs", "-3", "train:link"),
    "epochs-zero": ("--epochs", "max_epochs", "0", "train:issue"),
    "batch-size-zero": ("--batch-size", "batch_size", "0", "train:issue"),
    "dropout-one": ("--dropout", "dropout", "1.0", "train:solution"),
    "lr-nan": ("--lr", "lr", "nan", "train:issue"),
    "lr-negative": ("--lr", "lr", "-1", "train:issue"),
    "lr-inf": ("--lr", "lr", "inf", "eval"),
    "patience-zero": ("--patience", "patience", "0", "eval"),
    "issue-threshold-high": ("--issue-threshold", "issue_threshold", "0.9", "extract"),
    "solution-threshold-low": ("--solution-threshold", "solution_threshold", "0.1", "extract"),
    "encoder-dim-zero": ("--encoder-dim", "encoder_dim", "0", "extract"),
    "encoder-provider-unknown": ("--encoder-provider", "encoder_provider", "bert", "train:issue"),
}
# settings flags without a range: switches, and a path read only when used
NO_RANGE = {"typo_correction", "balance", "encoder_table_path"}


def test_every_settings_flag_stores_into_its_config_key():
    # and each one with a range has an out-of-range case below
    parser = cli.build_parser()
    verbs = parser._subparsers._group_actions[0].choices
    flags = {flag for flag, *_ in OUT_OF_RANGE.values()}
    dests = set()
    for verb in ("preprocess", "train", "extract", "eval"):
        for action in parser._actions + verbs[verb]._actions:
            if action.option_strings and action.dest not in NOT_CONFIG_KEYS:
                assert action.dest in cli._CONFIG_KEYS, (verb, action.option_strings)
                assert action.dest in NO_RANGE or action.option_strings[0] in flags, (verb, action.dest)
                dests.add(action.dest)
    assert {"seed", "typo_correction", "merge_time_gap_max_ms", "max_epochs",
            "encoder_table_path"} <= dests


def settings_argv(verb, tmp_path, out):
    """argv running ``verb`` on inputs that do not exist: the settings are
    checked before a verb reads anything."""
    missing = str(tmp_path / "missing.jsonl")
    if verb in ("preprocess", "disentangle"):
        return [verb, "--input", missing, "--out", str(out)]
    if verb == "extract":
        return ["extract", "--input", missing, "--out", str(out),
                "--issue-ckpt", missing, "--solution-ckpt", missing]
    if verb == "eval":
        return ["eval", "--data", missing, "--out", str(out)]
    if verb == "gradcheck":
        return ["gradcheck"]
    return ["train", "--data", missing, "--target", verb.split(":")[1], "--out", str(out)]


def run_setting(tmp_path, verb, key, value, flag=None):
    """Exit code of ``verb`` given ``key`` as ``value``: by ``flag`` when one
    is named, else by a config file."""
    out = tmp_path / "out"
    argv = settings_argv(verb, tmp_path, out)
    if flag == "--seed":
        argv = [flag, value, *argv]
    elif flag is not None:
        argv = [*argv, flag, value]
    else:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key}={value}\n", encoding="utf-8")
        argv = ["--config", str(cfg), *argv]
    rc = main(argv)
    assert not out.exists()
    return rc


def dataclass_reason(key, value):
    """The message the config class gives for ``key`` = ``value``."""
    if key.startswith("encoder_"):
        cls, name = EncoderConfig, key[len("encoder_"):]
    else:
        cls = ModelConfig if key in {f.name for f in fields(ModelConfig)} else PreprocessConfig
        name = key
    kind = next(type(f.default) for f in fields(cls) if f.name == name)
    with pytest.raises(ConfigError) as exc:
        cls(**{name: kind(value)})
    return str(exc.value)


@pytest.mark.parametrize("case", list(OUT_OF_RANGE), ids=list(OUT_OF_RANGE))
def test_out_of_range_setting_exits_3_from_flag_and_key(tmp_path, capsys, case):
    # the config classes alone hold the range rules: a flag and its config
    # key fail the same way, before the verb reads its inputs
    flag, key, value, verb = OUT_OF_RANGE[case]
    want = f"error: code=3 reason={dataclass_reason(key, value)}"
    from_flag = assert_data_error(run_setting(tmp_path, verb, key, value, flag), capsys)
    from_key = assert_data_error(run_setting(tmp_path, verb, key, value), capsys)
    assert from_flag.strip().splitlines()[-1] == want
    assert from_key.strip().splitlines()[-1] == want


@pytest.mark.parametrize(
    "verb", ["preprocess", "disentangle", "train:issue", "train:link", "extract", "eval", "gradcheck"]
)
def test_negative_seed_exits_3_in_every_verb(tmp_path, capsys, verb):
    for flag in ("--seed", None):
        err = assert_data_error(run_setting(tmp_path, verb, "seed", "-1", flag), capsys)
        assert "reason=seed must be >= 0, got -1" in err


# -- pipeline verbs --------------------------------------------------------


def test_preprocess_writes_clean_log(tmp_path, capsys):
    raw = write_raw(tmp_path / "raw.jsonl")
    out = tmp_path / "clean.jsonl"
    rc = main(["preprocess", "--input", str(raw), "--out", str(out), "--community", "c1"])
    assert rc == 0
    lines = [json.loads(l) for l in out.read_text().strip().splitlines()]
    assert lines
    for i, obj in enumerate(lines):
        assert obj["index"] == i
        assert set(obj) >= {"time", "id", "text", "clean_text", "tokens"}
    assert "utterances" in capsys.readouterr().err


def test_disentangle_outputs_dialog_records(tmp_path):
    raw = write_raw(tmp_path / "raw.jsonl", seed=3)
    clean = tmp_path / "clean.jsonl"
    dialogs = tmp_path / "dialogs.jsonl"
    assert main(["preprocess", "--input", str(raw), "--out", str(clean)]) == 0
    assert main(["disentangle", "--input", str(clean), "--out", str(dialogs)]) == 0
    records = [json.loads(l) for l in dialogs.read_text().strip().splitlines()]
    assert records
    n = len(clean.read_text().strip().splitlines())
    seen = sorted(i for r in records for i in r["members"])
    assert seen == list(range(n))
    for r in records:
        assert set(r) == {
            "subject", "members", "links", "initiator",
            "head_indices", "body_indices", "head_text",
        }
        assert r["subject"] == min(r["members"])
        assert sorted(r["head_indices"] + r["body_indices"]) == r["members"]


def test_train_rejects_unknown_target(labeled_path, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(labeled_path), "--target", "oracle", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_extract_end_to_end_and_reruns_identically(tmp_path, cli_ckpts, capsys):
    raw = write_raw(tmp_path / "raw.jsonl", seed=5, n_dialogs=3)
    out1 = tmp_path / "pairs1.jsonl"
    out2 = tmp_path / "pairs2.jsonl"
    argv = [
        "extract",
        "--input", str(raw),
        "--issue-ckpt", str(cli_ckpts["issue"]),
        "--solution-ckpt", str(cli_ckpts["solution"]),
        "--encoder-dim", "16",
    ]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    for line in out1.read_text().strip().splitlines():
        if line:
            obj = json.loads(line)
            assert set(obj) == {
                "community_id", "subject_id", "issue_text",
                "solutions", "status", "p_issue",
            }


def test_extract_rejects_mismatched_encoder(tmp_path, cli_ckpts, capsys):
    raw = write_raw(tmp_path / "raw.jsonl")
    rc = main(
        [
            "extract",
            "--input", str(raw),
            "--issue-ckpt", str(cli_ckpts["issue"]),
            "--solution-ckpt", str(cli_ckpts["solution"]),
            "--out", str(tmp_path / "pairs.jsonl"),
            "--encoder-dim", "800",
        ]
    )
    assert rc == 3
    assert "dim" in capsys.readouterr().err


def test_threshold_flags_must_stay_in_range(tmp_path, cli_ckpts, capsys):
    raw = write_raw(tmp_path / "raw.jsonl")
    rc = main(
        [
            "extract",
            "--input", str(raw),
            "--issue-ckpt", str(cli_ckpts["issue"]),
            "--solution-ckpt", str(cli_ckpts["solution"]),
            "--out", str(tmp_path / "pairs.jsonl"),
            "--encoder-dim", "16",
            "--issue-threshold", "0.95",
        ]
    )
    assert rc == 3
    assert "threshold" in capsys.readouterr().err


def test_gradcheck_verb_passes_and_reports(capsys):
    rc = main(["gradcheck", "--seeds", "1", "--tol", "1e-3"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 10  # one line per fragment
    for line in lines:
        assert line.endswith("PASS")
        assert "max_rel_error=" in line


def test_main_leaves_no_parser_garbage(tmp_path):
    # a parser is a web of reference cycles: one built per call lived until
    # the cyclic collector ran, keeping freed heap resident meanwhile
    argv = ["preprocess", "--input", str(write_raw(tmp_path / "raw.jsonl")), "--out", str(tmp_path / "c")]
    assert main(argv) == 0
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        modules = {type(o).__module__ for o in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert "argparse" not in modules


def test_console_entry_point_help(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "chatmine.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "preprocess" in proc.stdout
    assert "extract" in proc.stdout


# -- bad input exits 3 -----------------------------------------------------


def assert_data_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 3
    assert sum(line.startswith("error: code=3 ") for line in err.splitlines()) == 1
    assert "Traceback" not in err
    return err


GOOD_UTTS = [
    {"time": 1000, "id": "ann", "text": "why does the build fail?"},
    {"time": 2000, "id": "bob", "text": "clear the cache"},
]


@pytest.mark.parametrize(
    "utterances, links",
    [
        ([{"id": "ann", "text": "hi"}], []),
        ([{"time": 1000, "text": "hi"}], []),
        ([{"time": 1000, "id": "ann"}], []),
        ([{"time": 1000, "id": "ann", "text": 5}], []),
        (GOOD_UTTS, [[1]]),
        (GOOD_UTTS, [["x", 0]]),
        (GOOD_UTTS, [[1.5, 0]]),
        (GOOD_UTTS, [[1, False]]),
        ([GOOD_UTTS[0], {**GOOD_UTTS[1], "time": 2000.5}], [[1, 0]]),
    ],
    ids=["no-time", "no-id", "no-text", "text-not-string", "short-link", "bad-link-index",
         "fractional-link-index", "bool-link-index", "fractional-time"],
)
def test_train_link_on_malformed_record_exits_3(tmp_path, capsys, utterances, links):
    data = tmp_path / "links.jsonl"
    records = [{"utterances": GOOD_UTTS, "links": [[1, 0]]}, {"utterances": utterances, "links": links}]
    data.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    rc = main(["train", "--data", str(data), "--target", "link", "--out", str(tmp_path / "l.ckpt")])
    err = assert_data_error(rc, capsys)
    assert f"{data}:2: bad" in err


def write_link_data(tmp_path):
    data = tmp_path / "links.jsonl"
    utts = GOOD_UTTS + [{"time": 3000, "id": "ann", "text": "thanks, that fixed it"}]
    record = {"utterances": utts, "links": [[1, 0], [2, 1]]}
    data.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return data


@pytest.mark.parametrize(
    "flags",
    [["--lr", "0.5"], ["--batch-size", "3"], ["--dropout", "0"], ["--balance"],
     ["--encoder-dim", "16"], ["--encoder-table", "emb.txt"], ["--lr", "0.5", "--batch-size", "3"]],
    ids=["lr", "batch-size", "dropout-zero", "balance", "encoder-dim", "encoder-table", "both"],
)
def test_train_link_rejects_classifier_flags(tmp_path, flags, capsys):
    # link training has its own fixed lr and batch size; a classifier flag
    # it would not read is a usage error, not silently ignored
    out = tmp_path / "link.ckpt"
    argv = ["train", "--data", str(write_link_data(tmp_path)), "--target", "link",
            "--out", str(out), "--link-hidden", "4", "--epochs", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + flags)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # each flag named as typed, not by its dest
    named = err.split("takes no ")[1].split(" (classifier settings)")[0].split(", ")
    assert set(named) == set(flags[::2])
    assert not out.exists()


@pytest.mark.parametrize("line", ["lr=0.5", "batch_size=3", "encoder_dim=16"])
def test_train_link_rejects_classifier_config_keys(tmp_path, line, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("merge_time_gap_max_ms=1000\n" + line + "\n", encoding="utf-8")
    out = tmp_path / "link.ckpt"
    argv = ["train", "--data", str(write_link_data(tmp_path)), "--target", "link",
            "--out", str(out), "--link-hidden", "4", "--epochs", "1"]
    err = assert_data_error(main(["--config", str(cfg)] + argv), capsys)
    assert line.split("=")[0] in err
    assert not out.exists()
    # preprocessing keys alone are read, as before
    cfg.write_text("merge_time_gap_max_ms=1000\n", encoding="utf-8")
    assert main(["--config", str(cfg)] + argv) == 0
    assert out.exists()


def test_train_link_reads_max_epochs_from_config_and_the_flag_wins(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("max_epochs=2\n", encoding="utf-8")
    argv = ["--config", str(cfg), "train", "--data", str(write_link_data(tmp_path)),
            "--target", "link", "--out", str(tmp_path / "link.ckpt"), "--link-hidden", "4"]

    def losses(*flags):
        assert main(argv + list(flags)) == 0
        line = capsys.readouterr().err.strip().splitlines()[-1]
        return line.split("link scorer loss: ")[1].split()

    assert len(losses()) == 2
    assert len(losses("--epochs", "1")) == 1


def extract_with_issue_ckpt(tmp_path, issue_ckpt, solution_ckpt):
    return main(
        [
            "extract",
            "--input", str(write_raw(tmp_path / "raw.jsonl")),
            "--issue-ckpt", str(issue_ckpt),
            "--solution-ckpt", str(solution_ckpt),
            "--out", str(tmp_path / "pairs.jsonl"),
            "--encoder-dim", "16",
        ]
    )


@pytest.mark.parametrize("field", ["conv_spec", "heuristic_stats", "model_config"])
@pytest.mark.parametrize("edit", ["drop", "mistype"])
def test_extract_with_broken_manifest_field_exits_3(tmp_path, cli_ckpts, capsys, field, edit):
    from chatmine import checkpoint as ckpt_io

    ck = ckpt_io.load_checkpoint(cli_ckpts["issue"])
    manifest = dict(ck.manifest)
    if edit == "drop":
        del manifest[field]
    else:
        manifest[field] = [1, 2]
    bad = tmp_path / "issue.ckpt"
    ckpt_io.save_checkpoint(bad, ck.params, manifest)
    err = assert_data_error(extract_with_issue_ckpt(tmp_path, bad, cli_ckpts["solution"]), capsys)
    assert field in err


def test_extract_with_swapped_checkpoints_exits_3(tmp_path, cli_ckpts, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    rc = main(
        [
            "extract",
            "--input", str(empty),
            "--issue-ckpt", str(cli_ckpts["solution"]),
            "--solution-ckpt", str(cli_ckpts["issue"]),
            "--out", str(tmp_path / "pairs.jsonl"),
            "--encoder-dim", "16",
        ]
    )
    err = assert_data_error(rc, capsys)
    assert "target" in err


@pytest.mark.parametrize("verb", ["preprocess", "extract"])
@pytest.mark.parametrize(
    "text, n_skipped",
    [("", 0), ('not json\n{"id": "ann", "text": "no time"}\n', 2)],
    ids=["empty", "all-skipped"],
)
def test_raw_log_with_no_utterances_exits_3(tmp_path, cli_ckpts, capsys, verb, text, n_skipped):
    log, out = tmp_path / "raw.jsonl", tmp_path / "out.jsonl"
    log.write_text(text, encoding="utf-8")
    argv = [verb, "--input", str(log), "--out", str(out)]
    if verb == "extract":
        argv += ["--issue-ckpt", str(cli_ckpts["issue"]),
                 "--solution-ckpt", str(cli_ckpts["solution"]), "--encoder-dim", "16"]
    err = assert_data_error(main(argv), capsys)
    lines = err.strip().splitlines()
    # the skipped-line notes come first, then the one error line
    assert lines[-1] == f"error: code=3 reason={log}: no utterances"
    assert [line.startswith("skipped line ") for line in lines[-1 - n_skipped:-1]] == [True] * n_skipped
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank-lines"])
def test_disentangle_on_a_clean_log_with_no_utterances_exits_3(tmp_path, capsys, text):
    log, out = tmp_path / "clean.jsonl", tmp_path / "dialogs.jsonl"
    log.write_text(text, encoding="utf-8")
    err = assert_data_error(main(["disentangle", "--input", str(log), "--out", str(out)]), capsys)
    assert err.strip().splitlines()[-1] == f"error: code=3 reason={log}: no utterances"
    assert not out.exists()


def test_train_on_non_list_utterances_exits_3(tmp_path, capsys):
    data = tmp_path / "labeled.jsonl"
    data.write_text(
        json.dumps({"community_id": "c", "utterances": 5, "y_issue": 0}) + "\n", encoding="utf-8"
    )
    rc = main(["train", "--data", str(data), "--target", "issue", "--out", str(tmp_path / "i.ckpt")])
    err = assert_data_error(rc, capsys)
    assert f"{data}:1: bad record" in err


@pytest.mark.parametrize(
    "edit",
    [{"y_solution": 5}, {"y_solution": [1, "x"]}, {"community_id": [1]}],
    ids=["y-solution-int", "y-solution-entry", "community-list"],
)
def test_train_on_malformed_labeled_record_exits_3(tmp_path, capsys, edit):
    record = {"community_id": "c", "utterances": GOOD_UTTS, "y_issue": 1, "y_solution": [1]}
    data = tmp_path / "labeled.jsonl"
    data.write_text(json.dumps({**record, **edit}) + "\n", encoding="utf-8")
    rc = main(["train", "--data", str(data), "--target", "issue", "--out", str(tmp_path / "i.ckpt")])
    err = assert_data_error(rc, capsys)
    assert f"{data}:1: bad record" in err


@pytest.mark.parametrize(
    "edit",
    [{"y_issue": 1.9}, {"y_issue": True}, {"y_solution": [0.9]}, {"y_solution": [True]},
     {"utterances": [GOOD_UTTS[0], {**GOOD_UTTS[1], "time": 2.7}]}],
    ids=["fractional-y-issue", "bool-y-issue", "fractional-y-solution", "bool-y-solution",
         "fractional-time"],
)
def test_train_rejects_labels_and_times_it_would_truncate(tmp_path, capsys, edit):
    good = {"community_id": "c", "utterances": GOOD_UTTS, "y_issue": 0}
    record = {"community_id": "c", "utterances": GOOD_UTTS, "y_issue": 1, "y_solution": [1]}
    data = tmp_path / "labeled.jsonl"
    data.write_text(json.dumps(good) + "\n" + json.dumps({**record, **edit}) + "\n", encoding="utf-8")
    rc = main(["train", "--data", str(data), "--target", "issue", "--out", str(tmp_path / "i.ckpt")])
    assert f"{data}:2: bad" in assert_data_error(rc, capsys)


def rewrite_manifest(src, dst, edit):
    """Copy a checkpoint with ``edit`` applied to its parsed manifest."""
    import struct

    raw = src.read_bytes()
    (mlen,) = struct.unpack("<I", raw[:4])
    manifest = json.loads(raw[4 : 4 + mlen])
    edit(manifest)
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    dst.write_bytes(struct.pack("<I", len(body)) + body + raw[4 + mlen :])
    return dst


@pytest.mark.parametrize("field", ["name", "shape", "offset"])
def test_extract_with_broken_params_entry_exits_3(tmp_path, cli_ckpts, capsys, field):
    bad = rewrite_manifest(
        cli_ckpts["issue"], tmp_path / "issue.ckpt", lambda man: man["params"][0].pop(field)
    )
    err = assert_data_error(extract_with_issue_ckpt(tmp_path, bad, cli_ckpts["solution"]), capsys)
    assert repr(field) in err


def test_extract_with_partial_float_blob_exits_3(tmp_path, cli_ckpts, capsys):
    bad = tmp_path / "issue.ckpt"
    bad.write_bytes(cli_ckpts["issue"].read_bytes() + b"\x00")
    err = assert_data_error(extract_with_issue_ckpt(tmp_path, bad, cli_ckpts["solution"]), capsys)
    assert "float32" in err


def reshape_param(name, shape):
    def edit(manifest):
        (entry,) = [e for e in manifest["params"] if e["name"] == name]
        entry["shape"] = shape

    return edit


@pytest.mark.parametrize(
    "name, shape", [("fc1.w", [413, 64]), ("conv1.b", [2, 512])], ids=["fc1.w", "conv1.b"]
)
def test_extract_with_misshapen_parameter_exits_3(tmp_path, cli_ckpts, capsys, name, shape):
    bad = rewrite_manifest(cli_ckpts["issue"], tmp_path / "issue.ckpt", reshape_param(name, shape))
    err = assert_data_error(extract_with_issue_ckpt(tmp_path, bad, cli_ckpts["solution"]), capsys)
    assert repr(name) in err


def test_disentangle_with_misshapen_link_parameter_exits_3(tmp_path, capsys):
    from chatmine import disentangle

    good = tmp_path / "link.ckpt"
    disentangle.save_link_checkpoint(good, disentangle.init_link_params(np.random.default_rng(0), 64))
    bad = rewrite_manifest(good, tmp_path / "bad.ckpt", reshape_param("link.W2", [32, 128]))
    clean = tmp_path / "clean.jsonl"
    assert main(["preprocess", "--input", str(write_raw(tmp_path / "raw.jsonl")), "--out", str(clean)]) == 0
    argv = ["disentangle", "--input", str(clean), "--out", str(tmp_path / "d.jsonl"), "--link-ckpt"]
    assert main(argv + [str(good)]) == 0
    err = assert_data_error(main(argv + [str(bad)]), capsys)
    assert "'link.W2'" in err


@pytest.mark.parametrize("body", [b"9" * 5000, b"[" * 100_000], ids=["long-integer", "deep-nesting"])
def test_extract_with_an_unparsable_manifest_exits_3(tmp_path, cli_ckpts, capsys, body):
    import struct

    bad = tmp_path / "issue.ckpt"
    bad.write_bytes(struct.pack("<I", len(body)) + body)
    err = assert_data_error(extract_with_issue_ckpt(tmp_path, bad, cli_ckpts["solution"]), capsys)
    assert "checkpoint manifest unreadable" in err


def test_disentangle_with_nan_link_weight_exits_3(tmp_path, capsys):
    from chatmine import disentangle

    params = disentangle.init_link_params(np.random.default_rng(0), 8)
    params["link.W1"].data[3, 5] = np.nan
    bad = tmp_path / "link.ckpt"
    disentangle.save_link_checkpoint(bad, params)
    clean = tmp_path / "clean.jsonl"
    assert main(["preprocess", "--input", str(write_raw(tmp_path / "raw.jsonl")), "--out", str(clean)]) == 0
    capsys.readouterr()
    rc = main(["disentangle", "--input", str(clean), "--out", str(tmp_path / "d.jsonl"), "--link-ckpt", str(bad)])
    err = assert_data_error(rc, capsys)
    assert "'link.W1'" in err and "not finite" in err


def test_extract_with_infinite_issue_weight_exits_3(tmp_path, cli_ckpts, capsys):
    from chatmine import checkpoint as ckpt_io

    ck = ckpt_io.load_checkpoint(cli_ckpts["issue"])
    params = dict(ck.params)
    params["fc2.w"] = params["fc2.w"].copy()
    params["fc2.w"][1, 0] = np.inf
    bad = tmp_path / "issue.ckpt"
    ckpt_io.save_checkpoint(bad, params, ck.manifest)
    err = assert_data_error(extract_with_issue_ckpt(tmp_path, bad, cli_ckpts["solution"]), capsys)
    assert "'fc2.w'" in err and "not finite" in err


def test_train_with_nan_lr_in_config_exits_3(tmp_path, labeled_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("lr=nan\n", encoding="utf-8")
    rc = main(
        ["--config", str(cfg), "train", "--data", str(labeled_path), "--target", "issue",
         "--out", str(tmp_path / "issue.ckpt")]
    )
    assert "lr" in assert_data_error(rc, capsys)
    assert not (tmp_path / "issue.ckpt").exists()


@pytest.mark.parametrize("beta1", ["1.0", "nan", "-0.5"])
def test_train_with_beta1_outside_the_unit_interval_exits_3(tmp_path, labeled_path, capsys, beta1):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"beta1={beta1}\n", encoding="utf-8")
    out = tmp_path / "issue.ckpt"
    rc = main(["--config", str(cfg), "train", "--data", str(labeled_path), "--target", "issue",
               "--out", str(out), "--epochs", "1", "--encoder-dim", "16"])
    assert "beta1" in assert_data_error(rc, capsys)
    assert not out.exists()


@pytest.mark.parametrize("target", ["issue", "solution", "link"])
def test_train_with_zero_epochs_exits_3(tmp_path, labeled_path, capsys, target):
    data = write_link_data(tmp_path) if target == "link" else labeled_path
    out = tmp_path / f"{target}.ckpt"
    rc = main(["train", "--data", str(data), "--target", target, "--out", str(out), "--epochs", "0"])
    assert "epochs must be >= 1" in assert_data_error(rc, capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, config, name",
    [
        (["--perplexity-threshold", "nan"], None, "perplexity_threshold"),
        (["--perplexity-threshold", "0"], None, "perplexity_threshold"),
        (["--merge-gap-ms", "-100"], None, "merge_time_gap_max_ms"),
        ([], "vocab_min_count=-3", "vocab_min_count"),
        ([], "typo_min_len=0", "typo_min_len"),
        ([], "perplexity_threshold=nan", "perplexity_threshold"),
    ],
    ids=["nan-perplexity-flag", "zero-perplexity-flag", "negative-merge-gap-flag",
         "negative-vocab-min-count", "zero-typo-min-len", "nan-perplexity-key"],
)
def test_preprocess_setting_out_of_range_exits_3(tmp_path, capsys, flags, config, name):
    raw = write_raw(tmp_path / "raw.jsonl")
    out = tmp_path / "clean.jsonl"
    argv = ["preprocess", "--input", str(raw), "--out", str(out), *flags]
    if config is not None:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config + "\n", encoding="utf-8")
        argv = ["--config", str(cfg), *argv]
    assert f"{name} must be" in assert_data_error(main(argv), capsys)
    assert not out.exists()


def test_preprocess_settings_at_their_bounds_are_accepted(tmp_path):
    raw = write_raw(tmp_path / "raw.jsonl")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("vocab_min_count=1\ntypo_min_len=1\n", encoding="utf-8")
    out = tmp_path / "clean.jsonl"
    rc = main(["--config", str(cfg), "preprocess", "--input", str(raw), "--out", str(out),
               "--merge-gap-ms", "0", "--perplexity-threshold", "1e-300"])
    assert rc == 0 and out.read_text(encoding="utf-8")


def test_misspelled_config_key_exits_3(tmp_path, labeled_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("bacth_size=3\n", encoding="utf-8")
    out = tmp_path / "issue.ckpt"
    rc = main(["--config", str(cfg), "train", "--data", str(labeled_path), "--target", "issue",
               "--out", str(out), "--epochs", "1", "--encoder-dim", "16"])
    err = assert_data_error(rc, capsys)
    assert str(cfg) in err and "bacth_size" in err
    assert not out.exists()
    raw = write_raw(tmp_path / "raw.jsonl")
    rc = main(["--config", str(cfg), "preprocess", "--input", str(raw), "--out", str(tmp_path / "c")])
    assert "bacth_size" in assert_data_error(rc, capsys)
    assert not (tmp_path / "c").exists()


def test_train_with_non_finite_table_value_exits_3(tmp_path, labeled_path, capsys):
    table = tmp_path / "emb.txt"
    table.write_text("hello 1 0 0 0\nrestart nan 1 2 3\n", encoding="utf-8")
    out = tmp_path / "issue.ckpt"
    rc = main(["train", "--data", str(labeled_path), "--target", "issue", "--out", str(out),
               "--epochs", "1", "--encoder-dim", "4", "--encoder-provider", "table",
               "--encoder-table", str(table)])
    err = assert_data_error(rc, capsys)
    assert f"{table}:2" in err and "not finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gradcheck", "--seeds", "a,b"],
        ["gradcheck", "--step", "0"],
        ["gradcheck", "--tol", "nan"],
        ["train", "--data", "d", "--target", "link", "--out", "o", "--link-hidden", "-1"],
        ["train", "--data", "d", "--target", "issue", "--out", "o", "--batch-size", "x"],
        ["--seed", "1.5", "preprocess", "--input", "i", "--out", "o"],
        ["disentangle", "--input", "i", "--out", "o", "--lookback", "-3"],
        ["disentangle", "--input", "i", "--out", "o", "--lookback", "0"],
        ["disentangle", "--input", "i", "--out", "o", "--lookback", "2.5"],
        ["disentangle", "--input", "i", "--out", "o", "--threshold", "nan"],
        ["disentangle", "--input", "i", "--out", "o", "--threshold", "1.5"],
        ["disentangle", "--input", "i", "--out", "o", "--threshold", "-0.1"],
        ["disentangle", "--input", "i", "--out", "o", "--threshold", "inf"],
    ],
    ids=[
        "gradcheck-seeds", "gradcheck-step", "gradcheck-tol", "link-hidden",
        "batch-size-not-a-number", "seed-not-a-number",
        "lookback-negative", "lookback-zero", "lookback-fraction",
        "threshold-nan", "threshold-above-one", "threshold-negative", "threshold-inf",
    ],
)
def test_bad_numeric_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_extract_with_other_last_conv_stage_exits_3(tmp_path, capsys):
    # conv_spec and every parameter shape agree on 255 last-stage kernels,
    # but the fused vector needs 256 textual features
    from chatmine import checkpoint as ckpt_io

    ckpts = Path(__file__).resolve().parent.parent / "perfbench" / "checkpoints"
    ck = ckpt_io.load_checkpoint(ckpts / "issue.ckpt")
    params = dict(ck.params)
    params["conv3.w"] = params["conv3.w"][:255]
    params["conv3.b"] = params["conv3.b"][:255]
    params["fc1.w"] = np.delete(params["fc1.w"], 255, axis=1)
    manifest = {k: v for k, v in ck.manifest.items() if k not in ("version", "dtype", "params")}
    manifest["conv_spec"] = {**manifest["conv_spec"], "kernel_counts": [1024, 512, 255]}
    bad = tmp_path / "issue.ckpt"
    ckpt_io.save_checkpoint(bad, params, manifest)
    rc = main(
        [
            "extract",
            "--input", str(write_raw(tmp_path / "raw.jsonl")),
            "--issue-ckpt", str(bad),
            "--solution-ckpt", str(ckpts / "solution.ckpt"),
            "--out", str(tmp_path / "pairs.jsonl"),
        ]
    )
    assert "conv_spec" in assert_data_error(rc, capsys)


def set_stat(key, value):
    def edit(manifest):
        manifest["heuristic_stats"][key][0] = value

    return edit


@pytest.mark.parametrize(
    "key, value",
    [("std", 0.0), ("std", float("nan")), ("std", -1.0), ("mean", float("inf"))],
    ids=["zero-std", "nan-std", "negative-std", "infinite-mean"],
)
def test_extract_with_bad_heuristic_stats_exits_3(tmp_path, cli_ckpts, capsys, key, value):
    # fit_heuristic_stats writes finite means and stds of at least 1e-12;
    # anything else would standardize the attributes to inf or nan
    bad = rewrite_manifest(cli_ckpts["issue"], tmp_path / "issue.ckpt", set_stat(key, value))
    rc = extract_with_issue_ckpt(tmp_path, bad, cli_ckpts["solution"])
    assert "heuristic_stats" in assert_data_error(rc, capsys)
    assert not (tmp_path / "pairs.jsonl").exists()


def test_extract_with_a_conv_stack_too_deep_for_the_encoder_exits_3(tmp_path, cli_ckpts, capsys):
    # stage 2's 2 kernels leave stage 3 a sequence shorter than its kernel
    from chatmine import checkpoint as ckpt_io

    ck = ckpt_io.load_checkpoint(cli_ckpts["issue"])
    params = {**ck.params, "conv2.w": ck.params["conv2.w"][:2], "conv2.b": ck.params["conv2.b"][:2]}
    manifest = {k: v for k, v in ck.manifest.items() if k not in ("version", "dtype", "params")}
    manifest["conv_spec"] = {**manifest["conv_spec"], "kernel_counts": [1024, 2, 256]}
    bad = tmp_path / "issue.ckpt"
    ckpt_io.save_checkpoint(bad, params, manifest)
    rc = extract_with_issue_ckpt(tmp_path, bad, cli_ckpts["solution"])
    assert "conv stage 3: sequence length 2 < kernel size 3" in assert_data_error(rc, capsys)
    assert not (tmp_path / "pairs.jsonl").exists()


def test_a_checkpoint_of_another_target_exits_3_with_one_reason(tmp_path, cli_ckpts, capsys):
    # the classifier and link loaders share one target check and its wording
    from chatmine import disentangle

    link = tmp_path / "link.ckpt"
    disentangle.save_link_checkpoint(link, disentangle.init_link_params(np.random.default_rng(0), 4))
    extract_err = assert_data_error(extract_with_issue_ckpt(tmp_path, link, cli_ckpts["solution"]), capsys)
    clean = tmp_path / "clean.jsonl"
    assert main(["preprocess", "--input", str(tmp_path / "raw.jsonl"), "--out", str(clean)]) == 0
    capsys.readouterr()
    rc = main(["disentangle", "--input", str(clean), "--out", str(tmp_path / "d.jsonl"),
               "--link-ckpt", str(cli_ckpts["issue"])])
    disentangle_err = assert_data_error(rc, capsys)
    assert f"reason=checkpoint target 'link' is not issue: {link}" in extract_err
    assert f"reason=checkpoint target 'issue' is not link: {cli_ckpts['issue']}" in disentangle_err


@pytest.mark.parametrize("time", [2**62, -(2**62), 2**70])
def test_disentangle_with_out_of_range_time_exits_3(tmp_path, capsys, time):
    records = [
        {"time": 1000, "id": "ann", "text": "hi", "clean_text": "hi", "tokens": ["hi"]},
        {"time": time, "id": "bob", "text": "yo", "clean_text": "yo", "tokens": ["yo"]},
    ]
    clean = tmp_path / "clean.jsonl"
    clean.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    rc = main(["disentangle", "--input", str(clean), "--out", str(tmp_path / "d.jsonl")])
    want = f"{clean}:2: bad utterance (negative time" if time < 0 else "time out of range"
    assert want in assert_data_error(rc, capsys)


@pytest.mark.parametrize("time", [2**62, 2**70, float(2**62)])
def test_preprocess_skips_an_out_of_range_time_at_its_line(tmp_path, capsys, time):
    # the bound is checked where a raw record is first read: preprocess skips
    # the line with a note naming it, like any other bad raw record, and a log
    # with no other line exits 3
    bad, good = {"time": time, "id": "bob", "text": "yo"}, {"time": 1000, "id": "ann", "text": "hi"}
    raw, clean = tmp_path / "raw.jsonl", tmp_path / "clean.jsonl"
    raw.write_text(json.dumps(bad) + "\n" + json.dumps(good) + "\n", encoding="utf-8")
    assert main(["preprocess", "--input", str(raw), "--out", str(clean)]) == 0
    assert f"skipped line 1: time out of range: {time} >= 2**62" in capsys.readouterr().err
    assert [json.loads(line)["time"] for line in clean.read_text(encoding="utf-8").splitlines()] == [1000]
    raw.write_text(json.dumps(bad) + "\n", encoding="utf-8")
    err = assert_data_error(main(["preprocess", "--input", str(raw), "--out", str(clean)]), capsys)
    assert err.strip().splitlines() == [
        f"skipped line 1: time out of range: {time} >= 2**62",
        f"error: code=3 reason={raw}: no utterances",
    ]


@pytest.mark.parametrize("target", ["issue", "link"])
def test_train_rejects_a_negative_utterance_time(tmp_path, capsys, target):
    utts = [GOOD_UTTS[0], {**GOOD_UTTS[1], "time": -5}, {"time": -3, "id": "ann", "text": "thanks"}]
    if target == "link":
        record = {"utterances": utts, "links": [[1, 0], [2, 1]]}
    else:
        record = {"community_id": "c", "utterances": utts, "y_issue": 0}
    data = tmp_path / "data.jsonl"
    data.write_text(json.dumps(record) + "\n", encoding="utf-8")
    rc = main(["train", "--data", str(data), "--target", target, "--out", str(tmp_path / "m.ckpt")])
    assert f"{data}:1: bad utterance (negative time -5)" in assert_data_error(rc, capsys)


@pytest.mark.parametrize("time", [2000.5, True, "2000"], ids=["fractional", "bool", "string"])
def test_disentangle_rejects_a_clean_time_that_is_not_a_whole_number(tmp_path, capsys, time):
    records = [
        {"time": 1000, "id": "ann", "text": "hi", "clean_text": "hi", "tokens": ["hi"]},
        {"time": time, "id": "bob", "text": "yo", "clean_text": "yo", "tokens": ["yo"]},
    ]
    clean = tmp_path / "clean.jsonl"
    clean.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    rc = main(["disentangle", "--input", str(clean), "--out", str(tmp_path / "d.jsonl")])
    assert f"{clean}:2: bad utterance" in assert_data_error(rc, capsys)


def test_extract_with_list_encoder_config_exits_3(tmp_path, cli_ckpts, capsys):
    bad = rewrite_manifest(
        cli_ckpts["issue"], tmp_path / "issue.ckpt", lambda man: man.update(encoder_config=[16])
    )
    err = assert_data_error(extract_with_issue_ckpt(tmp_path, bad, cli_ckpts["solution"]), capsys)
    assert "encoder_config" in err


# -- files: line separators, encodings, output paths ------------------------


def verb_argv(verb, inp, out, cli_ckpts, labeled_path):
    """argv running ``verb`` on input ``inp`` (train and eval: the labeled
    corpus when ``inp`` is None) with output ``out``."""
    if verb in ("preprocess", "disentangle"):
        return [verb, "--input", str(inp), "--out", str(out)]
    if verb == "extract":
        return ["extract", "--input", str(inp), "--out", str(out), "--encoder-dim", "16",
                "--issue-ckpt", str(cli_ckpts["issue"]), "--solution-ckpt", str(cli_ckpts["solution"])]
    data = str(inp or labeled_path)
    if verb == "eval":
        return ["eval", "--data", data, "--out", str(out), "--epochs", "1", "--encoder-dim", "16"]
    target = verb.split(":")[1]
    return ["train", "--data", data, "--target", target, "--out", str(out), "--epochs", "1"]


def test_line_separators_inside_texts_pass_preprocess_disentangle_and_extract(
    tmp_path, cli_ckpts, capsys
):
    # json.dumps(..., ensure_ascii=False) writes U+2028, U+2029 and U+0085 raw
    records = synth.synth_raw_chat_records(4, 3)
    for i, sep in enumerate(["\u2028", "\u2029", "\u0085"]):
        records[i]["text"] = records[i]["text"].replace(" ", sep, 1)
    raw, clean = tmp_path / "raw.jsonl", tmp_path / "clean.jsonl"
    raw.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\n", encoding="utf-8")
    assert main(["preprocess", "--input", str(raw), "--out", str(clean)]) == 0
    assert "skipped line" not in capsys.readouterr().err
    clean_text = clean.read_text(encoding="utf-8")
    assert "\u2028" in clean_text and "\u0085" in clean_text
    n_clean = clean_text.count("\n")
    dialogs = tmp_path / "dialogs.jsonl"
    assert main(["disentangle", "--input", str(clean), "--out", str(dialogs)]) == 0
    members = [i for line in dialogs.read_text().split("\n") if line for i in json.loads(line)["members"]]
    assert sorted(members) == list(range(n_clean))
    pairs = tmp_path / "pairs.jsonl"
    assert main(verb_argv("extract", raw, pairs, cli_ckpts, None)) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["preprocess", "disentangle", "extract", "train:issue", "train:link"])
def test_input_that_is_not_utf8_exits_3(tmp_path, cli_ckpts, capsys, verb):
    good = {"time": 1, "id": "ann", "text": "hi", "clean_text": "hi", "tokens": ["hi"],
            "community_id": "c", "utterances": GOOD_UTTS, "y_issue": 0, "links": []}
    data = tmp_path / "in.jsonl"
    data.write_bytes(json.dumps(good).encode() + b"\n" + b'{"text": "caf\xff"}\n')
    argv = verb_argv(verb, data, tmp_path / "out", cli_ckpts, None)
    err = assert_data_error(main(argv), capsys)
    assert err.strip().splitlines()[-1] == (
        f"error: code=3 reason={data}:2: not UTF-8 text (byte 0xff)"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "verb", ["preprocess", "disentangle", "extract", "eval", "train:issue", "train:link"]
)
@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_out_exits_3(tmp_path, cli_ckpts, labeled_path, capsys, verb, where):
    raw = write_raw(tmp_path / "raw.jsonl")
    inp = None
    if verb in ("preprocess", "extract"):
        inp = raw
    elif verb == "disentangle":
        inp = tmp_path / "clean.jsonl"
        assert main(["preprocess", "--input", str(raw), "--out", str(inp)]) == 0
    elif verb == "train:link":
        inp = tmp_path / "links.jsonl"
        inp.write_text(json.dumps({"utterances": GOOD_UTTS, "links": [[1, 0]]}) + "\n")
    out = tmp_path / "nowhere" / "out" if where == "missing-directory" else tmp_path / "outdir"
    if where == "a-directory":
        out.mkdir()
    capsys.readouterr()
    err = assert_data_error(main(verb_argv(verb, inp, out, cli_ckpts, labeled_path)), capsys)
    assert f"cannot write {out}" in err
    assert out.is_dir() if where == "a-directory" else not out.parent.exists()


def test_output_that_cannot_be_encoded_exits_3_and_leaves_no_file(tmp_path, capsys):
    # a JSON escape can name a lone surrogate, which UTF-8 cannot hold
    raw, out = tmp_path / "raw.jsonl", tmp_path / "clean.jsonl"
    raw.write_text('{"time": 1, "id": "ann", "text": "the build \\ud800 fails"}\n', encoding="utf-8")
    err = assert_data_error(main(["preprocess", "--input", str(raw), "--out", str(out)]), capsys)
    assert f"cannot write {out}" in err
    assert not out.exists()


# -- README ----------------------------------------------------------------


def readme_commands():
    import re
    import shlex

    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("chatmine "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 5
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            pytest.fail(f"README command does not parse: chatmine {' '.join(argv)} ({exc})")
