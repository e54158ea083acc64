"""Command-line behavior: verbs, exit codes, the one-line error contract,
and config-file layering. Commands run in-process through main()."""

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from chatmine import cli, synth
from chatmine.cli import _coerce, _enc_cfg, _model_cfg, _parse_config_file, main
from chatmine.errors import ConfigError, ContractViolation, DataError


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
        seed=0, batch_size=None, dropout=None, lr=None, epochs=None,
        patience=None, issue_threshold=None, solution_threshold=None,
    )
    base.update(kw)
    return argparse.Namespace(**base)


def test_cli_flags_override_config_file_values():
    file_cfg = {"dropout": "0.3", "max_epochs": "7"}
    cfg = _model_cfg(model_args(dropout=0.2), file_cfg)
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
    args = argparse.Namespace(encoder_dim=None, encoder_provider=None, encoder_table=None)
    cfg = _enc_cfg(args, file_cfg)
    assert (cfg.dim, cfg.seed) == (32, 4)
    cfg2 = _enc_cfg(
        argparse.Namespace(encoder_dim=64, encoder_provider=None, encoder_table=None),
        file_cfg,
    )
    assert cfg2.dim == 64


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
    assert len(lines) == 8  # one line per fragment
    for line in lines:
        assert line.endswith("PASS")
        assert "max_rel_error=" in line


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
     ["--encoder-dim", "16"], ["--lr", "0.5", "--batch-size", "3"]],
    ids=["lr", "batch-size", "dropout-zero", "balance", "encoder-dim", "both"],
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
    assert "Traceback" not in err and flags[0] in err
    assert not out.exists()


@pytest.mark.parametrize("line", ["lr=0.5", "batch_size=3", "max_epochs=1", "encoder_dim=16"])
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


@pytest.mark.parametrize(
    "argv",
    [
        ["gradcheck", "--seeds", "a,b"],
        ["gradcheck", "--step", "0"],
        ["gradcheck", "--tol", "nan"],
        ["train", "--data", "d", "--target", "link", "--out", "o", "--link-hidden", "-1"],
        ["train", "--data", "d", "--target", "link", "--out", "o", "--epochs", "-3"],
        ["train", "--data", "d", "--target", "issue", "--out", "o", "--batch-size", "0"],
        ["train", "--data", "d", "--target", "issue", "--out", "o", "--lr", "nan"],
        ["train", "--data", "d", "--target", "issue", "--out", "o", "--lr", "-1"],
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
        "link-epochs-negative", "batch-size-zero", "lr-nan", "lr-negative",
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
