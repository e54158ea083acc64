"""Command line surface.

Verbs: preprocess, disentangle, train, extract, eval, gradcheck. Global
flags --seed / --config apply everywhere; a config file holds
key=value lines mirroring the PreprocessConfig, ModelConfig, and encoder
fields (encoder keys prefixed encoder_); any other key exits 3. Each
settings flag stores into its config key with only its field's type, and
``main`` lays flag over file over base (the defaults, or 5 link epochs)
once, before any verb runs; extract lays them again over its checkpoints'
thresholds. The config classes alone decide a setting's range (exit 3);
verb-local flags are checked by argparse (exit 2).
Diagnostics go to standard error only; outputs are files. Exit codes: 0
success, 2 usage, 3 data/config problems, 4 internal invariant breaches,
each with one machine-parsable "error: code=N reason=..." line.
"""

import argparse
import json
import sys
from dataclasses import fields, replace
from functools import lru_cache

from . import disentangle, model as model_mod
from . import encoder as enc
from .corpus import (
    PreprocessConfig,
    parse_chat_log,
    preprocess_chat_log,
    read_clean_jsonl,
    write_clean_jsonl,
)
from .errors import ConfigError, ContractViolation, DataError
from .evaluation import cross_project_evaluate
from .fileio import check_writable, numbered_lines, write_file, write_jsonl
from .gradcheck import run_standard_checks
from .model import ModelConfig


# every key a config file may set: the preprocessing and model fields, and
# the encoder fields prefixed encoder_
_CONFIG_KEYS = {f.name for cls in (PreprocessConfig, ModelConfig) for f in fields(cls)} | {
    "encoder_" + f.name for f in fields(enc.EncoderConfig)
}


def _log(msg):
    print(msg, file=sys.stderr)


def _parse_config_file(path):
    out = {}
    for line_no, line in numbered_lines(path, "config file", ConfigError):
        line = line.strip()
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip().strip('"')
    return out


def _coerce(value, kind):
    if kind is bool:
        low = str(value).lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"bad boolean value {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind.__name__} value {value!r}") from exc


def _settings(base, args, file_cfg, prefix=""):
    """``base`` with the config file's keys laid over it, then the flags
    given, typed per field. A settings flag's dest is its config key, so
    the order is flag > config file > ``base``."""
    changes = {}
    for f in fields(base):
        key = prefix + f.name
        if key in file_cfg:
            changes[f.name] = _coerce(file_cfg[key], type(f.default) if f.default is not None else str)
        if getattr(args, key, None) is not None:
            changes[f.name] = getattr(args, key)
    return replace(base, **changes)


# the settings only the issue and solution models read; link training, with
# its fixed lr and batch size, rejects them as flags and as config keys
_LINK_IGNORED = ({f.name for f in fields(ModelConfig)} - {"seed", "max_epochs"}) | {
    "encoder_" + f.name for f in fields(enc.EncoderConfig)
}


def _link_scorer(args):
    path = getattr(args, "link_ckpt", None)
    if path:
        return disentangle.link_mlp_scorer(disentangle.load_link_checkpoint(path))
    return disentangle.heuristic_link_scorer


# -- verbs -----------------------------------------------------------------


def _require_utterances(log, path):
    """An empty log, or one whose every line was skipped, is a data error."""
    if not log.utterances:
        raise DataError(f"{path}: no utterances")


def _cmd_preprocess(args, pre_cfg, cfg, enc_cfg, file_cfg):
    log, skipped = parse_chat_log(args.input, args.community)
    for s in skipped:
        _log(f"skipped line {s.line_no}: {s.reason}")
    before = len(log.utterances)
    clean = preprocess_chat_log(log, pre_cfg)
    _require_utterances(clean, args.input)
    write_clean_jsonl(clean, args.out)
    _log(
        f"preprocessed {before} -> {len(clean.utterances)} utterances "
        f"({len(skipped)} lines skipped)"
    )
    return 0


def _cmd_disentangle(args, pre_cfg, cfg, enc_cfg, file_cfg):
    log = read_clean_jsonl(args.input, args.community)
    _require_utterances(log, args.input)
    scorer = _link_scorer(args)
    dialogs = disentangle.assemble_dialogs(
        log, scorer, threshold=args.threshold, lookback=args.lookback
    )
    records = [
        {
            "subject": d.subject,
            "members": d.members,
            "links": d.links,
            "initiator": d.initiator,
            "head_indices": d.head_indices,
            "body_indices": d.body_indices,
            "head_text": d.head_text,
        }
        for d in dialogs
    ]
    write_jsonl(args.out, records)
    _log(f"{len(log.utterances)} utterances -> {len(dialogs)} dialogs")
    return 0


def _cmd_train(args, pre_cfg, cfg, enc_cfg, file_cfg):
    if args.target == "link":
        examples = disentangle.load_link_examples(args.data, pre_cfg)
        params, history = disentangle.train_link_scorer(examples, cfg, hidden=args.link_hidden)
        disentangle.save_link_checkpoint(args.out, params)
        _log(f"link scorer loss: {' '.join(f'{tr:.4f}' for tr, _ in history)}")
        return 0
    corpus = model_mod.load_labeled_dialogs(args.data, pre_cfg)
    result = model_mod.train_model(
        model_mod.build_examples(corpus, enc_cfg)[args.target],
        args.target,
        cfg,
        enc_cfg,
        log_fn=lambda e, tr, va: _log(f"epoch {e}: train {tr:.4f} val {va:.4f}"),
    )
    model_mod.save_model_checkpoint(args.out, result)
    _log(f"saved {args.target} checkpoint (best epoch {result.best_epoch}) to {args.out}")
    return 0


def _cmd_extract(args, pre_cfg, cfg, enc_cfg, file_cfg):
    issue_bundle = model_mod.load_model_checkpoint(args.issue_ckpt, enc_cfg, "issue")
    solution_bundle = model_mod.load_model_checkpoint(args.solution_ckpt, enc_cfg, "solution")
    thresholds = ModelConfig(
        issue_threshold=issue_bundle.cfg.issue_threshold,
        solution_threshold=solution_bundle.cfg.solution_threshold,
    )
    # the same settings laid over the checkpoints' thresholds, not the defaults
    cfg = _settings(thresholds, args, file_cfg)
    scorer = _link_scorer(args)
    log, skipped = parse_chat_log(args.input, args.community)
    for s in skipped:
        _log(f"skipped line {s.line_no}: {s.reason}")
    clean = preprocess_chat_log(log, pre_cfg)
    _require_utterances(clean, args.input)
    dialogs = disentangle.assemble_dialogs(clean, scorer)
    pairs = model_mod.extract_pairs(clean, dialogs, issue_bundle, solution_bundle, cfg, enc_cfg)
    write_file(args.out, model_mod.pairs_to_jsonl(pairs))
    _log(f"extracted {len(pairs)} issue-solution pairs")
    return 0


def _cmd_eval(args, pre_cfg, cfg, enc_cfg, file_cfg):
    corpus = model_mod.load_labeled_dialogs(args.data, pre_cfg)
    report = cross_project_evaluate(corpus, cfg, enc_cfg)
    write_file(args.out, json.dumps(report, sort_keys=True, indent=2) + "\n")
    macro = report["macro_average"]
    for target in ("issue", "solution"):
        m = macro[target]
        _log(f"{target}: P={m['P']:.3f} R={m['R']:.3f} F1={m['F1']:.3f} (macro)")
    return 0


def _cmd_gradcheck(args, pre_cfg, cfg, enc_cfg, file_cfg):
    reports = run_standard_checks(seeds=args.seeds, tolerance=args.tol, step=args.step)
    failed = [r for r in reports if not r.passed]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{r.fragment} seed={r.seed} params={r.param_count} "
            f"max_rel_error={r.max_rel_error:.3e} {status}"
        )
    if failed:
        names = ", ".join(
            f"{r.fragment}[seed {r.seed}]: {', '.join(r.failures)}" for r in failed
        )
        raise ContractViolation(f"gradient check failed for {names}")
    return 0


# -- wiring ----------------------------------------------------------------


def _int_at_least(least):
    """argparse type: a decimal integer no smaller than ``least``."""

    def parse(text):
        if not text.isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
        return int(text)

    return parse


def _positive_float(text):
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _probability(text):
    """argparse type: a number in [0, 1]; nan is not one."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")
    return value


def _seed_list(text):
    return tuple(_int_at_least(0)(s) for s in text.split(","))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chatmine",
        description="Mine issue-solution pairs from developer chat logs.",
    )
    parser.add_argument("--seed", type=int, help="global random seed")
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="verb", required=True)

    encoder_flags = argparse.ArgumentParser(add_help=False)
    model_flags = argparse.ArgumentParser(add_help=False)
    settings_flags = [
        encoder_flags.add_argument("--encoder-dim", type=int),
        encoder_flags.add_argument("--encoder-provider"),
        encoder_flags.add_argument("--encoder-table", dest="encoder_table_path"),
        model_flags.add_argument("--epochs", dest="max_epochs", type=int),
        model_flags.add_argument("--batch-size", type=int),
        model_flags.add_argument("--dropout", type=float),
        model_flags.add_argument("--lr", type=float),
        model_flags.add_argument("--patience", type=int),
        model_flags.add_argument("--issue-threshold", type=float),
        model_flags.add_argument("--solution-threshold", type=float),
        model_flags.add_argument("--balance", action="store_true", default=None),
    ]

    p = sub.add_parser("preprocess", help="normalize and repair a raw chat log")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--community")
    p.add_argument("--perplexity-threshold", type=float)
    p.add_argument("--merge-gap-ms", dest="merge_time_gap_max_ms", type=int)
    p.add_argument("--no-typo-correction", dest="typo_correction", action="store_false", default=None)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("disentangle", help="group a clean log into dialogs")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--community")
    p.add_argument("--link-ckpt")
    p.add_argument("--threshold", type=_probability, default=0.5)
    p.add_argument("--lookback", type=_int_at_least(1), default=50)
    p.set_defaults(func=_cmd_disentangle)

    p = sub.add_parser(
        "train", parents=[model_flags, encoder_flags], help="train the issue, solution, or link model"
    )
    p.add_argument("--data", required=True)
    p.add_argument("--target", required=True, choices=("issue", "solution", "link"))
    p.add_argument("--out", required=True)
    p.add_argument("--link-hidden", type=_int_at_least(1), default=disentangle.LINK_HIDDEN)
    # each flag link training rejects, by dest, as its usage error names it
    p.set_defaults(func=_cmd_train, link_ignored={
        a.dest: a.option_strings[0] for a in settings_flags if a.dest in _LINK_IGNORED
    })

    p = sub.add_parser(
        "extract", parents=[encoder_flags], help="chat log + checkpoints -> issue-solution pairs"
    )
    p.add_argument("--input", required=True)
    p.add_argument("--issue-ckpt", required=True)
    p.add_argument("--solution-ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--community")
    p.add_argument("--link-ckpt")
    p.add_argument("--issue-threshold", type=float)
    p.add_argument("--solution-threshold", type=float)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser(
        "eval", parents=[model_flags, encoder_flags], help="cross-project evaluation of both models"
    )
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of all fragments")
    p.add_argument("--tol", type=_positive_float, default=1e-4)
    p.add_argument("--step", type=_positive_float, default=1e-5)
    p.add_argument("--seeds", type=_seed_list, default="1,2,3")
    p.set_defaults(func=_cmd_gradcheck)
    return parser


@lru_cache(maxsize=1)
def _parser():
    """build_parser(), once per process. A parser is a web of reference
    cycles, some 235 objects: one built per call lived until the cyclic
    collector ran and meanwhile kept freed heap resident (the bench's
    `extract` peak RSS read 57.1-57.6 MB in ten runs with a parser per
    call, 54.6-57.2 MB, median 56.2, in ten with one)."""
    return build_parser()


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    link = getattr(args, "target", None) == "link"
    if link:
        given = [flag for key, flag in args.link_ignored.items() if getattr(args, key) is not None]
        if given:
            parser.error(f"train --target link takes no {', '.join(given)} (classifier settings)")
    try:
        if getattr(args, "out", None) is not None:
            check_writable(args.out)
        file_cfg = _parse_config_file(args.config) if args.config else {}
        unknown = sorted(set(file_cfg) - _CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"{args.config}: unknown config keys {', '.join(unknown)}")
        keys = sorted(_LINK_IGNORED.intersection(file_cfg)) if link else []
        if keys:
            raise ConfigError(f"train --target link does not read config keys {', '.join(keys)}")
        base = ModelConfig(max_epochs=disentangle.LINK_EPOCHS) if link else ModelConfig()
        pre_cfg = _settings(PreprocessConfig(), args, file_cfg)
        cfg = _settings(base, args, file_cfg)
        enc_cfg = _settings(enc.EncoderConfig(), args, file_cfg, prefix="encoder_")
        return args.func(args, pre_cfg, cfg, enc_cfg, file_cfg)
    except (ContractViolation, DataError) as exc:
        code = 4 if isinstance(exc, ContractViolation) else 3
        print(f"error: code={code} reason={' '.join(str(exc).split())}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
