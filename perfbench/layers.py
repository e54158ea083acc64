"""Which chatmine functions the traced run wraps, and the per-layer metrics
derived from the spans and counts they record.

Span names are `<module>.<layer>`. A function that a later version of the
program no longer has is skipped; its layer then reads zero calls.
"""

import sys

from .spans import Recorder

# (module, attribute, span name); an attribute "Class.method" wraps a method
SPANS = (
    ("corpus", "parse_chat_log", "corpus.parse"),
    ("corpus", "read_clean_jsonl", "corpus.parse"),
    ("corpus", "preprocess_utterance", "corpus.normalize"),
    ("corpus", "correct_typos", "corpus.typos"),
    ("corpus", "build_corpus_lm", "corpus.lm"),
    ("corpus", "merge_broken_utterances", "corpus.merge"),
    ("disentangle", "assemble_dialogs", "disentangle.assemble"),
    ("disentangle", "extract_link_features", "disentangle.features"),
    ("disentangle", "link_logit", "disentangle.link_logit"),
    ("disentangle", "split_head_body", "disentangle.split"),
    ("encoder", "encode_tokens", "encoder.encode"),
    ("encoder", "build_local_window", "encoder.window"),
    ("features", "heuristic_attributes", "features.heuristic"),
    ("features", "local_attention", "features.attention"),
    ("features", "fuse_features", "features.fuse"),
    ("model", "DialogEmbedder.__init__", "model.embedder_init"),
    ("model", "DialogEmbedder.examples_for", "model.examples_for"),
    ("model", "build_examples", "model.build_examples"),
    ("model", "train_model", "model.train"),
    ("nn", "conv1d_maxpool", "nn.conv"),
    ("nn", "Tensor.backward", "nn.backward"),
    ("nn", "adam_step", "nn.adam"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
)

VERBS = ("preprocess", "disentangle", "train", "extract")

# per-layer metric name -> unit, better
METRICS = {
    "corpus.parse.s": ("s", "lower"),
    "corpus.normalize.calls": ("count", "lower"),
    "corpus.normalize.s": ("s", "lower"),
    "corpus.typos.s": ("s", "lower"),
    "corpus.typo_fixes": ("count", "higher"),
    "corpus.lm.s": ("s", "lower"),
    "corpus.merge.s": ("s", "lower"),
    "corpus.merges": ("count", "higher"),
    "corpus.skipped_lines": ("count", "lower"),
    "disentangle.assemble.s": ("s", "lower"),
    "disentangle.candidates": ("count", "lower"),
    "disentangle.features.calls": ("count", "lower"),
    "disentangle.features.s": ("s", "lower"),
    "disentangle.link_logit.calls": ("count", "lower"),
    "disentangle.link_logit.s": ("s", "lower"),
    "disentangle.self_rate": ("ratio", "lower"),
    "disentangle.dialogs": ("count", "lower"),
    "disentangle.split.calls": ("count", "lower"),
    "disentangle.split_per_dialog": ("ratio", "lower"),
    "encoder.encode.calls": ("count", "lower"),
    "encoder.encode.s": ("s", "lower"),
    "encoder.window.calls": ("count", "lower"),
    "encoder.window.s": ("s", "lower"),
    "features.heuristic.calls": ("count", "lower"),
    "features.heuristic.s": ("s", "lower"),
    "features.attention.calls": ("count", "lower"),
    "features.attention.s": ("s", "lower"),
    "features.fuse.s": ("s", "lower"),
    "model.embedder_init.s": ("s", "lower"),
    "model.examples_for.calls": ("count", "lower"),
    "model.examples_for.s": ("s", "lower"),
    "model.heur_per_scored": ("ratio", "lower"),
    "model.forward.calls": ("count", "lower"),
    "model.forward.s": ("s", "lower"),
    "model.forward.ms_per_example": ("ms", "lower"),
    "model.val_forward.s": ("s", "lower"),
    "model.build_examples.s": ("s", "lower"),
    "model.gate_pass_rate": ("ratio", "higher"),
    "model.solutions_per_issue": ("ratio", "higher"),
    "nn.conv.calls": ("count", "lower"),
    "nn.conv.s": ("s", "lower"),
    "nn.backward.calls": ("count", "lower"),
    "nn.backward.s": ("s", "lower"),
    "nn.adam.calls": ("count", "lower"),
    "nn.adam.s": ("s", "lower"),
    "checkpoint.load.s": ("s", "lower"),
    "checkpoint.save.s": ("s", "lower"),
    **{f"cli.{verb}.s": ("s", "lower") for verb in VERBS},
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


def _resolve(module, attr):
    owner = sys.modules[f"chatmine.{module}"]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name, None)
        if owner is None:
            return None, attr
    return owner, attr


def install(rec=None):
    """Wrap every traced function; returns the recorder holding the spans,
    a new one or `rec`, which then keeps adding to its spans and counts.
    Call `recorder.uninstall()` to restore the program."""
    import chatmine.cli  # noqa: F401  (loads every traced module)

    rec = rec if rec is not None else Recorder()
    counts = rec.counts
    # counts read from a call's arguments and result, once its span closed
    after = {
        "parse_chat_log": lambda out, args, kw: counts.update(
            {"corpus.skipped_lines": len(out[1])}
        ),
        "correct_typos": lambda out, args, kw: counts.update(
            {"corpus.typo_fixes": sum(
                a != b for u, v in zip(args[0], out) for a, b in zip(u.tokens, v.tokens)
            )}
        ),
        "merge_broken_utterances": lambda out, args, kw: counts.update(
            {"corpus.merges": len(args[0].utterances) - len(out.utterances)}
        ),
        "assemble_dialogs": lambda out, args, kw: counts.update(
            {"disentangle.dialogs": len(out)}
        ),
    }
    for module, attr, name in SPANS:
        owner, attr = _resolve(module, attr)
        if owner is None:
            rec.missing.append(f"{module}.{attr}")
            continue
        hook = after.get(attr)
        rec.patch(owner, attr, lambda fn, name=name, hook=hook: rec.span(name, fn, hook))

    def count_candidates(fn):
        def choose_parent(log, child, scorer, *args, **kwargs):
            def counted(*a):
                counts["disentangle.candidates"] += 1
                return scorer(*a)

            parent, score = fn(log, child, counted, *args, **kwargs)
            counts["disentangle.children"] += 1
            counts["disentangle.self_chosen"] += parent is None
            return parent, score

        return choose_parent

    owner, _ = _resolve("disentangle", "choose_parent")
    rec.patch(owner, "choose_parent", count_candidates)

    def split_forward(fn):
        train_fwd = rec.span("model.forward", fn)
        val_fwd = rec.span("model.val_forward", fn)

        def forward_logits(*args, **kwargs):
            training = args[6] if len(args) > 6 else kwargs.get("training", False)
            if not training and rec.is_open("model.train"):
                return val_fwd(*args, **kwargs)
            return train_fwd(*args, **kwargs)

        return forward_logits

    owner, _ = _resolve("model", "forward_logits")
    rec.patch(owner, "forward_logits", split_forward)
    return rec


def per_layer(totals, counts, passes, verb_seconds, extract_outputs=None):
    """Per-pass metric values from span totals (name -> calls, self s,
    inclusive s) and counts summed over `passes` traced passes.

    verb_seconds: verb -> wall seconds summed over the traced passes.
    extract_outputs: (pairs, solutions) summed over traced extract passes.
    """

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / passes

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / passes

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[2] / passes

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in (
        "corpus.parse", "corpus.normalize", "corpus.typos", "corpus.lm", "corpus.merge",
        "disentangle.assemble", "disentangle.features", "disentangle.link_logit",
        "disentangle.split", "encoder.encode", "encoder.window", "features.heuristic",
        "features.attention", "features.fuse", "model.embedder_init", "model.examples_for",
        "model.build_examples", "nn.conv", "nn.backward", "nn.adam", "checkpoint.load",
        "checkpoint.save",
    ):
        out[name + ".calls"] = calls(name)
        out[name + ".s"] = own(name)
    for name in ("corpus.typo_fixes", "corpus.merges", "corpus.skipped_lines",
                 "disentangle.candidates", "disentangle.dialogs"):
        out[name] = counts.get(name, 0) / passes
    out["disentangle.self_rate"] = ratio(
        counts.get("disentangle.self_chosen", 0), counts.get("disentangle.children", 0)
    )
    out["disentangle.split_per_dialog"] = ratio(
        calls("disentangle.split"), out["disentangle.dialogs"]
    )
    fwd_calls = calls("model.forward") + calls("model.val_forward")
    out["model.forward.calls"] = fwd_calls
    out["model.forward.s"] = own("model.forward") + own("model.val_forward")
    out["model.forward.ms_per_example"] = 1000.0 * ratio(
        incl("model.forward") + incl("model.val_forward"), fwd_calls
    )
    out["model.val_forward.s"] = incl("model.val_forward")
    out["model.heur_per_scored"] = ratio(calls("features.heuristic"), fwd_calls)
    pairs, solutions = extract_outputs if extract_outputs else (0, 0)
    extract_dialogs = out["disentangle.dialogs"] if extract_outputs else 0
    out["model.gate_pass_rate"] = ratio(pairs / passes, extract_dialogs)
    out["model.solutions_per_issue"] = ratio(solutions, pairs)
    for verb in VERBS:
        out[f"cli.{verb}.s"] = verb_seconds.get(verb, 0.0) / passes
    out["trace.spans"] = sum(c for c, _, _ in totals.values()) / passes
    return {k: out[k] for k in METRICS if k in out}
