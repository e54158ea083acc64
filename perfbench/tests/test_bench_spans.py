"""Span recording, self time, removal of the layer wrappers, and the
machine-speed reference."""

import ast
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import chatmine.cli  # noqa: F401  (loads every chatmine module)
from chatmine import cli
from perfbench import gen, layers, reference, spans


def test_self_time_is_span_minus_children_on_a_hand_built_tree():
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 2 has child 3 [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    np.testing.assert_allclose(spans.self_times(start, end, parent), [3.0, 3.0, 3.0, 1.0])


def test_recorder_nests_spans_and_totals_calls_and_self_time():
    rec = spans.Recorder()
    inner = rec.span("inner", lambda x: x + 1)
    outer = rec.span("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    name_of, start, end, parent = rec.arrays()
    assert [rec.names[i] for i in name_of] == ["outer", "inner", "inner"]
    assert list(parent) == [-1, 0, 0]
    totals = rec.totals()
    assert totals["outer"][0] == 1 and totals["inner"][0] == 2
    outer_incl, inner_incl = end[0] - start[0], (end[1:] - start[1:]).sum()
    assert abs(totals["outer"][1] - (outer_incl - inner_incl)) < 1e-12


def _snapshot():
    """Every attribute of every chatmine module and class, by identity."""
    out = {}
    for name, mod in sys.modules.items():
        if name.split(".")[0] != "chatmine" or mod is None:
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def test_wrappers_are_removed_after_a_traced_pass():
    before = _snapshot()
    rec = layers.install()
    during = _snapshot()
    changed = [k for k in before if during.get(k) is not before[k]]
    assert ("chatmine.cli", "parse_chat_log") in changed  # imported names too
    assert ("chatmine.model", "DialogEmbedder", "examples_for") in changed
    assert ("chatmine.nn", "Tensor", "backward") in changed
    rec.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert rec.missing == []


def test_traced_disentangle_counts_candidates_and_runs_no_conv(tmp_path):
    log = gen.chained_log(1, 80)
    raw, clean, out = tmp_path / "raw.jsonl", tmp_path / "clean.jsonl", tmp_path / "d.jsonl"
    gen.write_raw(log, raw)
    assert cli.main(["preprocess", "--input", str(raw), "--out", str(clean)]) == 0
    n = len(clean.read_text().splitlines())
    rec = layers.install()
    try:
        assert cli.main(["disentangle", "--input", str(clean), "--out", str(out)]) == 0
    finally:
        rec.uninstall()
    values = layers.per_layer(rec.totals(), rec.counts, 1, {"disentangle": 1.0})
    lookback = 50
    assert values["disentangle.candidates"] == sum(1 + min(c, lookback) for c in range(n))
    assert values["disentangle.features.calls"] == values["disentangle.candidates"] - n
    assert values["nn.conv.calls"] == 0
    assert values["disentangle.dialogs"] == len(out.read_text().splitlines())
    assert values["disentangle.split_per_dialog"] == 1.0
    assert set(values) == set(layers.METRICS) - {"trace.overhead_s", "trace.overhead_share"}


def test_machine_speed_is_one_at_nominal_and_a_median():
    nominal = reference.NOMINAL_S
    assert reference.speed([nominal]) == pytest.approx(1.0)
    # twice as slow, with one outlier sample that the median ignores
    assert reference.speed([2 * nominal, 2 * nominal, nominal / 10]) == pytest.approx(0.5)
    assert len(reference.measure(repeats=3)) == 3


def test_reference_kernel_uses_no_chatmine_code():
    tree = ast.parse(Path(reference.__file__).read_text())
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert imported and not any(m.startswith("chatmine") for m in imported)
