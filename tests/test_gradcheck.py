"""Central-difference verification of the analytic gradients.

The full three-seed sweep lives in the acceptance suite; here we read one
seed per fragment from the session's reports and prove the checker
actually catches a wrong gradient.
"""

import numpy as np
import pytest

from chatmine import gradcheck, nn


def test_each_fragment_passes_one_seed(standard_gradchecks):
    reports = [r for r in standard_gradchecks["reports"] if r.seed == 1]
    assert len(reports) == len(gradcheck.STANDARD_FRAGMENTS)
    for rep in reports:
        assert rep.passed, f"{rep.fragment}: max rel error {rep.max_rel_error}"
        assert rep.max_rel_error < rep.tolerance


def test_report_carries_fragment_metadata(standard_gradchecks):
    reports = [r for r in standard_gradchecks["reports"] if r.seed == 2]
    assert len(reports) == len(gradcheck.STANDARD_FRAGMENTS)
    names = {r.fragment for r in reports}
    assert "conv_pool" in names
    assert "conv_pool_dropout" in names
    assert "local_attention" in names
    assert "local_attention_padded" in names
    for rep in reports:
        assert rep.seed == 2
        assert rep.param_count > 0
        assert rep.worst_param


def _broken_mul(x, w):
    """An op whose backward deliberately reports half the true gradient."""

    def back(g):
        w._accumulate(0.5 * g * x.data)

    return nn.Tensor(x.data * w.data, parents=(x, w), backward_fn=back)


def test_checker_flags_wrong_gradient():
    w = nn.Parameter("w", np.array([2.0, -1.0]))

    def loss_fn():
        out = _broken_mul(nn.tensor(np.array([3.0, 4.0])), w)
        return out.sum()

    rep = gradcheck.finite_difference_check(loss_fn, {"w": w}, fragment="broken")
    assert not rep.passed
    assert rep.failures
    assert rep.worst_param == "w"
    assert rep.max_rel_error > 0.2


def test_checker_accepts_correct_gradient():
    w = nn.Parameter("w", np.array([2.0, -1.0]))

    def loss_fn():
        return (nn.tensor(np.array([3.0, 4.0])) * w).sum()

    rep = gradcheck.finite_difference_check(loss_fn, {"w": w}, fragment="ok")
    assert rep.passed
    assert rep.max_rel_error < 1e-8
