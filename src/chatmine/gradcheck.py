"""Central-difference gradient verification for every trainable path.

Each fragment builds a tiny scalar-loss network from seeded data, chosen to
sit away from the measure-zero kinks (ReLU zeros, max-pool ties, a non-pad
attention score sum near zero): builders resample until the relevant margins
exceed 1e-3, far above the 1e-5 probe step. The check then compares every
parameter element's analytic gradient against (f(θ+h) − f(θ−h)) / 2h.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .disentangle import FEATURE_DIM, link_loss, link_param_shapes
from .features import local_attention

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4
_MARGIN = 1e-3
_DROP_RATE = 0.6  # the classifiers' default dropout


@dataclass(frozen=True)
class GradCheckReport:
    fragment: str
    seed: int
    param_count: int
    max_rel_error: float
    worst_param: str
    tolerance: float
    failures: tuple  # parameter names over tolerance

    @property
    def passed(self):
        return not self.failures


def finite_difference_check(loss_fn, params, tolerance=DEFAULT_TOLERANCE, step=DEFAULT_STEP, fragment="fragment", seed=0):
    """Check analytic gradients of ``params`` against central differences of
    the scalar ``loss_fn()``, which must rebuild the graph from the
    parameters' current data every call."""
    nn.zero_grads(params)
    loss = loss_fn()
    loss.backward()
    analytic = {
        k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for k, p in params.items()
    }
    max_err = 0.0
    worst = ""
    failures = []
    count = 0
    for k, p in params.items():
        flat = p.data.reshape(-1)
        ga = np.asarray(analytic[k]).reshape(-1)
        param_max = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = float(loss_fn().data)
            flat[i] = orig - step
            down = float(loss_fn().data)
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            err = abs(ga[i] - numeric) / max(abs(ga[i]), abs(numeric), 1.0)
            param_max = max(param_max, err)
            count += 1
        if param_max > max_err:
            max_err = param_max
            worst = k
        if param_max > tolerance:
            failures.append(k)
    nn.zero_grads(params)
    return GradCheckReport(
        fragment=fragment,
        seed=seed,
        param_count=count,
        max_rel_error=max_err,
        worst_param=worst,
        tolerance=tolerance,
        failures=tuple(failures),
    )


def _resample(seed, build, ok, tries=200):
    """Deterministically redraw until the conditioning predicate holds."""
    for t in range(tries):
        made = build(np.random.default_rng(seed * 1000 + t))
        if ok(*made):
            return made
    raise RuntimeError(f"could not condition fragment for seed {seed}")


# -- fragments -------------------------------------------------------------


def _frag_linear_ce(seed, rows=3):
    """linear then softmax CE over a batch of ``rows`` labelled rows."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, 8))
    W = nn.Parameter("W", rng.normal(size=(4, 8)) * 0.5)
    b = nn.Parameter("b", rng.normal(size=4) * 0.1)
    labels = rng.integers(4, size=rows)
    params = {"W": W, "b": b}
    return params, lambda: nn.softmax_cross_entropy(nn.linear(nn.tensor(x), W, b), labels)


def _frag_conv_pool(seed, m=4, rows=2, support=None, drops=None):
    """conv_pool over a batch of ``rows`` sequences, with the input checked
    as well as the kernels and bias. A (rows, 10) bool ``support`` zeroes x
    off it; the biases are then negative, because an alive kernel would tie
    across the windows of zeros and leave its x gradient undefined. With
    ``drops``, (rows, m) U[0, 1) draws, the op scores only the outputs that
    dropout at rate _DROP_RATE keeps, and nn.dropout follows on the same
    draws."""
    def build(rng):
        x = rng.normal(size=(rows, 10))
        k = rng.normal(size=(m, 3)) * 0.7
        b = rng.normal(size=m) * 0.3
        r = rng.normal(size=(rows, m))
        if support is not None:
            x, b = x * support, -np.abs(b)
        return x, k, b, r

    def ok(x, k, b, r):
        pre = np.lib.stride_tricks.sliding_window_view(x, 3, axis=1) @ k.T + b  # (rows, t, m)
        top2 = np.sort(np.maximum(pre, 0.0), axis=1)[:, -2:]
        clear_max = (top2[:, 1] == 0.0) | (top2[:, 1] - top2[:, 0] >= _MARGIN)
        return np.min(np.abs(pre)) >= _MARGIN and clear_max.all()

    x, k, b, r = _resample(seed, build, ok)
    xp = nn.Parameter("x", x)
    kp = nn.Parameter("kernels", k)
    bp = nn.Parameter("bias", b)
    params = {"x": xp, "kernels": kp, "bias": bp}

    def loss():
        if drops is None:
            return (nn.conv1d_maxpool(xp, kp, bp) * nn.tensor(r)).sum()
        out = nn.conv1d_maxpool(xp, kp, bp, drops >= _DROP_RATE)
        return (nn.dropout(out, _DROP_RATE, drops) * nn.tensor(r)).sum()

    return params, loss


def _frag_conv_pool_blocks(seed):
    """conv_pool with more kernels than one matmul block holds."""
    return _frag_conv_pool(seed, m=nn._CONV_BLOCK + 2)


def _frag_conv_pool_dropout(seed):
    """conv_pool scoring only the outputs dropout keeps, then that dropout:
    rows that keep three kernels of five, one kernel and none."""
    keep = np.array([[1, 0, 1, 1, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 0]], dtype=bool)
    drops = np.where(keep, 0.9, 0.1)
    return _frag_conv_pool(seed, m=5, rows=3, drops=drops)


def _frag_conv_pool_sparse(seed):
    """conv_pool over sparse rows, where only some windows are candidates: a
    zero run between nonzeros at both edges, nonzeros at the edges only, and
    a row of zeros."""
    support = np.array(
        [
            [1, 1, 0, 0, 0, 0, 0, 1, 1, 1],
            [1, 0, 0, 0, 0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        ],
        dtype=bool,
    )
    return _frag_conv_pool(seed, rows=3, support=support)


def _frag_link_mlp(seed, rows=5, hidden=4):
    """The link scorer's training loss over a block of ``rows`` feature rows,
    with true links and negatives mixed."""

    def build(rng):
        x = rng.normal(size=(rows, FEATURE_DIM)) / math.sqrt(FEATURE_DIM)
        shapes = link_param_shapes(hidden)
        return x, {name: rng.normal(size=shape) * 0.6 for name, shape in shapes.items()}

    def ok(x, p):
        # softsign is C1 but its curvature jumps at 0; keep preacts away
        h1 = x @ p["link.W1"].T + p["link.b1"]
        h2 = (h1 / (1 + np.abs(h1))) @ p["link.W2"].T + p["link.b2"]
        return min(np.min(np.abs(h1)), np.min(np.abs(h2))) >= _MARGIN

    x, data = _resample(seed, build, ok)
    params = {name: nn.Parameter(name, value) for name, value in data.items()}
    signs = np.where(np.arange(rows) % 2, 1.0, -1.0)
    return params, lambda: link_loss(x, signs, params)


def _frag_softmax_ce(seed, rows=3):
    rng = np.random.default_rng(seed)
    logits = nn.Parameter("logits", rng.normal(size=(rows, 5)))
    labels = rng.integers(5, size=rows)
    return {"logits": logits}, lambda: nn.softmax_cross_entropy(logits, labels)


def _frag_local_attention(
    seed, masks=((True,) * 3, (False, True, True), (True,) * 3), fallback=(2,), dim=16, context_dim=8
):
    """local_attention over a batch of windows with the given pad masks; the
    rows in ``fallback`` sit on the uniform-weights branch, the others on
    score / sum."""
    masks = np.array(masks)
    rows, n_slots = masks.shape
    k = n_slots // 2
    gauss = [1.0 if s == k else math.exp(-((s - k) ** 2) / (2.0 * k * k)) for s in range(n_slots)]
    damping = np.array(gauss) * masks
    on_fallback = np.isin(np.arange(rows), fallback)

    def build(rng):
        vecs = rng.normal(size=(rows, n_slots, dim)) / math.sqrt(dim)
        # neighbors pointing away from the center give a negative sum
        vecs[on_fallback] -= 2.0 * vecs[on_fallback, k, None] * (np.arange(n_slots) != k)[:, None]
        vecs *= masks[:, :, None]
        Wq = rng.normal(size=(context_dim, dim)) * 0.5
        Wk = Wq + rng.normal(size=(context_dim, dim)) * 0.1
        Wv = rng.normal(size=(context_dim, dim)) * 0.5
        r = rng.normal(size=(rows, context_dim))
        return vecs, Wq, Wk, Wv, r

    def ok(vecs, Wq, Wk, Wv, r):
        # each row's damped score sum stays clear of the fallback switch at 0
        totals = np.einsum("bc,cd,bsd,bs->b", vecs[:, k] @ Wq.T, Wk, vecs, damping)
        return np.all(np.where(on_fallback, totals <= -_MARGIN, totals >= 0.05))

    vecs, Wq, Wk, Wv, r = _resample(seed, build, ok)
    params = {
        name: nn.Parameter(name, w) for name, w in (("attn.wq", Wq), ("attn.wk", Wk), ("attn.wv", Wv))
    }
    return params, lambda: (local_attention(vecs, masks, params) * nn.tensor(r)).sum()


def _frag_local_attention_padded(seed):
    """local_attention at k = 2: one row with an edge slot padded, at
    Gaussian distances 1 and 2, and one with two slots padded on the
    uniform-weights branch."""
    masks = ((False, True, True, True, True), (True, True, True, False, False))
    return _frag_local_attention(seed, masks, fallback=(1,))


def _frag_fc_head(seed, fused_dim=413, hidden=64, classes=2, rows=2):
    def build(rng):
        x = rng.normal(size=(rows, fused_dim)) / math.sqrt(fused_dim)
        W1 = rng.normal(size=(hidden, fused_dim)) * (1.0 / math.sqrt(fused_dim))
        b1 = rng.normal(size=hidden) * 0.05
        W2 = rng.normal(size=(classes, hidden)) * (1.0 / math.sqrt(hidden))
        b2 = rng.normal(size=classes) * 0.05
        labels = rng.integers(classes, size=rows)
        return x, W1, b1, W2, b2, labels

    def ok(x, W1, b1, W2, b2, labels):
        return np.min(np.abs(x @ W1.T + b1)) >= _MARGIN

    x, W1, b1, W2, b2, labels = _resample(seed, build, ok)
    p = {
        "fc1.w": nn.Parameter("fc1.w", W1),
        "fc1.b": nn.Parameter("fc1.b", b1),
        "fc2.w": nn.Parameter("fc2.w", W2),
        "fc2.b": nn.Parameter("fc2.b", b2),
    }

    def loss():
        h = nn.relu(nn.linear(nn.tensor(x), p["fc1.w"], p["fc1.b"]))
        return nn.softmax_cross_entropy(nn.linear(h, p["fc2.w"], p["fc2.b"]), labels)

    return p, loss


STANDARD_FRAGMENTS = (
    ("linear_ce", _frag_linear_ce),
    ("conv_pool", _frag_conv_pool),
    ("conv_pool_blocks", _frag_conv_pool_blocks),
    ("conv_pool_sparse", _frag_conv_pool_sparse),
    ("conv_pool_dropout", _frag_conv_pool_dropout),
    ("link_mlp", _frag_link_mlp),
    ("softmax_ce", _frag_softmax_ce),
    ("local_attention", _frag_local_attention),
    ("local_attention_padded", _frag_local_attention_padded),
    ("fc_head_413_64_2", _frag_fc_head),
)


def run_standard_checks(seeds=(1, 2, 3), tolerance=DEFAULT_TOLERANCE, step=DEFAULT_STEP):
    """One report per (fragment, seed)."""
    reports = []
    for name, builder in STANDARD_FRAGMENTS:
        for seed in seeds:
            params, loss_fn = builder(seed)
            reports.append(
                finite_difference_check(
                    loss_fn, params, tolerance, step, fragment=name, seed=seed
                )
            )
    return reports
