"""Unit tests for the autodiff toolkit.

Every numeric target here is an independent oracle: hand-derived closed
forms, or a brute-force numpy re-implementation written in this file.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatmine import nn
from chatmine.errors import ContractViolation


def test_matmul_forward_and_backward_hand_case():
    # A @ B with A=[[1,2],[3,4]], B=[[5,6],[7,8]] -> [[19,22],[43,50]];
    # with upstream gradient all-ones, dA = 1 @ B^T, dB = A^T @ 1.
    A = nn.Parameter("A", np.array([[1.0, 2.0], [3.0, 4.0]]))
    B = nn.Parameter("B", np.array([[5.0, 6.0], [7.0, 8.0]]))
    out = A @ B
    assert np.array_equal(out.data, np.array([[19.0, 22.0], [43.0, 50.0]]))
    out.sum().backward()
    assert np.array_equal(A.grad, np.array([[11.0, 15.0], [11.0, 15.0]]))
    assert np.array_equal(B.grad, np.array([[4.0, 4.0], [6.0, 6.0]]))


def test_matmul_takes_a_matrix_on_the_left():
    v, M = nn.tensor(np.ones(2)), nn.tensor(np.ones((2, 2)))
    for bad in ((v, M), (v, v), (M, nn.tensor(np.ones((2, 2, 2))))):
        with pytest.raises(ContractViolation):
            bad[0] @ bad[1]


def test_sum_reshape_and_transpose_route_gradients_back():
    x = nn.Parameter("x", np.arange(6.0).reshape(2, 3))
    out = (x.T.reshape(3, 2, 1) * nn.tensor(np.array([1.0, 10.0])[:, None])).sum(axis=1)
    assert out.data.shape == (3, 1)
    assert np.array_equal(out.data[:, 0], [30.0, 41.0, 52.0])  # x[0, j] + 10 x[1, j]
    out.sum().backward()
    assert np.array_equal(x.grad, [[1.0, 1.0, 1.0], [10.0, 10.0, 10.0]])


def test_add_broadcast_backward():
    a = nn.Parameter("a", np.zeros((2, 3)))
    b = nn.Parameter("b", np.zeros(3))
    (a + b).sum().backward()
    assert np.array_equal(a.grad, np.ones((2, 3)))
    # the broadcast axis sums back: each b entry fed 2 rows
    assert np.array_equal(b.grad, np.full(3, 2.0))


def test_elementwise_activation_values():
    x = nn.tensor(np.array([-2.0, 0.0, 3.0]))
    assert np.array_equal(nn.relu(x).data, [0.0, 0.0, 3.0])
    assert np.allclose(nn.softsign(x).data, [-2.0 / 3.0, 0.0, 0.75])
    assert nn.sigmoid(nn.tensor(0.0)).data == pytest.approx(0.5)
    assert nn.sigmoid(nn.tensor(np.log(3.0))).data == pytest.approx(0.75)
    sp = nn.softplus(x).data
    assert np.allclose(sp, np.log1p(np.exp([-2.0, 0.0, 3.0])))


def test_softplus_is_stable_for_large_inputs():
    big = nn.softplus(nn.tensor(np.array([800.0, -800.0]))).data
    assert big[0] == pytest.approx(800.0)
    assert big[1] == pytest.approx(0.0)
    assert np.all(np.isfinite(big))


def test_softmax_rows_sum_to_one_and_match_numpy():
    rng = np.random.default_rng(0)
    z = rng.normal(size=7) * 10
    p = nn.softmax(nn.tensor(z)).data
    e = np.exp(z - z.max())
    assert np.allclose(p, e / e.sum(), atol=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_linear_shape_contract():
    W = nn.tensor(np.zeros((3, 4)))
    b = nn.tensor(np.zeros(3))
    with pytest.raises(ContractViolation):
        nn.linear(nn.tensor(np.zeros(5)), W, b)
    with pytest.raises(ContractViolation):
        nn.linear(nn.tensor(np.zeros((2, 5))), W, b)


def test_batched_linear_forward_and_gradients_closed_form():
    rng = np.random.default_rng(4)
    X = nn.Parameter("X", rng.normal(size=(5, 4)))
    W = nn.Parameter("W", rng.normal(size=(3, 4)))
    b = nn.Parameter("b", rng.normal(size=3))
    G = rng.normal(size=(5, 3))
    out = nn.linear(X, W, b)
    assert np.array_equal(out.data, X.data @ W.data.T + b.data)
    (out * nn.tensor(G)).sum().backward()
    assert np.array_equal(W.grad, G.T @ X.data)
    assert np.array_equal(b.grad, G.sum(axis=0))
    assert np.array_equal(X.grad, G @ W.data)


def test_unbatched_linear_is_one_node_with_closed_form_gradients():
    rng = np.random.default_rng(6)
    x = nn.Parameter("x", rng.normal(size=4))
    W = nn.Parameter("W", rng.normal(size=(3, 4)))
    b = nn.Parameter("b", rng.normal(size=3))
    g = rng.normal(size=3)
    out = nn.linear(x, W, b)
    assert out._parents == (x, W, b)  # no intermediate W @ x node
    assert np.array_equal(out.data, W.data @ x.data + b.data)
    (out * nn.tensor(g)).sum().backward()
    assert np.array_equal(W.grad, np.outer(g, x.data))
    assert np.array_equal(b.grad, g)
    assert np.array_equal(x.grad, W.data.T @ g)


def test_backward_requires_scalar():
    v = nn.Parameter("v", np.array([1.0, 2.0]))
    with pytest.raises(ContractViolation):
        (v * 2.0).backward()


# -- convolution + pooling -------------------------------------------------


def conv_pool_oracle(x, kernels, bias):
    """Brute-force stage: ReLU(w . window + b) then max, loops only."""
    n = len(x)
    m, h = kernels.shape
    out = np.zeros(m)
    for j in range(m):
        best = -np.inf
        for t in range(n - h + 1):
            a = max(0.0, float(np.dot(kernels[j], x[t : t + h]) + bias[j]))
            if a > best:
                best = a
        out[j] = best
    return out


def test_conv_pool_hand_case():
    # x=[1,2,3], kernel [1,1], bias 0: window sums are [3,5] -> pooled 5.
    # Gradient flows only through the winning window [2,3].
    x = nn.Parameter("x", np.array([[1.0, 2.0, 3.0]]))
    k = nn.Parameter("k", np.array([[1.0, 1.0]]))
    b = nn.Parameter("b", np.zeros(1))
    out = nn.conv1d_maxpool(x, k, b)
    assert np.array_equal(out.data, [[5.0]])
    out.sum().backward()
    assert np.array_equal(k.grad, [[2.0, 3.0]])
    assert np.array_equal(x.grad, [[0.0, 1.0, 1.0]])
    assert np.array_equal(b.grad, [1.0])


def test_conv_pool_batch_rows_are_independent_and_grads_add():
    # rows [1,2,3] and [3,2,1] win at windows 1 and 0; the kernel gradient
    # is the sum of the rows' winning windows
    x = nn.Parameter("x", np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]]))
    k = nn.Parameter("k", np.array([[1.0, 1.0]]))
    b = nn.Parameter("b", np.zeros(1))
    out = nn.conv1d_maxpool(x, k, b)
    assert np.array_equal(out.data, [[5.0], [5.0]])
    out.sum().backward()
    assert np.array_equal(k.grad, [[5.0, 5.0]])
    assert np.array_equal(x.grad, [[0.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    assert np.array_equal(b.grad, [2.0])


def test_conv_pool_tie_goes_to_first_window():
    x = nn.Parameter("x", np.array([[1.0, 0.0, 1.0]]))
    k = nn.Parameter("k", np.array([[1.0]]))
    out = nn.conv1d_maxpool(x, k, nn.tensor(np.zeros(1)))
    assert np.array_equal(out.data, [[1.0]])
    out.sum().backward()
    assert np.array_equal(x.grad, [[1.0, 0.0, 0.0]])


def one_window_rejected():
    """The error the op raises on an input no longer than its kernel."""
    return pytest.raises(ContractViolation, match="must exceed kernel size")


def test_conv_pool_matches_bruteforce_on_random_cases():
    rng = np.random.default_rng(3)
    one_window = 0
    for _ in range(20):
        n = int(rng.integers(3, 12))
        m = int(rng.integers(1, 6))
        h = int(rng.integers(1, n + 1))
        x = rng.normal(size=n)
        k = rng.normal(size=(m, h))
        b = rng.normal(size=m)
        if h == n:
            one_window += 1
            with one_window_rejected():
                nn.conv1d_maxpool(nn.tensor(x[None]), nn.tensor(k), nn.tensor(b))
            continue
        got = nn.conv1d_maxpool(nn.tensor(x[None]), nn.tensor(k), nn.tensor(b)).data
        assert np.allclose(got[0], conv_pool_oracle(x, k, b), atol=1e-12)
    assert one_window > 0


def test_conv_pool_rejects_short_sequence():
    # shorter than the kernel, or one window long, with and without a gradient
    for n in (2, 3):
        for x in (nn.tensor(np.zeros((1, n))), nn.Parameter("x", np.zeros((1, n)))):
            with one_window_rejected():
                nn.conv1d_maxpool(x, nn.tensor(np.zeros((1, 3))), nn.tensor(np.zeros(1)))


def window_major_conv_pool(x, kernels, bias, g):
    """The window-major form the kernel-major conv-pool replaced: all
    (n-h+1, m) pre-activations, ReLU, then the first argmax down each
    column. Returns the output and the kernel, bias and x gradients for
    upstream gradient ``g``."""
    n = len(x)
    m, h = kernels.shape
    windows = np.lib.stride_tricks.sliding_window_view(x, h)
    pre = windows @ kernels.T + bias
    act = np.maximum(pre, 0.0)
    win_idx = act.argmax(axis=0)
    cols = np.arange(m)
    gk = g * (pre[win_idx, cols] > 0.0)
    gx = np.zeros(n)
    np.add.at(gx, win_idx[:, None] + np.arange(h)[None, :], gk[:, None] * kernels)
    return act[win_idx, cols], gk[:, None] * windows[win_idx], gk, gx


def conv_pool_with_grads(x, kernels, bias, g):
    """Output and gradients of the op run on ``x`` as a one-row batch."""
    xp, kp, bp = nn.Parameter("x", x[None]), nn.Parameter("k", kernels), nn.Parameter("b", bias)
    out = nn.conv1d_maxpool(xp, kp, bp)
    (out * nn.tensor(g[None])).sum().backward()
    return out.data[0], kp.grad, bp.grad, xp.grad[0]


def assert_matches_window_major(x, kernels, bias, g):
    got = conv_pool_with_grads(x, kernels, bias, g)
    want = window_major_conv_pool(x, kernels, bias, g)
    for name, a, b in zip(("out", "kernel grad", "bias grad", "x grad"), got, want):
        assert np.array_equal(a, b), name
    return got


def window_major_batch(x, kernels, bias, g):
    """The window-major reference over a (B, n) batch, row by row: the (B, m)
    output, the kernel and bias gradients summed over the rows in order, and
    the (B, n) x gradient."""
    per_row = [window_major_conv_pool(row, kernels, bias, g_row) for row, g_row in zip(x, g)]
    gK, gb = np.zeros_like(kernels), np.zeros(len(bias))
    for _, gk_row, gb_row, _ in per_row:
        gK += gk_row
        gb += gb_row
    return np.stack([r[0] for r in per_row]), gK, gb, np.stack([r[3] for r in per_row])


def sparse_case_rows(n=40):
    """Named (n,) rows for the candidate-window tests. With kernel 0 all ones:
    in "tie_earlier" the window at 0 scores exactly 0, as do the windows of
    zeros from 2 on and the one at n-3; in "tie_later" only windows of zeros
    and the one at n-3 do."""
    rng = np.random.default_rng(11)
    zero_run = rng.normal(size=n)
    zero_run[8:25] = 0.0
    edges = np.zeros(n)
    edges[[0, n // 2, n - 1]] = rng.normal(size=3)
    tie_earlier = np.zeros(n)
    tie_earlier[[0, 1, n - 2, n - 1]] = [1.0, -1.0, -1.0, 1.0]
    tie_later = np.zeros(n)
    tie_later[[n - 2, n - 1]] = [-1.0, 1.0]
    return {
        "zero_run": zero_run,
        "edges": edges,
        "all_zero": np.zeros(n),
        "tie_earlier": tie_earlier,
        "tie_later": tie_later,
        "dense": rng.normal(size=n),
    }


def conv_pool_batch(x, kernels, bias, g, mode, keep=None):
    """The op's output and (kernel, bias, x) gradients on a (B, n) batch,
    scoring the outputs ``keep`` marks. In "no_grad" every operand is a
    constant and there are no gradients; in "const_x" the kernels and bias
    are Parameters; in "param_x" x is too."""
    if mode == "no_grad":
        out = nn.conv1d_maxpool(nn.tensor(x), nn.tensor(kernels), nn.tensor(bias), keep)
        assert not out.requires_grad
        return (out.data,)
    xp = nn.Parameter("x", x) if mode == "param_x" else nn.tensor(x)
    kp, bp = nn.Parameter("k", kernels), nn.Parameter("b", bias)
    out = nn.conv1d_maxpool(xp, kp, bp, keep)
    (out * nn.tensor(g)).sum().backward()
    return (out.data, kp.grad, bp.grad) + ((xp.grad,) if mode == "param_x" else ())


@pytest.mark.parametrize("mode", ["no_grad", "const_x", "param_x"])
@pytest.mark.parametrize("case", [*sparse_case_rows(), "mixed"])
def test_conv_pool_candidate_windows_match_window_major(case, mode):
    rows = sparse_case_rows()
    x = np.stack(list(rows.values()) if case == "mixed" else [rows[case]])
    rng = np.random.default_rng(12)
    m = 2 * nn._CONV_BLOCK + 5
    k, b = rng.normal(size=(m, 3)), rng.normal(size=m)  # some kernels dead
    k[0], b[0] = 1.0, 0.5  # alive at a score of 0: the tie rows tie
    g = rng.normal(size=(len(x), m))
    got = conv_pool_batch(x, k, b, g, mode)
    want = window_major_batch(x, k, b, g)
    for name, a, w in zip(("out", "kernel grad", "bias grad", "x grad"), got, want):
        assert np.array_equal(a, w), name


def test_conv_pool_zero_window_tie_goes_to_the_earlier_start():
    rows = sparse_case_rows()
    x = nn.Parameter("x", np.stack([rows["tie_earlier"], rows["tie_later"]]))
    k = nn.Parameter("k", np.ones((1, 3)))
    out = nn.conv1d_maxpool(x, k, nn.tensor([0.5]))
    assert np.array_equal(out.data, [[0.5], [0.5]])
    out.sum().backward()
    # the nonzero window at 0 beats the windows of zeros; in the second row
    # the first window of zeros, at 0, beats the nonzero one at n-3
    assert np.array_equal(k.grad, [[1.0, -1.0, 0.0]])
    assert np.array_equal(np.flatnonzero(x.grad[0]), [0, 1, 2])
    assert np.array_equal(np.flatnonzero(x.grad[1]), [0, 1, 2])


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("n", [40, 800])
def test_conv_pool_is_bit_identical_to_window_major_across_blocks(h, n):
    rng = np.random.default_rng(10 * n + h)
    m = 2 * nn._CONV_BLOCK + 5
    x = rng.normal(size=n)
    k = rng.normal(size=(m, h))
    b = rng.normal(size=m) * 2.0  # some kernels dead, most alive
    out, *_ = assert_matches_window_major(x, k, b, rng.normal(size=m))
    assert 0 < np.count_nonzero(out) < m


def test_conv_pool_tie_keeps_first_window_across_blocks():
    # period-3 input: windows t and t+3 are equal, so every kernel ties
    rng = np.random.default_rng(4)
    m = 2 * nn._CONV_BLOCK + 5
    x = np.tile([0.5, -1.0, 2.0], 20)
    k = rng.normal(size=(m, 3))
    _, _, _, gx = assert_matches_window_major(x, k, np.full(m, 5.0), rng.normal(size=m))
    assert np.all(gx[5:] == 0.0)  # winners start at t in {0, 1, 2}


def test_conv_pool_dead_kernels_route_nothing():
    rng = np.random.default_rng(5)
    m = nn._CONV_BLOCK + 7
    x = rng.normal(size=50)
    b = np.full(m, -100.0)
    b[::3] = 0.5  # every third kernel stays alive
    out, gk, gb, _ = assert_matches_window_major(x, rng.normal(size=(m, 3)), b, np.ones(m))
    dead = b < 0
    assert np.all(out[dead] == 0.0)
    assert np.all(gk[dead] == 0.0) and np.all(gb[dead] == 0.0)


def test_conv_pool_matches_window_major_on_a_trained_stack():
    from pathlib import Path

    from chatmine.checkpoint import load_checkpoint
    from chatmine.encoder import EncoderConfig, encode_tokens

    ckpt = Path(__file__).resolve().parent.parent / "perfbench" / "checkpoints" / "issue.ckpt"
    params = load_checkpoint(ckpt).params
    x = encode_tokens(("build", "fails", "after", "the", "upgrade"), EncoderConfig())
    assert x.shape == (800,)
    rng = np.random.default_rng(6)
    for i, m in enumerate((1024, 512, 256), 1):
        k, b = params[f"conv{i}.w"], params[f"conv{i}.b"]
        assert k.shape == (m, 3)
        x, *_ = assert_matches_window_major(x, k, b, rng.normal(size=m))


def test_conv_pool_gradient_path_gives_the_no_grad_bits_on_a_trained_stack():
    # the gradient path adds the bias inside the kernel product, the no-grad
    # path after pooling: every stage's output must carry the same bits,
    # signs of zero included, on hashed, dense and all-zero rows
    from pathlib import Path

    from chatmine.checkpoint import load_checkpoint
    from chatmine.encoder import EncoderConfig, encode_tokens

    ckpt = Path(__file__).resolve().parent.parent / "perfbench" / "checkpoints" / "issue.ckpt"
    params = load_checkpoint(ckpt).params
    hashed = [
        encode_tokens(tokens, EncoderConfig())
        for tokens in (("build", "fails", "after", "the", "upgrade"), ("pip", "install", "error"))
    ]
    dense = np.random.default_rng(13).normal(size=800)
    x = np.stack([hashed[0], dense, np.zeros(800), hashed[1]])
    const, grad = nn.tensor(x), nn.Parameter("x", x)
    for i in (1, 2, 3):
        k, b = params[f"conv{i}.w"], params[f"conv{i}.b"]
        const = nn.conv1d_maxpool(const, nn.tensor(k), nn.tensor(b))
        grad = nn.conv1d_maxpool(grad, nn.Parameter("k", k), nn.Parameter("b", b))
        assert not const.requires_grad and grad.requires_grad
        assert np.array_equal(grad.data, const.data), i
        assert np.array_equal(np.signbit(grad.data), np.signbit(const.data)), i
        assert np.count_nonzero(const.data[2]) > 0  # the all-zero row still sees the biases


@pytest.mark.parametrize(
    "m, n", [(1, 40), (nn._CONV_BLOCK + 1, 40), (2 * nn._CONV_BLOCK + 5, 3)],
    ids=["one-kernel", "one-row-tail-block", "one-window"],
)
def test_conv_pool_gradient_path_keeps_the_bits_near_matrix_vector_products(m, n):
    # numpy sends a one-row or one-column product to a matrix-vector kernel,
    # whose sum order differs from the matrix-matrix one; an input one
    # window long is rejected
    rng = np.random.default_rng(14)
    x = rng.normal(size=(200, n))
    x[1] = 0.0
    k, b = rng.normal(size=(m, 3)), rng.normal(size=m) + 3.0  # kernels alive
    if n == 3:
        for mode in ("no_grad", "const_x", "param_x"):
            with one_window_rejected():
                conv_pool_batch(x, k, b, np.zeros((len(x), m)), mode)
        return
    want = conv_pool_batch(x, k, b, None, "no_grad")[0]
    got = nn.conv1d_maxpool(nn.Parameter("x", x), nn.Parameter("k", k), nn.Parameter("b", b))
    assert np.array_equal(got.data, want)


def no_grad_cases():
    """Named (x, kernels, bias) stages for the no-gradient path, 800 wide
    unless named otherwise: with 133 kernels the scoring tiles split both
    the kernels and, on several rows, the windows."""
    rng = np.random.default_rng(15)
    m = 2 * nn._CONV_BLOCK + 5
    k, b = rng.normal(size=(m, 3)), rng.normal(size=m)
    k[0], b[0] = 1.0, 0.5  # alive at a score of 0: windows of zeros tie
    dense = rng.normal(size=(6, 800))
    many_zeros = dense * (rng.random((6, 800)) < 0.03)
    sparse = np.stack(list(sparse_case_rows(800).values()))
    return {
        # period 3: window t repeats at t + 3, so every maximum is tied
        "ties": (np.tile([0.5, -1.0, 2.0], (4, 267))[:, :800], k, b),
        "repeats": (np.repeat(rng.normal(size=(4, 100)), 8, axis=1), k, b),
        "all-zeros": (np.zeros((5, 800)), k, b),
        "many-zeros": (many_zeros, k, b),
        "one-kernel": (dense, k[:1], b[:1]),
        "n-equals-h": (rng.normal(size=(7, 3)), k, b),
        "mixed": (np.concatenate([sparse, dense[:2], many_zeros[:2]]), k, b),
    }


@pytest.mark.parametrize("tile", [None, 256], ids=["default-tiles", "tiny-tiles"])
@pytest.mark.parametrize("case", list(no_grad_cases()))
def test_conv_pool_no_grad_tiles_give_the_gradient_path_bits(case, tile, monkeypatch):
    # the no-gradient forward scores all rows' windows together in tiles,
    # the gradient path row by row; tiny tiles make rows straddle tiles
    if tile is not None:
        monkeypatch.setattr(nn, "_CONV_TILE", tile)
    x, k, b = no_grad_cases()[case]
    if case == "n-equals-h":
        for xt in (nn.tensor(x), nn.Parameter("x", x)):
            with one_window_rejected():
                nn.conv1d_maxpool(xt, nn.tensor(k), nn.tensor(b))
        return
    const = nn.conv1d_maxpool(nn.tensor(x), nn.tensor(k), nn.tensor(b))
    grad = nn.conv1d_maxpool(nn.Parameter("x", x), nn.Parameter("k", k), nn.Parameter("b", b))
    assert not const.requires_grad and grad.requires_grad
    assert np.array_equal(const.data, grad.data)
    assert np.array_equal(np.signbit(const.data), np.signbit(grad.data))
    want = window_major_batch(x, k, b, np.zeros((len(x), len(b))))[0]
    assert np.array_equal(const.data, want)


# -- the hull filter of the no-gradient path -------------------------------

HULL_KINDS = ("dense", "ties", "repeats", "all-zeros", "many-zeros", "constant", "flat", "ellipse")


def hull_row(kind, rng, n=1024):
    """One (n,) row of a named kind, read by kernels of size 3 as n-2 points
    of R^3."""
    if kind == "dense":
        return np.abs(rng.normal(size=n))
    if kind == "ties":  # window t repeats at t + 3: three points
        return np.tile(rng.normal(size=3), n // 3 + 1)[:n]
    if kind == "repeats":
        return np.repeat(rng.normal(size=n // 8), 8)
    if kind == "all-zeros":
        return np.zeros(n)
    if kind == "many-zeros":
        return rng.normal(size=n) * (rng.random(n) < 0.3)
    if kind == "constant":  # one point
        return np.full(n, rng.normal())
    if kind == "flat":  # a, b, b - a, -a, -b, a - b, ...: six points on x - y + z = 0
        a, b = rng.normal(size=2)
        return np.tile([a, b, b - a, -a, -b, a - b], n // 6 + 1)[:n]
    # x_t = sin(w t + phase) solves x_t+2 = 2 cos(w) x_t+1 - x_t: a plane,
    # up to rounding
    return np.sin(rng.uniform(0.1, 3.0) * np.arange(n) + rng.uniform(0, 6))


def stage2_like_rows(rows, seed):
    """Dense rows like a trained stack's stage-2 input: stage 1 pooled over
    sparse rows of 21 nonzeros, as the hashed encoder makes them."""
    rng = np.random.default_rng(seed)
    x = np.zeros((rows, 800))
    for row in x:
        row[rng.choice(800, 21, replace=False)] = rng.normal(size=21)
    k = nn.glorot_uniform(rng, (1024, 3), 3, 1024)
    b = rng.normal(scale=0.01, size=1024)
    return nn.conv1d_maxpool(nn.tensor(x), nn.tensor(k), nn.tensor(b)).data


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from(HULL_KINDS), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_conv_pool_hull_filter_keeps_every_peak(kinds, seed):
    # 512 kernels over 1022 windows: rows with enough candidate windows go
    # through the hull filter, and their peaks must be the bits of scoring
    # every window, as the gradient path does
    rng = np.random.default_rng(seed)
    x = np.stack([hull_row(kind, rng) for kind in kinds])
    k, b = rng.normal(size=(512, 3)), rng.normal(size=512)
    k[0], k[1], k[2] = (1.0, 1.0, 0.0), (1.0, -1.0, 1.0), 0.0  # lattice directions; all zero
    pruned = nn.conv1d_maxpool(nn.tensor(x), nn.tensor(k), nn.tensor(b))
    full = nn.conv1d_maxpool(nn.Parameter("x", x), nn.tensor(k), nn.tensor(b))
    assert np.array_equal(pruned.data.view(np.int64), full.data.view(np.int64))


@pytest.mark.parametrize("kind", ["stage-2", *HULL_KINDS])
def test_hull_filter_never_marks_a_first_argmax(kind):
    rng = np.random.default_rng(31)
    if kind == "stage-2":
        x = stage2_like_rows(3, 32)
    else:
        x = np.stack([hull_row(kind, rng) for _ in range(3)])
    inside = nn._hull_interior(x)
    directions = rng.normal(size=(4096, 3))
    directions[:26] = [u for u in np.ndindex(3, 3, 3) if u != (1, 1, 1)]
    directions[:26] -= 1.0  # the 26 directions of {-1, 0, 1}^3
    for row, marked in zip(x, inside):
        windows = np.lib.stride_tricks.sliding_window_view(row, 3)
        first = (directions @ windows.T).argmax(axis=1)
        assert not marked[first].any()


def test_hull_filter_prunes_most_of_a_stage_2_like_row(monkeypatch):
    # the predicate marks at least 80% of each row, and a no-gradient
    # stage-2 forward (512 kernels) scores only the windows left
    x = stage2_like_rows(6, 33)
    assert (x != 0).mean() > 0.98
    inside = nn._hull_interior(x)
    assert (inside.sum(axis=1) >= 0.8 * inside.shape[1]).all()
    scored = []
    window_maxima = nn._window_maxima

    def counting(x, kernels, cand):
        scored.append(cand.sum(axis=1))
        return window_maxima(x, kernels, cand)

    monkeypatch.setattr(nn, "_window_maxima", counting)
    k = np.random.default_rng(38).normal(size=(512, 3))
    nn.conv1d_maxpool(nn.tensor(x), nn.tensor(k), nn.tensor(np.zeros(512)))
    assert np.array_equal(scored[0], (~inside).sum(axis=1))


@pytest.mark.parametrize(
    "row",
    [
        np.zeros(1024),
        np.full(1024, 0.3),
        np.tile([0.5, -1.0, 2.0], 342)[:1024],
        hull_row("flat", np.random.default_rng(34)),
        np.where(np.arange(1024) == 500, np.inf, hull_row("dense", np.random.default_rng(35))),
        np.where(np.arange(1024) == 7, np.nan, hull_row("dense", np.random.default_rng(36))),
        hull_row("dense", np.random.default_rng(37)) * 1e200,
    ],
    ids=["all-zeros", "constant", "three-points", "flat", "inf", "nan", "huge"],
)
def test_hull_filter_leaves_rows_it_cannot_bound_whole(row):
    # fewer than 4 distinct extremes, coplanar extremes, non-finite values
    # and magnitudes whose cube leaves the float range: nothing is marked
    assert not nn._hull_interior(row[None, :]).any()


def test_extract_pairs_are_the_same_with_the_window_major_conv(tmp_path, monkeypatch):
    import importlib.util
    from pathlib import Path

    from chatmine import model
    from chatmine.corpus import PreprocessConfig, parse_chat_log, preprocess_chat_log
    from chatmine.disentangle import assemble_dialogs, heuristic_link_scorer
    from chatmine.encoder import EncoderConfig

    bench = Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("bench_gen", bench / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    raw = tmp_path / "raw.jsonl"
    gen.write_raw(gen.chained_log(1, 40, 3), raw)
    clean = preprocess_chat_log(parse_chat_log(raw)[0], PreprocessConfig())
    dialogs = assemble_dialogs(clean, heuristic_link_scorer)
    enc_cfg = EncoderConfig()
    issue = model.load_model_checkpoint(bench / "checkpoints" / "issue.ckpt", enc_cfg, "issue")
    solution = model.load_model_checkpoint(bench / "checkpoints" / "solution.ckpt", enc_cfg, "solution")
    cfg = model.ModelConfig(
        issue_threshold=issue.cfg.issue_threshold, solution_threshold=solution.cfg.solution_threshold
    )

    def extract():
        return model.extract_pairs(clean, dialogs, issue, solution, cfg, enc_cfg)

    got = extract()
    calls = []

    def reference(x, kernels, bias):
        # inference builds no graph: constants in, a constant (B, m) out
        assert not (x.requires_grad or kernels.requires_grad or bias.requires_grad)
        calls.append(len(x.data))
        g = np.zeros(len(bias.data))
        rows = [window_major_conv_pool(r, kernels.data, bias.data, g)[0] for r in x.data]
        return nn.tensor(np.stack(rows))

    monkeypatch.setattr(nn, "conv1d_maxpool", reference)
    want = extract()
    assert calls
    assert any(pair.solutions for pair in got)
    assert got == want


# -- the dropout mask of the gradient path ---------------------------------

KEEP_SHAPES = [(2 * nn._CONV_BLOCK + 5, 800), (nn._CONV_BLOCK + 1, 40), (2 * nn._CONV_BLOCK + 5, 3)]
KEEP_IDS = ["uneven-blocks", "one-row-tail-block", "n-equals-h"]
DROP_RATE = 0.6


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def keep_case(m, n, seed=40):
    """(x, kernels, bias, draws) for the masked conv-pool: rows of four kinds
    (sparse like a hashed vector, 60% zeros like a dropped-out stage, dense,
    all zeros), each row of a kind keeping none, one, two, all or a random
    40% of the m kernels; ``draws`` >= DROP_RATE exactly where a kernel is
    kept."""
    rng = np.random.default_rng(seed)
    hashed = np.zeros(n)
    hashed[rng.choice(n, max(1, n // 40), replace=False)] = rng.normal(size=max(1, n // 40))
    kinds = [hashed, np.abs(rng.normal(size=n)) * (rng.random(n) >= 0.6), rng.normal(size=n), np.zeros(n)]
    rows, keeps = [], []
    for row in kinds:
        for count in (0, 1, 2, m, None):
            keep = rng.random(m) < 0.4 if count is None else np.isin(np.arange(m), rng.choice(m, count, replace=False))
            rows.append(row)
            keeps.append(keep)
    keeps = np.array(keeps)
    draws = np.where(keeps, rng.uniform(DROP_RATE, 1.0, keeps.shape), rng.uniform(0.0, DROP_RATE, keeps.shape))
    k, b = rng.normal(size=(m, 3)), rng.normal(size=m)  # some kernels dead
    k[0], b[0] = 1.0, 0.5  # alive at a score of 0: windows of zeros tie
    return np.array(rows), k, b, draws


@pytest.mark.parametrize("mode", ["no_grad", "const_x", "param_x"])
@pytest.mark.parametrize("m, n", KEEP_SHAPES, ids=KEEP_IDS)
def test_conv_pool_keep_scores_the_kept_outputs_with_the_unmasked_bits(m, n, mode):
    # a kept output and its winning window are those of the unmasked op; a
    # dropped one is +0.0 and routes nothing. A gradient only on the kept
    # outputs reads the winners back: the kernel gradient sums their
    # windows and each row's x gradient marks them
    x, k, b, draws = keep_case(m, n)
    keep = draws >= DROP_RATE
    g = np.random.default_rng(41).normal(size=keep.shape) * keep
    if n == 3:
        for mask in (keep, None):
            with one_window_rejected():
                conv_pool_batch(x, k, b, g, mode, mask)
        return
    got = conv_pool_batch(x, k, b, g, mode, keep)
    want = conv_pool_batch(x, k, b, g, mode)
    assert same_bits(got[0], np.where(keep, want[0], 0.0))
    assert np.count_nonzero(got[0]) > 0
    for name, a, w in zip(("kernel grad", "bias grad", "x grad"), got[1:], want[1:]):
        assert same_bits(a, w), name


@pytest.mark.parametrize("m, n", KEEP_SHAPES, ids=KEEP_IDS)
def test_conv_pool_keep_then_dropout_gives_the_unmasked_values_and_gradients(m, n):
    x, k, b, draws = keep_case(m, n)
    g = np.random.default_rng(42).normal(size=draws.shape)

    def conv_then_dropout(keep):
        xp, kp, bp = nn.Parameter("x", x), nn.Parameter("k", k), nn.Parameter("b", b)
        out = nn.dropout(nn.conv1d_maxpool(xp, kp, bp, keep), DROP_RATE, draws)
        (out * nn.tensor(g)).sum().backward()
        return out.data, kp.grad, bp.grad, xp.grad

    if n == 3:
        for keep in (draws >= DROP_RATE, None):
            with one_window_rejected():
                conv_then_dropout(keep)
        return
    got, want = conv_then_dropout(draws >= DROP_RATE), conv_then_dropout(None)
    for name, a, w in zip(("out", "kernel grad", "bias grad", "x grad"), got, want):
        assert same_bits(a, w), name


def test_conv_pool_keep_scores_no_dropped_kernel(monkeypatch):
    # every row of a gradient call goes through _kept_blocks: its kernel
    # products hold its kept kernels only, every kernel without a mask, in
    # blocks of at least two rows; a row keeping none makes no product. A
    # lone kernel is scored twice on both routes
    x, k, b, draws = keep_case(2 * nn._CONV_BLOCK + 5, 800)
    scored, tiled = [], []
    kept_blocks, window_maxima = nn._kept_blocks, nn._window_maxima

    def recording(row_keep):
        blocks = kept_blocks(row_keep)
        scored.append(blocks)
        return blocks

    def tiling(x, kernels, cand):
        tiled.append(kernels)
        return window_maxima(x, kernels, cand)

    monkeypatch.setattr(nn, "_kept_blocks", recording)
    monkeypatch.setattr(nn, "_window_maxima", tiling)
    for keep in (draws >= DROP_RATE, None):
        scored.clear()
        nn.conv1d_maxpool(nn.tensor(x), nn.Parameter("k", k), nn.Parameter("b", b), keep)
        assert len(scored) == len(x)
        for r, blocks in enumerate(scored):
            assert all(2 <= len(blk) <= nn._CONV_BLOCK for blk in blocks)
            scored_kernels = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.intp)
            want = np.arange(len(k)) if keep is None else np.flatnonzero(keep[r])
            assert np.array_equal(np.unique(scored_kernels), want)
    assert not tiled
    scored.clear()
    nn.conv1d_maxpool(nn.tensor(x), nn.Parameter("k", k[:1]), nn.Parameter("b", b[:1]))
    assert len(scored) == len(x)
    assert all(len(blocks) == 1 and np.array_equal(blocks[0], [0, 0]) for blocks in scored)
    nn.conv1d_maxpool(nn.tensor(x), nn.tensor(k[:1]), nn.tensor(b[:1]))
    assert len(tiled) == 1 and np.array_equal(tiled[0], k[[0, 0]])


def test_conv_pool_graph_holds_no_window_by_kernel_array():
    import tracemalloc

    rng = np.random.default_rng(7)
    data = rng.normal(size=(8, 800))
    k = nn.Parameter("k", rng.normal(size=(1024, 3)))
    b = nn.Parameter("b", rng.normal(size=1024))
    for x in (nn.tensor(data), nn.Parameter("x", data)):
        tracemalloc.start()
        try:
            out = nn.conv1d_maxpool(x, k, b)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        # one row's (798, 1024) pre-activations alone would be 6.5 MB; the
        # graph keeps the (8, 1024) winning starts, 64 KB
        assert held < 1_000_000, (x, held)


def candidate_rows(n, rng):
    """(rows, n) inputs for the candidate mask: a lone nonzero at each
    position, a row of +0.0 and one of -0.0, a row with no window of zeros,
    and sparse random rows; the nonzeros include NaN, +-inf and
    subnormals."""
    tiny = np.nextafter(0.0, 1.0)
    special = np.array([np.nan, np.inf, -np.inf, tiny, -tiny, 1.0, -2.5])
    lone = np.zeros((n, n))
    lone[np.arange(n), np.arange(n)] = special[np.arange(n) % len(special)]
    dense = special[np.arange(n) % len(special)]
    zeros = np.where(rng.random((12, n)) < 0.5, 0.0, -0.0)
    sparse = np.where(rng.random((12, n)) < 0.3, rng.choice(special, (12, n)), zeros)
    return np.vstack([lone, np.zeros((1, n)), np.full((1, n), -0.0), dense[None], sparse])


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_conv_pool_candidates_are_the_windows_holding_a_nonzero(h, monkeypatch):
    # the op scores the starts whose window holds a nonzero, NaN and
    # subnormals included, plus each row's first window of zeros; a row
    # with none marks its first start again
    seen = []
    monkeypatch.setattr(
        nn, "_window_maxima", lambda x, kernels, cand: seen.append(cand.copy()) or np.zeros((len(x), len(kernels)))
    )
    rng = np.random.default_rng(50 + h)
    for n in (h + 1, h + 2, 12):
        x = candidate_rows(n, rng)
        want = np.lib.stride_tricks.sliding_window_view(x != 0.0, h, axis=1).any(axis=2)
        want[np.arange(len(x)), want.argmin(axis=1)] = True
        seen.clear()
        nn.conv1d_maxpool(nn.tensor(x), nn.tensor(np.ones((2, h))), nn.tensor(np.zeros(2)))
        assert len(seen) == 1 and np.array_equal(seen[0], want), n


def add_at_conv_grads(x, kernels, bias, g, keep):
    """The op's kernel and x gradients by np.add.at over the winners of a
    window-major forward, live output after live output."""
    h = kernels.shape[1]
    pre = np.lib.stride_tricks.sliding_window_view(x, h, axis=1) @ kernels.T + bias  # (B, w, m)
    win = pre.argmax(axis=1)
    gate = np.take_along_axis(pre, win[:, None], axis=1)[:, 0] > 0.0
    if keep is not None:
        gate &= keep
    live_r, live_k = np.nonzero(gate)
    idx = win[live_r, live_k, None] + np.arange(h)
    gl = (g * gate)[live_r, live_k, None]
    gK, gx = np.zeros_like(kernels), np.zeros_like(x)
    np.add.at(gK, live_k, gl * x[live_r[:, None], idx])
    np.add.at(gx, (live_r[:, None], idx), gl * kernels[live_k])
    return gK, gx


@pytest.mark.parametrize("masked", [False, True], ids=["all", "keep"])
def test_conv_pool_gradients_match_add_at_scatters(masked):
    # dense rows, and rows of one tall spike: most kernels win one of the
    # windows that overlap it, so a cell of x sums dozens of terms, and each
    # kernel's gradient one term per row
    rng = np.random.default_rng(60)
    m, n = 2 * nn._CONV_BLOCK + 5, 30
    x = rng.normal(size=(6, n))
    x[3, 10:13] = 40.0
    x[4, 20:23] = [30.0, 40.0, 30.0]
    x[5] = np.abs(x[5])
    k, b = rng.normal(size=(m, 3)), rng.normal(size=m)
    keep = rng.random((len(x), m)) < 0.4 if masked else None
    g = rng.normal(size=(len(x), m))
    spike_win = (np.lib.stride_tricks.sliding_window_view(x[3], 3) @ k.T + b).argmax(axis=0)
    assert np.count_nonzero((spike_win >= 8) & (spike_win <= 12)) > m // 2
    _, gk, _, gx = conv_pool_batch(x, k, b, g, "param_x", keep)
    want_k, want_x = add_at_conv_grads(x, k, b, g, keep)
    assert same_bits(gk, want_k) and same_bits(gx, want_x)


# -- losses ----------------------------------------------------------------


def test_fused_softmax_ce_matches_composition():
    rng = np.random.default_rng(1)
    for label in (0, 1):
        z = rng.normal(size=2) * 5
        fused = nn.softmax_cross_entropy(nn.tensor(z[None]), [label])
        e = np.exp(z - z.max())
        want = -math.log(e[label] / e.sum())
        assert float(fused.data) == pytest.approx(want, abs=1e-12)


def test_fused_softmax_ce_gradient_is_p_minus_onehot():
    # a batch of two rows: the loss is the rows' mean, so each row's
    # gradient is (p - onehot) / 2
    z = nn.Parameter("z", np.array([[0.2, -1.3, 0.7], [1.1, 0.4, -0.6]]))
    loss = nn.softmax_cross_entropy(z, [2, 0])
    loss.backward()
    e = np.exp(z.data - z.data.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    want = p.copy()
    want[0, 2] -= 1.0
    want[1, 0] -= 1.0
    assert np.allclose(z.grad, want / 2.0, atol=1e-12)
    assert float(loss.data) == pytest.approx(-(math.log(p[0, 2]) + math.log(p[1, 0])) / 2.0)


# -- dropout ---------------------------------------------------------------


def test_dropout_preserves_expectation():
    # inverted scaling: E[mask * x / (1-p)] == x
    rng = np.random.default_rng(11)
    n = 400_000
    out = nn.dropout(nn.tensor(np.ones(n)), 0.6, rng.random(n))
    assert float(out.data.mean()) == pytest.approx(1.0, abs=0.01)
    kept = out.data[out.data != 0.0]
    assert np.allclose(kept, 1.0 / 0.4)


def test_dropout_backward_uses_same_mask():
    x = nn.Parameter("x", np.ones(1000))
    out = nn.dropout(x, 0.5, np.random.default_rng(2).random(1000))
    out.sum().backward()
    assert np.array_equal(x.grad, out.data)  # both are the scaled mask


def test_dropout_probability_contract():
    rng = np.random.default_rng(0)
    for bad in (1.0, 1.5, -0.1):
        with pytest.raises(ContractViolation):
            nn.dropout(nn.tensor(np.ones(3)), bad, rng.random(3))


# -- optimiser -------------------------------------------------------------


def test_adam_first_step_closed_form():
    # With one step the bias corrections cancel: delta = lr*g/(|g|+eps),
    # so each coordinate moves by ~lr against the gradient sign.
    p = nn.Parameter("p", np.array([1.0, 2.0, -3.0]))
    p.grad = np.array([1.0, -1.0, 4.0])
    state = nn.AdamState(lr=0.001, beta1=0.9)
    nn.adam_step({"p": p}, state)
    assert np.allclose(p.data, [1.0 - 0.001, 2.0 + 0.001, -3.0 - 0.001], atol=1e-6)
    assert p.grad is None
    assert state.step == 1


def test_adam_zero_gradient_leaves_parameter_unchanged():
    p = nn.Parameter("p", np.array([5.0]))
    p.grad = np.zeros(1)
    nn.adam_step({"p": p}, state=nn.AdamState())
    assert np.array_equal(p.data, [5.0])


def test_adam_moments_tracked_per_parameter_name():
    a = nn.Parameter("a", np.zeros(2))
    b = nn.Parameter("b", np.zeros(3))
    a.grad = np.ones(2)
    b.grad = np.ones(3)
    state = nn.AdamState()
    nn.adam_step({"a": a, "b": b}, state)
    assert set(state.m) == {"a", "b"}
    assert state.m["a"].shape == (2,)
    assert state.m["b"].shape == (3,)


def adam_reference(params, moments, t, lr, beta1, beta2=0.999, eps=1e-8):
    """Adam in plain expressions, every intermediate a fresh array:
    name -> (m, v) in ``moments`` is replaced, the new data returned."""
    out = {}
    for name, (data, grad) in params.items():
        g = grad if grad is not None else np.zeros_like(data)
        m, v = moments.get(name, (np.zeros_like(data), np.zeros_like(data)))
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g**2
        moments[name] = (m, v)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        out[name] = data - lr * m_hat / (np.sqrt(v_hat) + eps)
    return out


def test_adam_with_kept_scratch_matches_fresh_array_adam_bit_for_bit():
    rng = np.random.default_rng(21)
    shapes = {"s": (), "v": (3,), "big": (300, 400), "w": (4, 5)}
    params = {n: nn.Parameter(n, rng.normal(size=shape)) for n, shape in shapes.items()}
    state = nn.AdamState(lr=0.01, beta1=0.8)
    want = {n: p.data.copy() for n, p in params.items()}
    moments = {}
    for t in range(1, 6):
        for n, p in params.items():
            # "w" has no gradient on odd steps
            p.grad = None if n == "w" and t % 2 else rng.normal(size=shapes[n]) * 10.0**-t
        fed = {n: (want[n], p.grad) for n, p in params.items()}
        want = adam_reference(fed, moments, t, lr=0.01, beta1=0.8)
        nn.adam_step(params, state)
        for n, p in params.items():
            assert p.grad is None
            assert np.array_equal(p.data, want[n]), (t, n)
            assert np.array_equal(state.m[n], moments[n][0]), (t, n)
            assert np.array_equal(state.v[n], moments[n][1]), (t, n)
    # the scratch is sized once, to the largest parameter
    assert all(buf.size == 300 * 400 for buf in state.scratch)


def test_glorot_uniform_bounds():
    rng = np.random.default_rng(0)
    w = nn.glorot_uniform(rng, (200, 300), fan_in=300, fan_out=200)
    limit = math.sqrt(6.0 / 500.0)
    assert np.all(np.abs(w) <= limit)
    assert abs(float(w.mean())) < limit / 10.0


# -- graph behaviour -------------------------------------------------------


def test_gradient_accumulates_over_reused_tensor():
    x = nn.Parameter("x", np.array(3.0))
    y = x * x  # dy/dx = 2x through two paths
    y.backward()
    assert float(x.grad) == pytest.approx(6.0)


def graph_tensors(root):
    """Every tensor reachable from ``root`` through the graph, root included."""
    seen, stack = {}, [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return list(seen.values())


def test_parameter_grads_share_no_memory_with_the_graph():
    rng = np.random.default_rng(22)
    a = nn.Parameter("a", rng.normal(size=(2, 3)))
    b = nn.Parameter("b", rng.normal(size=3))
    c = nn.Parameter("c", rng.normal(size=(3, 2)))
    W = nn.Parameter("W", rng.normal(size=(4, 6)))
    bias = nn.Parameter("bias", rng.normal(size=4))
    # a is reused; c and a reach the concat through .T and reshape only, and
    # b through a broadcast add
    h = nn.concat([c.T, a.reshape(2, 3), a * b + b])  # (2, 9)
    y = nn.linear(nn.concat([c.T, a]), W, bias)  # (2, 4)
    loss = (y * y).sum() + h.sum() + a.reshape(6).sum()
    loss.backward()
    tensors = graph_tensors(loss)
    params = [t for t in tensors if isinstance(t, nn.Parameter)]
    assert {p.name for p in params} == {"a", "b", "c", "W", "bias"}
    for p in params:
        assert p.grad is not None and p.grad.shape == p.data.shape, p.name
        for t in tensors:
            arrays = [t.data] + ([t.grad] if t is not p and t.grad is not None else [])
            for arr in arrays:
                assert not np.shares_memory(p.grad, arr), (p.name, t)
    # a fresh float64 gradient is kept as it is; a view is copied
    kept, copied = nn.Parameter("kept", np.zeros(4)), nn.Parameter("copied", np.zeros(2))
    g = np.arange(4.0)
    kept._accumulate(g)
    assert kept.grad is g
    copied._accumulate(g[:2])
    assert np.array_equal(copied.grad, [0.0, 1.0]) and not np.shares_memory(copied.grad, g)


def test_concat_routes_gradients_to_parts():
    a = nn.Parameter("a", np.array([1.0, 2.0]))
    b = nn.Parameter("b", np.array([3.0]))
    out = nn.concat([a, b])
    (out * nn.tensor(np.array([10.0, 20.0, 30.0]))).sum().backward()
    assert np.array_equal(a.grad, [10.0, 20.0])
    assert np.array_equal(b.grad, [30.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
def test_softmax_always_a_distribution(values):
    p = nn.softmax(nn.tensor(np.array(values))).data
    assert np.all(p >= 0.0)
    assert float(p.sum()) == pytest.approx(1.0, abs=1e-9)
