"""Minimal dense/convolutional neural toolkit with reverse-mode gradients.

Tensors wrap float64 numpy arrays and record a backward closure per op; calling
``backward()`` on a scalar loss walks the graph in reverse topological order.
Only the ops the models need are provided: linear algebra, a fused
conv1d+max-pool, the usual activations, dropout, fused softmax cross-entropy,
and Adam. The layers take a leading batch axis, so a whole mini-batch is one
graph with one node per layer. The conv-pool scores only the windows that
can win, few on a sparse hashed vector. Without a gradient it scores the
windows of all a batch's rows together, in cache-sized tiles with no loop
over rows. On a dense row of a wide stage it first drops the windows inside
the hull of the row's extreme windows: no kernel's maximum can pick them,
by a margin far above the products' rounding, so the pooled bits stay those
of scoring every window. When a gradient is needed it runs row by row and
keeps each kernel's winning window, so its backward runs no matrix product,
and that path folds the bias into the kernel product. Backward stores a
fresh gradient without a copy, and Adam updates in place through scratch
kept across steps.
Everything is deterministic given (input, params, seed); dropout takes its
uniform draws from the caller.
"""

import itertools
import math

import numpy as np

from .errors import ContractViolation

__all__ = [
    "Tensor",
    "Parameter",
    "tensor",
    "linear",
    "relu",
    "softsign",
    "softplus",
    "sigmoid",
    "softmax",
    "dropout",
    "concat",
    "conv1d_maxpool",
    "softmax_cross_entropy",
    "AdamState",
    "adam_step",
    "train_epoch",
    "glorot_uniform",
    "init_params",
]


class Tensor:
    """A float64 array plus the backward closure that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in parents)
        # backward never visits a tensor that needs no gradient: keep no graph
        self._parents = tuple(parents) if self.requires_grad else ()
        self._backward = backward_fn if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph walking --------------------------------------------------

    def backward(self):
        """Accumulate gradients of this scalar into every reachable tensor."""
        if self.data.ndim != 0:
            raise ContractViolation("backward() requires a scalar tensor")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _accumulate(self, g):
        if self.grad is None:
            # a fresh float64 array that owns its memory is no other tensor's
            # grad or data, so it is kept as it is; views and other input
            # are copied
            owned = type(g) is np.ndarray and g.dtype == np.float64 and g.base is None
            self.grad = g if owned else np.array(g, dtype=np.float64)
        else:
            self.grad = self.grad + g

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)

        def back(g):
            # g is this node's own gradient: a view of it is copied, a sum kept
            if self.requires_grad:
                self._accumulate(_unbroadcast(g.view(), self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g.view(), other.data.shape))

        return Tensor(self.data + other.data, parents=(self, other), backward_fn=back)

    __radd__ = __add__

    def __mul__(self, other):
        other = _as_tensor(other)

        def back(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return Tensor(self.data * other.data, parents=(self, other), backward_fn=back)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_tensor(other)

        def back(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape)
                )

        return Tensor(self.data / other.data, parents=(self, other), backward_fn=back)

    def __matmul__(self, other):
        """matrix @ matrix or matrix @ vector."""
        other = _as_tensor(other)
        a, b = self.data, other.data
        if a.ndim != 2 or b.ndim not in (1, 2):
            raise ContractViolation(f"matmul takes 2-D @ 1-D or 2-D, got {a.shape} @ {b.shape}")

        def back(g):
            if self.requires_grad:
                self._accumulate(np.outer(g, b) if b.ndim == 1 else g @ b.T)
            if other.requires_grad:
                other._accumulate(a.T @ g)

        return Tensor(a @ b, parents=(self, other), backward_fn=back)

    def sum(self, axis=None):
        def back(g):
            if self.requires_grad:
                g = g if axis is None else np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor(self.data.sum(axis=axis), parents=(self,), backward_fn=back)

    def reshape(self, *shape):
        def back(g):
            if self.requires_grad:
                self._accumulate(g.reshape(self.data.shape))

        return Tensor(self.data.reshape(*shape), parents=(self,), backward_fn=back)

    @property
    def T(self):
        def back(g):
            if self.requires_grad:
                self._accumulate(g.T)

        return Tensor(self.data.T, parents=(self,), backward_fn=back)


class Parameter(Tensor):
    """A named trainable tensor; models keep these in insertion-ordered dicts."""

    __slots__ = ("name",)

    def __init__(self, name, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def tensor(data):
    """Wrap raw data as a constant (no-grad) tensor."""
    return Tensor(data)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to ``shape``; fresh stays fresh."""
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- layers and activations ---------------------------------------------


def linear(x, W, b):
    """One node computing x @ W.T + b, with gradients for all three operands.
    ``x`` is one (d,) input or a (B, d) batch of rows; the output is (out,)
    or (B, out)."""
    if W.data.shape[-1] != x.data.shape[-1]:
        raise ContractViolation(
            f"linear: weight inner dim {W.data.shape[-1]} != input dim {x.data.shape[-1]}"
        )
    rows = x.data.reshape(-1, x.data.shape[-1])

    def back(g):
        g = g.reshape(len(rows), -1)
        if W.requires_grad:
            W._accumulate(g.T @ rows)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))
        if x.requires_grad:
            gx = g @ W.data
            x._accumulate(gx if gx.shape == x.data.shape else gx.reshape(x.data.shape))

    return Tensor(x.data @ W.data.T + b.data, parents=(x, W, b), backward_fn=back)


def relu(x):
    x = _as_tensor(x)
    gate = x.data > 0

    def back(g):
        if x.requires_grad:
            x._accumulate(g * gate)

    return Tensor(np.where(gate, x.data, 0.0), parents=(x,), backward_fn=back)


def softsign(x):
    """x / (1 + |x|), the squash used by the reply-link scorer."""
    x = _as_tensor(x)
    denom = 1.0 + np.abs(x.data)

    def back(g):
        if x.requires_grad:
            x._accumulate(g / (denom * denom))

    return Tensor(x.data / denom, parents=(x,), backward_fn=back)


def sigmoid(x):
    x = _as_tensor(x)
    y = 1.0 / (1.0 + np.exp(-x.data))

    def back(g):
        if x.requires_grad:
            x._accumulate(g * y * (1.0 - y))

    return Tensor(y, parents=(x,), backward_fn=back)


def softplus(x):
    """log(1 + e^x) computed stably; gradient is sigmoid(x)."""
    x = _as_tensor(x)
    y = np.logaddexp(0.0, x.data)
    sig = 1.0 / (1.0 + np.exp(-np.clip(x.data, -500, 500)))

    def back(g):
        if x.requires_grad:
            x._accumulate(g * sig)

    return Tensor(y, parents=(x,), backward_fn=back)


def softmax(x):
    """Row-wise softmax over the last axis."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        if x.requires_grad:
            inner = (g * y).sum(axis=-1, keepdims=True)
            x._accumulate(y * (g - inner))

    return Tensor(y, parents=(x,), backward_fn=back)


def dropout(x, p, uniforms):
    """Inverted dropout: zero each entry whose U[0, 1) draw in ``uniforms``
    (the caller's, shaped like x) is below p; scale survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ContractViolation(f"dropout probability must be in [0, 1), got {p}")
    x = _as_tensor(x)
    mask = (uniforms >= p) / (1.0 - p)

    def back(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    return Tensor(x.data * mask, parents=(x,), backward_fn=back)


def concat(parts):
    """Concatenate along the last axis; gradient slices back into each part."""
    parts = [_as_tensor(p) for p in parts]
    sizes = [p.data.shape[-1] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if part.requires_grad:
                part._accumulate(g[..., lo:hi])

    return Tensor(
        np.concatenate([p.data for p in parts], axis=-1), parents=tuple(parts), backward_fn=back
    )


# Kernel rows per matmul block on conv1d_maxpool's gradient path, so each
# (block, windows) product stays in cache. On the 800-d 1024/512/256 stack
# (Xeon, one BLAS thread), scoring every window of a dense row, blocks of 64
# or 128 took 1.36 ms per example, 32 took 1.58 ms and 256 to 1024 took
# 2.0-2.4 ms.
_CONV_BLOCK = 64
# (kernel, window) products per tile on the no-gradient path: 512 KB of
# float64, at most _CONV_TILE // _CONV_BLOCK = 1024 windows wide, so a dense
# row of a 1024-wide input fills one tile, as it fills one block above. At
# this size OpenBLAS (0.3, SkylakeX and Haswell kernels) runs each product
# through its small-matrix kernel, which sums a window's terms in the same
# order wherever the window sits; products of over about 10^6 multiply-adds
# computed their last columns in another order.
_CONV_TILE = 65536
# The no-gradient path drops the windows inside their row's inner hull
# (conv1d_maxpool) where a row would cost at least _HULL_PRODUCTS (kernel,
# candidate window) products. Measured on the bench's extract rows (seeds
# 1-3, 2-core Xeon, one BLAS thread): stage 2, 512 kernels over 1022 dense
# windows, keeps 66 windows a row and costs 0.18 to 0.21 ms a row, about
# 0.09 of it in the filter, against 0.42 to 0.47 scoring every window.
# Stage 3, 256 kernels over 510 windows with a fifth of its inputs zero,
# keeps 268 and went from 0.165 to 0.243 ms a row; stage 1's hashed rows
# hold about 61 candidate windows.
_HULL_PRODUCTS = 1 << 18
# Rows per hull group: an extract chunk's forward, at most 16 rows mostly,
# is one group, and a group's temporaries stay under about 2 MB.
_HULL_ROWS = 16
# A row's extremes are the windows that maximize and minimize u . window
# for the 6 face diagonals u of {-1, 0, 1}^3, up to sign: at most 12 points.
# Adding the 4 body diagonals kept 56 windows a row instead of 66, but the
# facet search over up to 20 points took stage 2 from 0.20 to 0.23 ms a row,
# and 10 s bench runs of extract read 57.3 MB of peak RSS each instead of
# 54.7-54.8; adding the 3 axes as well kept 51 and took 0.29 ms a row.
_HULL_DIRS = np.array(
    [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)], dtype=float
)
# Every triple of a row's at most 2 * len(_HULL_DIRS) distinct extremes, in
# colexicographic order: the first C(k, 3) are the triples of the first k.
_HULL_TRIPLES = np.array(
    sorted(itertools.combinations(range(2 * len(_HULL_DIRS)), 3), key=lambda c: c[::-1]),
    dtype=np.intp,
).T


def _hull_interior(x):
    """(B, n-2) mask of the windows of the (B, n) batch ``x``, read as points
    of R^3, that lie inside the hull of their row's extreme windows by the
    margin conv1d_maxpool states; all False on a row that is not pruned. The
    rows go in groups of at most _HULL_ROWS."""
    inside = np.zeros((len(x), x.shape[1] - 2), dtype=bool)
    big = np.abs(x).max(axis=1)
    rows = np.flatnonzero((big > 1e-60) & (big < 1e60))  # NaN fails both
    for lo in range(0, len(rows), _HULL_ROWS):
        group = rows[lo : lo + _HULL_ROWS]
        inside[group] = _interior(x[group], big[group, None])
    return inside


def _interior(x, big):
    """_hull_interior on rows whose largest |x| is ``big`` (B, 1): the
    extremes, every triple's plane, the planes with all extremes on one side,
    then each window against those planes."""
    rows, w = len(x), x.shape[1] - 2
    inside = np.zeros((rows, w), dtype=bool)
    pts = np.empty((rows, 4, w))  # each window as a column (x_t, x_t+1, x_t+2, 1)
    for i in range(3):
        pts[:, i] = x[:, i : i + w]
    pts[:, 3] = 1.0
    proj = _HULL_DIRS @ pts[:, :3]  # (rows, directions, w)
    ext = np.concatenate((proj.argmax(axis=2), proj.argmin(axis=2)), axis=1)
    ext.sort(axis=1)
    new = np.ones(ext.shape, dtype=bool)
    np.not_equal(ext[:, 1:], ext[:, :-1], out=new[:, 1:])
    k = new.sum(axis=1)  # distinct extremes per row, moved to the front
    top = k.max()
    if top < 4:
        return inside
    ext = np.take_along_axis(ext, np.argsort(~new, axis=1, kind="stable")[:, :top], axis=1)
    e = np.stack([np.take_along_axis(x[:, i : i + w], ext, axis=1) for i in range(3)])
    # every triple's plane, coordinate-major: normal (b - a) x (c - a) from a
    # table of differences, and both of its sides as [normal | offset]
    p, q, r = _HULL_TRIPLES[:, : math.comb(top, 3)]
    t = len(r)
    diff = (e[:, :, None, :] - e[:, :, :, None]).reshape(3, rows, top * top)
    u, v = np.take(diff, p * top + q, axis=2), np.take(diff, p * top + r, axis=2)
    planes = np.empty((4, rows, 2 * t))
    n = planes[:3, :, :t]
    for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(u[j], v[l], out=n[i])
        n[i] -= u[l] * v[j]
    s = e.transpose(1, 2, 0) @ n.transpose(1, 0, 2)  # (rows, top, t): extremes . normals
    on = np.take(s.reshape(rows, -1), p * t + np.arange(t), axis=1)  # at the plane's point p
    hi, lo = s.max(axis=1), s.min(axis=1)
    l1 = np.abs(n).sum(axis=0)
    tol = 1e-9 * big * l1 + 1e-12 * big**3
    facet = np.empty((rows, 2 * t), dtype=bool)
    np.less_equal(hi - on, tol, out=facet[:, :t])
    np.less_equal(on - lo, tol, out=facet[:, t:])
    real = (r < k[:, None]) & (l1 > 0.0)  # no padding point, no repeated point
    facet[:, :t] &= real
    facet[:, t:] &= real
    np.negative(n, out=planes[:3, :, t:])
    np.subtract(2.0 * tol, hi, out=planes[3, :, :t])
    np.add(2.0 * tol, lo, out=planes[3, :, t:])
    for i in np.flatnonzero((k >= 4) & facet.any(axis=1)):
        np.less((planes[:, i, facet[i]].T @ pts[i]).max(axis=0), 0.0, out=inside[i])
    return inside


def _window_maxima(x, kernels, cand):
    """(B, m): per row of the (B, n) batch ``x``, each kernel's max of
    kernel . window over the row's candidate windows, the starts ``cand``
    (B, n-h+1) marks. The candidate windows of all rows are gathered row
    after row into one (h, windows) array and scored in tiles of at most
    _CONV_TILE products; one maximum.reduceat per tile pools each row's part
    of it. No tile is one kernel tall or, with two windows or more, one window
    wide: numpy would send it to a matrix-vector kernel with another sum
    order."""
    m, h = kernels.shape
    counts = cand.sum(axis=1)
    width = counts.sum()
    # tap by tap, so no (windows, h) copy is made on the way
    wins = np.empty((h, width))
    for i in range(h):
        wins[i] = x[:, i : i + cand.shape[1]][cand]
    first = np.cumsum(counts) - counts  # each row's first column in wins
    n_cols = -(-width * _CONV_BLOCK // _CONV_TILE)
    col_edges = np.arange(n_cols + 1) * width // n_cols
    n_kern = -(-m * (width // n_cols) // _CONV_TILE)
    kern_edges = np.arange(n_kern + 1) * m // n_kern
    peak = np.full((len(x), m), -np.inf)
    for lo, hi in zip(col_edges[:-1], col_edges[1:]):
        r0 = np.searchsorted(first, lo, side="right") - 1
        r1 = np.searchsorted(first, hi)
        cuts = np.maximum(first[r0:r1] - lo, 0)
        for k0, k1 in zip(kern_edges[:-1], kern_edges[1:]):
            part = np.maximum.reduceat(kernels[k0:k1] @ wins[:, lo:hi], cuts, axis=1)
            np.maximum(peak[r0:r1, k0:k1], part.T, out=peak[r0:r1, k0:k1])
    return peak


def conv1d_maxpool(x, kernels, bias):
    """One convolution-pooling stage: ReLU(w . x[t:t+h]) then max over t.

    ``x`` is a (B, n) batch of length-n sequences of scalars, ``kernels`` an
    (m, h) matrix and ``bias`` an (m,) vector; the output is the (B, m) batch
    of per-kernel pooled maxima. Ties at the max go to the first maximal
    position.

    Only candidate windows are scored. A window of zeros scores exactly 0
    before the bias, the same as every other window of zeros, so a row's
    candidate starts are those whose window holds a nonzero plus the first
    all-zero window, in ascending order: a hashed vector keeps a few dozen
    of its n-h+1 windows, a dense row keeps them all, and an all-zero row
    keeps one.

    Without a gradient the batch's windows are scored together, in tiles
    (_window_maxima), and the bias is added after pooling. With kernel size
    3, a row whose candidates would cost at least _HULL_PRODUCTS products
    first loses the windows no kernel can pick. Read as points p of R^3, a
    kernel w peaks at a vertex of the hull of the row's windows. The windows
    that maximize and minimize u . p over _HULL_DIRS span an inner hull: each
    triple of them is a plane with normal N, and a side of it is a facet when
    every extreme lies within tol = 1e-9 M |N|_1 + 1e-12 M^3 of it, M the
    row's largest |x|. A candidate inside every facet by 2 tol is dropped: a
    box of half-width about 1e-9 M around it lies in the hull, so w . p is
    below w . e for some extreme e by about 1e-9 M |w|_1, far above the
    rounding of a computed product, gamma_3 |w|_1 M (3.3e-16 |w|_1 M in any
    order, with or without FMA). So no computed peak moves. The M^3 term
    covers the rounding of the normals, about 1e-16 M^2 whatever a triangle's
    shape. A row is left whole when M is not finite or M^3 would leave the
    normal floats (the margins would be inf or NaN), or when its extremes
    span no volume: fewer than 4 distinct ones, or coplanar ones, which make
    a plane a facet on both sides, so no window is inside by a positive
    margin. When an input
    needs a gradient the node runs row by row, in blocks of _CONV_BLOCK
    kernels, and keeps each kernel's winning start, the first argmax, so
    backward only gathers the winning windows and runs no matrix product.
    That path folds the bias into the product: kernels [K | b], (m, h+1),
    against each row's windows closed by a row of ones, (h+1, candidates),
    so one product per block holds fl(w . x + b) and one argmax reads the
    peak there. The term b * 1 is exact, so this is fl(fl(w . x) + b),
    bit-equal to adding b after the product, as long as BLAS adds the last
    column's term last; the window-major tests catch a BLAS that does not.
    Rounding is monotone, so max_t fl(pre_t + b) == fl(max_t pre_t + b) and
    the two paths give the same bits, and ReLU commutes with max: pooling
    first gives max_t ReLU(pre_t + b) exactly. numpy's matrix-vector kernel
    sums in another order, and a stage with a one-row kernel block, or with
    n == h, makes such products on the row path; there both paths run the
    rows, adding b after the product. Backward uses the (m, h) kernels.
    """
    x, kernels, bias = _as_tensor(x), _as_tensor(kernels), _as_tensor(bias)
    rows, n = x.data.shape
    m, h = kernels.data.shape
    if n < h:
        raise ContractViolation(f"conv1d_maxpool: sequence length {n} < kernel size {h}")
    xd, K, b = x.data, kernels.data, bias.data
    offsets = np.arange(h)
    # (B, n-h+1): the windows holding a nonzero, plus each row's first window
    # of zeros (argmin finds it; a row with none marks a live start again)
    cand = np.lib.stride_tricks.sliding_window_view(xd != 0.0, h, axis=1).any(axis=2)
    cand[np.arange(rows), cand.argmin(axis=1)] = True
    keep = x.requires_grad or kernels.requires_grad or bias.requires_grad
    # the row path makes matrix-vector products when a kernel block has one
    # row or n == h; with n > h only an all-zero row has a single window, and
    # its sum is b in any order
    matvec = n == h or m % _CONV_BLOCK == 1
    if not (keep or matvec):
        if h == 3:
            hull = cand.sum(axis=1) * m >= _HULL_PRODUCTS
            if hull.any():
                cand[hull] &= ~_hull_interior(xd[hull])
        return Tensor(np.maximum(_window_maxima(xd, K, cand) + b, 0.0))
    blocks = [slice(lo, lo + _CONV_BLOCK) for lo in range(0, m, _CONV_BLOCK)]
    fold = keep and not matvec
    if fold:
        # [K | b] against windows closed by a row of ones: gathering x at
        # n + start, past the row's end, reads a one for every start
        Kp = np.concatenate((K, b[:, None]), axis=1)
        xp = np.concatenate((xd, np.ones((rows, n - h + 1))), axis=1)
        taps = np.append(offsets, n)
    else:
        Kp, xp, taps = K, xd, offsets
    peak = np.empty((rows, m))
    win = np.empty((rows, m), dtype=np.intp)
    lanes = np.arange(_CONV_BLOCK)
    for r in range(rows):
        starts = np.flatnonzero(cand[r])
        wt = xp[r, taps[:, None] + starts]  # (h, candidates), or (h+1, ...)
        for blk in blocks:
            pre = Kp[blk] @ wt
            if not fold:
                pre += b[blk, None]
            j = pre.argmax(axis=1)
            win[r, blk] = starts[j]
            peak[r, blk] = pre[lanes[: len(j)], j]
    out = np.maximum(peak, 0.0)

    def back(g):
        gate = out > 0.0
        gk = g * gate  # (B, m)
        # a dead kernel's ReLU row is all zeros: its first maximum is window 0
        idx = np.where(gate, win, 0)[:, :, None] + offsets  # (B, m, h)
        if kernels.requires_grad:
            gK = np.zeros_like(K)
            for r in range(rows):
                gK += gk[r, :, None] * xd[r, idx[r]]
            kernels._accumulate(gK)
        if bias.requires_grad:
            bias._accumulate(gk.sum(axis=0))
        if x.requires_grad:
            gx = np.zeros((rows, n))
            np.add.at(gx, (np.arange(rows)[:, None, None], idx), gk[:, :, None] * K)
            x._accumulate(gx)

    return Tensor(out, parents=(x, kernels, bias), backward_fn=back)


# -- losses --------------------------------------------------------------

_CE_CLAMP = 1e-12


def softmax_cross_entropy(logits, labels):
    """Fused softmax + cross-entropy of (B, C) logits against B labels: the
    mean of the row losses, summed left to right; row i's gradient is
    (p_i - onehot_i) / B."""
    logits = _as_tensor(logits)
    rows = np.arange(logits.data.shape[0])
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    losses = -np.log(np.maximum(p[rows, labels], _CE_CLAMP))
    scale = 1.0 / len(rows)

    def back(g):
        if logits.requires_grad:
            grad = p.copy()
            grad[rows, labels] -= 1.0
            logits._accumulate((g * scale) * grad)

    return Tensor(np.cumsum(losses)[-1] * scale, parents=(logits,), backward_fn=back)


# -- optimisation --------------------------------------------------------


class AdamState:
    """Per-parameter Adam moments, the shared step counter, and two scratch
    buffers kept across steps. The buffers are flat and grow to the largest
    parameter an update has seen, so a step after the first allocates
    nothing."""

    def __init__(self, lr=0.001, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step = 0
        self.m = {}
        self.v = {}
        self.scratch = (np.empty(0), np.empty(0))


def adam_step(params, state):
    """Bias-corrected Adam update over named parameters; zeroes grads after.
    The moments and ``p.data`` are updated in place."""
    state.step += 1
    t = state.step
    size = max((p.data.size for p in params.values()), default=0)
    if state.scratch[0].size < size:
        state.scratch = (np.empty(size), np.empty(size))
    for p in params.values():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.m.get(p.name)
        v = state.v.get(p.name)
        if m is None:
            m = state.m[p.name] = np.zeros_like(p.data)
            v = state.v[p.name] = np.zeros_like(p.data)
        # the same operations in the same order as m = beta1 * m + (1 -
        # beta1) * g, v = beta2 * v + (1 - beta2) * g**2 and p -= lr * m_hat
        # / (sqrt(v_hat) + eps), through the two scratch buffers
        tmp, step = (buf[: m.size].reshape(m.shape) for buf in state.scratch)
        np.multiply(g, 1.0 - state.beta1, out=tmp)
        m *= state.beta1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - state.beta2
        v *= state.beta2
        v += tmp
        np.divide(m, 1.0 - state.beta1**t, out=step)
        step *= state.lr
        np.divide(v, 1.0 - state.beta2**t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += state.epsilon
        step /= tmp
        p.data -= step
        p.grad = None


def train_epoch(order, batch_size, batch_loss, params, state):
    """One pass over the example indices ``order`` in mini-batches of
    ``batch_size``: ``batch_loss(batch)`` builds a batch's scalar mean loss,
    which is backpropagated before Adam updates ``params``. Returns the
    example-weighted mean loss."""
    total = 0.0
    for start in range(0, len(order), batch_size):
        batch = order[start : start + batch_size]
        loss = batch_loss(batch)
        loss.backward()
        adam_step(params, state)
        total += float(loss.data) * len(batch)
    return total / len(order)


def zero_grads(params):
    for p in params.values():
        p.grad = None


def glorot_uniform(rng, shape, fan_in, fan_out):
    """Seeded uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_params(rng, shapes):
    """name -> Parameter for each entry of ``shapes`` (name -> shape), in its
    order. A bias, a name whose last dotted part starts with "b", starts at
    zero; every other tensor is Glorot-uniform with fan-in its last axis and
    fan-out its first (1 for a vector), drawn from ``rng`` in that order."""
    params = {}
    for name, shape in shapes.items():
        if name.rpartition(".")[2].startswith("b"):
            data = np.zeros(shape)
        else:
            data = glorot_uniform(rng, shape, shape[-1], shape[0] if len(shape) > 1 else 1)
        params[name] = Parameter(name, data)
    return params
