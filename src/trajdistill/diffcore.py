"""Tape-based reverse-mode automatic differentiation over dense numpy buffers.

Design notes:
  * A ``Tensor`` wraps a numpy array. Ops executed while a ``Tape`` is active
    append result nodes to the tape; ``Tape.backward`` walks the node list in
    reverse insertion order exactly once, so gradients are deterministic.
  * ``no_tape()`` suspends recording inside an active tape: ops run in it
    return untracked results, as they do with no tape at all.
  * Elementwise binary ops require identical shapes or a python/0-d scalar on
    one side; there is no general broadcasting. Row broadcasting happens only
    inside fused ops: ``affine`` adds its (1, n) bias row to every row, and
    ``lstm`` broadcasts its (1, .) bias and initial-state rows; each sums the
    gradient of a broadcast row over the rows.
  * ``lstm`` runs a whole sequence as one node with a hand-written
    backpropagation-through-time backward, in place of ~12 elementwise and
    matmul nodes per timestep.
  * ``conv2d`` costs in proportion to where its input differs from a
    constant background row (zero, or the top-left row when that marks
    fewer windows) in the forward, and to where its output gradient is
    nonzero in the backward; on a sparse pillar grid, and when training
    decodes a few agents, both are a small share of the grid.
  * With no tape active, ``lstm`` keeps one step of its per-step records,
    since no backward will read them.
  * Every op checks its output for non-finite values and raises immediately,
    which keeps failures close to their cause during training. The check
    reads one sum of squares and scans elementwise only when that is not
    finite.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float64


class DiffError(ValueError):
    pass


class ShapeError(DiffError):
    pass


class NonFiniteError(DiffError):
    pass


_TAPE_STACK: list["Tape | None"] = []


def active_tape() -> "Tape | None":
    return _TAPE_STACK[-1] if _TAPE_STACK else None


@contextlib.contextmanager
def no_tape():
    """Run ops untracked, even inside an active ``Tape``."""
    _TAPE_STACK.append(None)
    try:
        yield
    finally:
        _TAPE_STACK.pop()


class Tape:
    """Append-only record of op nodes for one forward/backward pass."""

    def __init__(self):
        self.nodes: list[Tensor] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False

    def backward(self, root: "Tensor") -> None:
        """Accumulate d(root)/d(x) into ``.grad`` of every tensor reachable
        from the tape. Root must be scalar."""
        if root.data.size != 1:
            raise ShapeError(f"backward root must be scalar, got shape {root.data.shape}")
        for node in self.nodes:
            node.grad = None
            for p in node._parents:
                p.grad = None
        root.grad = np.ones_like(root.data)
        for node in reversed(self.nodes):
            if node.grad is None or node._backward is None:
                continue
            node._backward(node.grad)


class Tensor:
    """Dense numeric buffer, optionally a recorded node on the active tape."""

    __slots__ = ("data", "grad", "_parents", "_backward", "op")

    def __init__(self, data, dtype=None):
        self.data = np.asarray(data, dtype=dtype or DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward: Callable | None = None
        self.op: str = "leaf"

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(op={self.op}, shape={self.data.shape})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_const_like(other, self), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_const_like(other, self), self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __float__(self):
        return self.item()


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x, dtype=dtype)


def _const_like(x, ref: Tensor) -> Tensor:
    arr = np.asarray(x, dtype=ref.data.dtype)
    if arr.shape not in ((), ref.data.shape):
        arr = np.broadcast_to(arr, ref.data.shape).copy()
    return Tensor(arr)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _make(data: np.ndarray, parents: tuple, backward: Callable | None, op: str) -> Tensor:
    """Wrap a finite op result; append it to the active tape, if any."""
    # fast path: the sum of squares is non-finite when any element is, and
    # when finite squares overflow, which the exact check then clears; vdot,
    # unlike sum, skips numpy's floating-point error handling, so such an
    # overflow warns nothing
    if not math.isfinite(np.vdot(data, data)) and not np.all(np.isfinite(data)):
        raise NonFiniteError(f"op '{op}' produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.op = op
    tape = active_tape()
    if tape is not None:
        out._parents = parents
        out._backward = backward
        tape.nodes.append(out)
    else:
        out._parents = ()
        out._backward = None
    return out


def _binary_prep(a, b, op: str):
    a = as_tensor(a)
    b = as_tensor(b) if not isinstance(b, numbers.Number) else Tensor(np.asarray(b, dtype=a.data.dtype))
    if a.data.shape != b.data.shape and a.data.ndim != 0 and b.data.ndim != 0:
        raise ShapeError(f"op '{op}': shape mismatch {a.data.shape} vs {b.data.shape}")
    return a, b


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    # scalar operand of an elementwise op: sum the incoming gradient
    if shape == ():
        return np.asarray(g.sum())
    return g


def add(a, b) -> Tensor:
    a, b = _binary_prep(a, b, "add")
    data = a.data + b.data

    def backward(g):
        _accum(a, _reduce_to(g, a.data.shape))
        _accum(b, _reduce_to(g, b.data.shape))

    return _make(data, (a, b), backward, "add")


def sub(a, b) -> Tensor:
    a, b = _binary_prep(a, b, "sub")
    data = a.data - b.data

    def backward(g):
        _accum(a, _reduce_to(g, a.data.shape))
        _accum(b, _reduce_to(-g, b.data.shape))

    return _make(data, (a, b), backward, "sub")


def mul(a, b) -> Tensor:
    a, b = _binary_prep(a, b, "mul")
    data = a.data * b.data

    def backward(g):
        _accum(a, _reduce_to(g * b.data, a.data.shape))
        _accum(b, _reduce_to(g * a.data, b.data.shape))

    return _make(data, (a, b), backward, "mul")


def div(a, b) -> Tensor:
    a, b = _binary_prep(a, b, "div")
    data = a.data / b.data

    def backward(g):
        _accum(a, _reduce_to(g / b.data, a.data.shape))
        _accum(b, _reduce_to(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(data, (a, b), backward, "div")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"op 'matmul': incompatible shapes {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def backward(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _make(data, (a, b), backward, "matmul")


def affine(x, w, b) -> Tensor:
    """x @ w + b, the (1, n) row b added to every row, as one node."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if (
        x.data.ndim != 2
        or w.data.ndim != 2
        or x.data.shape[1] != w.data.shape[0]
        or b.data.shape != (1, w.data.shape[1])
    ):
        raise ShapeError(f"op 'affine': incompatible shapes {x.data.shape} @ {w.data.shape} + {b.data.shape}")
    data = x.data @ w.data + b.data

    def backward(g):
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)
        _accum(b, g.sum(axis=0, keepdims=True))

    return _make(data, (x, w, b), backward, "affine")


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(p, g[tuple(idx)])

    return _make(data, tuple(parts), backward, "concat")


def gather(t, indices, axis: int = 0) -> Tensor:
    """Select slices along ``axis`` by integer index array."""
    t = as_tensor(t)
    indices = np.asarray(indices, dtype=np.intp)
    data = np.take(t.data, indices, axis=axis)
    ax = axis % t.data.ndim

    def backward(g):
        full = np.zeros_like(t.data)
        moved = np.moveaxis(full, ax, 0)
        np.add.at(moved, indices.ravel(), np.moveaxis(g, ax, 0).reshape((indices.size,) + moved.shape[1:]))
        _accum(t, full)

    return _make(data, (t,), backward, "gather")


def slice_cols(t, lo: int, hi: int) -> Tensor:
    """Contiguous column slice of a 2-D tensor."""
    t = as_tensor(t)
    if t.data.ndim != 2:
        raise ShapeError(f"op 'slice_cols': expected 2-D, got {t.data.shape}")
    data = t.data[:, lo:hi].copy()

    def backward(g):
        full = np.zeros_like(t.data)
        full[:, lo:hi] = g
        _accum(t, full)

    return _make(data, (t,), backward, "slice_cols")


def select(t, index: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """A copy of ``index(t.data)``. ``index`` must return a view of its
    argument, made by reshapes and basic slicing, so that each element is
    selected once; the backward writes the gradient through the same view
    of a zero array."""
    t = as_tensor(t)
    view = index(t.data)
    if not np.may_share_memory(view, t.data):
        raise DiffError("op 'select': index returned a copy, not a view")

    def backward(g):
        full = np.zeros_like(t.data)
        index(full)[...] = g
        _accum(t, full)

    return _make(view.copy(), (t,), backward, "select")


def rotate(t, c, s, offset) -> Tensor:
    """Row vectors (..., 2) of ``t`` rotated by the angle with cosine ``c``
    and sine ``s``, plus ``offset``: (x c - y s, x s + y c) + offset. ``c``
    and ``s`` broadcast against t's leading axes and ``offset`` against t;
    all three are constants."""
    t = as_tensor(t)
    c, s = np.asarray(c), np.asarray(s)
    x, y = t.data[..., 0], t.data[..., 1]
    data = np.empty(t.data.shape)
    data[..., 0] = x * c - y * s
    data[..., 1] = x * s + y * c
    data += offset

    def backward(g):
        gt = np.empty(g.shape)
        gt[..., 0] = g[..., 0] * c + g[..., 1] * s
        gt[..., 1] = g[..., 1] * c - g[..., 0] * s
        _accum(t, gt)

    return _make(data, (t,), backward, "rotate")


def reshape(t, shape) -> Tensor:
    t = as_tensor(t)
    data = t.data.reshape(shape)

    def backward(g):
        _accum(t, g.reshape(t.data.shape))

    return _make(data, (t,), backward, "reshape")


def _unary(t, fn, dfn, op):
    t = as_tensor(t)
    data = fn(t.data)

    def backward(g):
        _accum(t, g * dfn(t.data, data))

    return _make(data, (t,), backward, op)


def relu(t) -> Tensor:
    return _unary(t, lambda x: np.maximum(x, 0.0), lambda x, y: (x > 0.0).astype(x.dtype), "relu")


def tanh(t) -> Tensor:
    return _unary(t, np.tanh, lambda x, y: 1.0 - y * y, "tanh")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below: exp of a
    # non-positive argument only, so no overflow for any finite x
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(t) -> Tensor:
    return _unary(t, _sigmoid, lambda x, y: y * (1.0 - y), "sigmoid")


def exp(t) -> Tensor:
    return _unary(t, np.exp, lambda x, y: y, "exp")


def log(t) -> Tensor:
    return _unary(t, np.log, lambda x, y: 1.0 / x, "log")


def square(t) -> Tensor:
    return _unary(t, np.square, lambda x, y: 2.0 * x, "square")


def sqrt(t) -> Tensor:
    return _unary(t, np.sqrt, lambda x, y: 0.5 / y, "sqrt")


def clamp(t, lo: float, hi: float) -> Tensor:
    # gradient 1 inside the bounds, 0 outside
    return _unary(
        t,
        lambda x: np.clip(x, lo, hi),
        lambda x, y: ((x >= lo) & (x <= hi)).astype(x.dtype),
        "clamp",
    )


def reduce_sum(t, axis=None, keepdims: bool = False) -> Tensor:
    t = as_tensor(t)
    data = np.asarray(t.data.sum(axis=axis, keepdims=keepdims))

    def backward(g):
        if axis is None:
            _accum(t, np.broadcast_to(g, t.data.shape).copy() if np.ndim(g) == 0 else np.full_like(t.data, g))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accum(t, np.broadcast_to(gg, t.data.shape).copy())

    return _make(data, (t,), backward, "reduce_sum")


def reduce_max_over_set(t, axis: int = 0) -> Tensor:
    """Max along ``axis``; backward routes gradient only to the first
    (lowest-index) argmax element of each reduced group."""
    t = as_tensor(t)
    amax = np.argmax(t.data, axis=axis)
    data = np.take_along_axis(t.data, np.expand_dims(amax, axis), axis=axis).squeeze(axis)

    def backward(g):
        full = np.zeros_like(t.data)
        np.put_along_axis(full, np.expand_dims(amax, axis), np.expand_dims(g, axis), axis=axis)
        _accum(t, full)

    return _make(data, (t,), backward, "reduce_max_over_set")


def logsumexp(t, axis: int = -1, keepdims: bool = False) -> Tensor:
    t = as_tensor(t)
    m = t.data.max(axis=axis, keepdims=True)
    ex = np.exp(t.data - m)
    s = ex.sum(axis=axis, keepdims=True)
    out = m + np.log(s)
    soft = ex / s
    data = out if keepdims else np.squeeze(out, axis=axis)

    def backward(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        _accum(t, gg * soft)

    return _make(data, (t,), backward, "logsumexp")


def softmax(t, axis: int = -1) -> Tensor:
    t = as_tensor(t)
    m = t.data.max(axis=axis, keepdims=True)
    ex = np.exp(t.data - m)
    data = ex / ex.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        _accum(t, data * (g - dot))

    return _make(data, (t,), backward, "softmax")


def scatter_max_pool(points, cell_ids: np.ndarray, num_cells: int) -> Tensor:
    """Per-cell columnwise max of point rows; empty cells are zero.

    ``points`` is (N, E); ``cell_ids`` an intp array of length N. The gradient
    of a cell's column goes to the first row attaining its max, the lowest
    original row index (the stable sort keeps insertion order within a cell);
    that routing is found in the backward only, so inference does not pay it.
    """
    points = as_tensor(points)
    n, e = points.data.shape
    cell_ids = np.asarray(cell_ids, dtype=np.intp)
    order = np.argsort(cell_ids, kind="stable")
    sorted_ids = cell_ids[order]
    sorted_pts = points.data[order]
    data = np.zeros((num_cells, e), dtype=points.data.dtype)
    if n:
        starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_ids)) + 1))
        seg_cells = sorted_ids[starts]
        maxv = np.maximum.reduceat(sorted_pts, starts, axis=0)
        data[seg_cells] = maxv

    def backward(g):
        full = np.zeros_like(points.data)
        if n:
            # first sorted position of each segment attaining the columnwise max
            seg_of_row = np.repeat(np.arange(starts.size), np.diff(starts, append=n))
            cand = np.where(sorted_pts == maxv[seg_of_row], np.arange(n)[:, None], n)
            first = np.minimum.reduceat(cand, starts, axis=0)
            # a row lies in one cell, so the (row, column) targets are distinct
            full[order[first], np.arange(e)] = g[seg_cells]
        _accum(points, full)

    return _make(data, (points,), backward, "scatter_max_pool")


def _im2col(padded: np.ndarray, starts: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Windows of a padded (H', W', C) image as rows (len(starts), k*C): row r
    holds the pixels at flat positions ``starts[r] + offsets``, channels last."""
    c = padded.shape[-1]
    return np.take(padded.reshape(-1, c), starts[:, None] + offsets, axis=0).reshape(len(starts), offsets.size * c)


def _window_any(mask: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """OR over every kh x kw window of a padded 2-D mask: (H, W) from
    (H + kh - 1, W + kw - 1)."""
    h, wd = mask.shape[0] - kh + 1, mask.shape[1] - kw + 1
    out = np.zeros((h, wd), dtype=bool)
    for i in range(kh):
        for j in range(kw):
            out |= mask[i : i + h, j : j + wd]
    return out


def conv2d(x, w, b) -> Tensor:
    """2-D convolution, stride 1, same (zero) padding, odd kernel sizes.

    x: (H, W, Cin); w: (kh, kw, Cin, Cout); b: (Cout,).

    The forward costs in proportion to the active output rows, those whose
    window touches an input row that differs from a constant background row
    (NaN differs from everything): one matmul over their im2col rows. Every
    other row is the background window's value, computed once. The
    background is the zero row, or the top-left input row when that is
    nonzero and marks fewer active rows; under a nonzero background a window
    over the zero padding is active too. The weight gradient covers the
    active rows whose output gradient is nonzero (NaN counts) and one outer
    product for the background rows; the input gradient is computed only
    within kernel reach of a nonzero output-gradient row and is exactly zero
    elsewhere.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    h, wd, cin = x.data.shape
    kh, kw, cin2, cout = w.data.shape
    if cin != cin2:
        raise ShapeError(f"op 'conv2d': channels {cin} vs weight {cin2}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"op 'conv2d': kernel {kh}x{kw} is not odd")
    ph, pw = kh // 2, kw // 2
    pad = ((ph, ph), (pw, pw), (0, 0))
    xp = np.pad(x.data, pad)
    # top-left flat position in the padded image of every output's window,
    # and the offsets of the window's pixels from it, kernel row-major
    starts = (np.arange(h)[:, None] * (wd + 2 * pw) + np.arange(wd)).ravel()
    offsets = (np.arange(kh)[:, None] * (wd + 2 * pw) + np.arange(kw)).ravel()
    active = _window_any(xp.any(axis=2), kh, kw)
    bgcol = np.zeros(kh * kw * cin)
    top_left = x.data[0, 0]
    if top_left.any():
        # the zero padding differs from a nonzero background; a NaN row
        # differs from every row, itself included, so a NaN top-left row
        # marks every window and the zero background wins the tie
        candidate = _window_any((xp != top_left).any(axis=2), kh, kw)
        if np.count_nonzero(candidate) < np.count_nonzero(active):
            active, bgcol = candidate, np.tile(top_left, kh * kw)
    active = active.ravel()
    rows = np.flatnonzero(active)
    cols = _im2col(xp, starts[rows], offsets)
    wmat = w.data.reshape(kh * kw * cin, cout)
    data = np.empty((h * wd, cout))
    # the background window: b under the zero background, or non-finite as
    # the dense product when w is
    data[:] = bgcol[None] @ wmat + b.data
    data[rows] = cols @ wmat + b.data

    def backward(g):
        g2 = g.reshape(h * wd, cout)
        gp = np.pad(g, pad)
        live_p = gp.any(axis=2)
        live = live_p[ph : ph + h, pw : pw + wd].ravel()
        hit = np.flatnonzero(live[rows])
        # every background row's window is bgcol; the outer product is zero
        # under the zero background unless a NaN gradient must reach w
        gw = cols[hit].T @ g2[rows[hit]] + np.outer(bgcol, g2[live & ~active].sum(axis=0))
        _accum(w, gw.reshape(w.data.shape))
        _accum(b, g2.sum(axis=0))
        # input rows within kernel reach of a nonzero output-gradient row
        reach = np.flatnonzero(_window_any(live_p, kh, kw))
        wflip = w.data[::-1, ::-1].transpose(0, 1, 3, 2).reshape(kh * kw * cout, cin)
        gx = np.zeros((h * wd, cin))
        gx[reach] = _im2col(gp, starts[reach], offsets) @ wflip
        _accum(x, gx.reshape(h, wd, cin))

    return _make(data.reshape(h, wd, cout), (x, w, b), backward, "conv2d")


def lstm(xs, wx, wh, b, h0, c0) -> Tensor:
    """Last hidden state (B, H) of an LSTM run over the sequence ``xs``.

    xs: constant (B, L, F); wx: (F, 4H); wh: (H, 4H); b: (1, 4H); h0, c0:
    (1, H), shared by every row. Gates run input, forget, cell, output:
    z = x_t wx + h wh + b, c = f c + i g, h = o tanh(c). The sequence is one
    node; its backward runs backpropagation through time and sums the
    gradients of the shared rows. Non-finite pre-activations or cell states
    raise like a non-finite output, since saturated gates can hide them.
    """
    wx, wh, b, h0, c0 = (as_tensor(p) for p in (wx, wh, b, h0, c0))
    xs = np.asarray(xs, dtype=wx.data.dtype)
    hd = wh.data.shape[0]
    if (
        xs.ndim != 3
        or wx.data.shape != (xs.shape[2], 4 * hd)
        or wh.data.shape != (hd, 4 * hd)
        or b.data.shape != (1, 4 * hd)
        or h0.data.shape != (1, hd)
        or c0.data.shape != (1, hd)
    ):
        raise ShapeError(
            f"op 'lstm': incompatible shapes xs {xs.shape}, wx {wx.data.shape}, wh {wh.data.shape}, "
            f"b {b.data.shape}, h0 {h0.data.shape}, c0 {c0.data.shape}"
        )
    nb, steps, nf = xs.shape
    xs_t = np.swapaxes(xs, 0, 1).reshape(steps * nb, nf)
    # time-major records: pre-activations, activated gates (i, f, g, o), the
    # hidden and cell state entering each step, and tanh of each new cell
    # state; with no tape nothing reads them after their step, so one slot,
    # overwritten in place, holds them (the pre-activations stay whole)
    taped = active_tape() is not None
    zs = (xs_t @ wx.data).reshape(steps, nb, 4 * hd)
    gates = np.empty((steps if taped else 1, nb, 4 * hd))
    hs = np.empty((steps + 1 if taped else 1, nb, hd))
    cs = np.empty_like(hs)
    tanh_c = np.empty((len(gates), nb, hd))
    hs[0], cs[0] = h0.data, c0.data
    for t in range(steps):
        cur, nxt = (t, t + 1) if taped else (0, 0)
        z, a = zs[t], gates[cur]
        z += hs[cur] @ wh.data
        z += b.data
        a[:] = _sigmoid(z)
        np.tanh(z[:, 2 * hd : 3 * hd], out=a[:, 2 * hd : 3 * hd])
        np.multiply(a[:, hd : 2 * hd], cs[cur], out=cs[nxt])
        cs[nxt] += a[:, :hd] * a[:, 2 * hd : 3 * hd]
        np.tanh(cs[nxt], out=tanh_c[cur])
        np.multiply(a[:, 3 * hd :], tanh_c[cur], out=hs[nxt])
    if not (np.all(np.isfinite(zs)) and np.all(np.isfinite(cs[-1]))):
        raise NonFiniteError("op 'lstm' produced non-finite values")

    def backward(g):
        dz = np.empty((steps, nb, 4 * hd))
        dh, dc = g, np.zeros((nb, hd))
        for t in reversed(range(steps)):
            a, d = gates[t], dz[t]
            i, f, cell, o = a[:, :hd], a[:, hd : 2 * hd], a[:, 2 * hd : 3 * hd], a[:, 3 * hd :]
            dc = dc + dh * o * (1.0 - tanh_c[t] * tanh_c[t])
            d[:, :hd] = dc * cell * i * (1.0 - i)
            d[:, hd : 2 * hd] = dc * cs[t] * f * (1.0 - f)
            d[:, 2 * hd : 3 * hd] = dc * i * (1.0 - cell * cell)
            d[:, 3 * hd :] = dh * tanh_c[t] * o * (1.0 - o)
            dc = dc * f
            dh = d @ wh.data.T
        flat = dz.reshape(steps * nb, 4 * hd)
        _accum(wx, xs_t.T @ flat)
        _accum(wh, hs[:-1].reshape(steps * nb, hd).T @ flat)
        _accum(b, flat.sum(axis=0, keepdims=True))
        _accum(h0, dh.sum(axis=0, keepdims=True))
        _accum(c0, dc.sum(axis=0, keepdims=True))

    return _make(hs[-1], (wx, wh, b, h0, c0), backward, "lstm")


def grad_check(f: Callable[[Tensor], Tensor], x: np.ndarray, h: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per coordinate is |a - n| / max(1e-8, |a| + |n|).
    """
    x = np.asarray(x, dtype=np.float64)
    leaf = Tensor(x.copy())
    with Tape() as tape:
        out = f(leaf)
        tape.backward(out)
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(x)

    numeric = np.zeros_like(x)
    flat = x.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(Tensor(x.copy())).data)
        flat[i] = orig - h
        fm = float(f(Tensor(x.copy())).data)
        flat[i] = orig
        nflat[i] = (fp - fm) / (2.0 * h)

    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0
