import math
import warnings
import zlib

import numpy as np
import pytest

from trajdistill import diffcore as dc
from trajdistill.diffcore import Tape, Tensor, grad_check


def test_softmax_uniform():
    out = dc.softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3])


def test_logsumexp_stability():
    out = dc.logsumexp(Tensor([1000.0, 1000.0]))
    assert np.isclose(float(out.data), 1000.0 + math.log(2.0))


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    out = dc.matmul(Tensor(a), Tensor(b)).data
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    assert np.max(np.abs(out - expected)) < 1e-6


def test_backward_square():
    x = Tensor(3.0)
    with Tape() as tape:
        y = dc.square(x)
        tape.backward(y)
    assert np.isclose(x.grad, 6.0)


def test_backward_sum_of_softmax_is_zero():
    x = Tensor([0.3, -1.2, 2.0])
    with Tape() as tape:
        y = dc.reduce_sum(dc.softmax(x))
        tape.backward(y)
    assert np.max(np.abs(x.grad)) < 1e-12


def test_backward_requires_scalar_root():
    x = Tensor([1.0, 2.0])
    with Tape() as tape:
        y = dc.square(x)
        with pytest.raises(dc.ShapeError):
            tape.backward(y)


def test_mlp_gradcheck_vs_finite_differences():
    rng = np.random.default_rng(0)
    w1 = rng.standard_normal((5, 8)) * 0.5
    w2 = rng.standard_normal((8, 1)) * 0.5

    def f(x):
        h = dc.tanh(dc.matmul(dc.reshape(x, (1, 5)), Tensor(w1)))
        return dc.reshape(dc.matmul(h, Tensor(w2)), ())

    err = grad_check(f, rng.standard_normal(5))
    assert err <= 1e-4


def test_gradcheck_linear_is_exact():
    err = grad_check(lambda x: dc.reduce_sum(x), np.array([1.0, -2.0, 3.0]))
    assert err <= 1e-10


def test_shape_mismatch_error_names_op():
    with pytest.raises(dc.ShapeError, match="add"):
        dc.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))
    with pytest.raises(dc.ShapeError, match="matmul"):
        dc.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    hd = 3  # xs has 4 features where wx expects 5
    with pytest.raises(dc.ShapeError, match="lstm"):
        dc.lstm(np.ones((2, 3, 4)), np.ones((5, 4 * hd)), np.ones((hd, 4 * hd)), np.ones((1, 4 * hd)),
                np.ones((1, hd)), np.ones((1, hd)))


def test_non_finite_output_raises():
    with pytest.raises(dc.NonFiniteError):
        dc.log(Tensor([0.0]))


@pytest.mark.parametrize(
    "values", [[1.0, np.nan], [np.inf, 2.0], [-np.inf, 2.0], [np.inf, -np.inf]], ids=["nan", "inf", "-inf", "inf,-inf"]
)
def test_non_finite_value_raises_with_op_name(values):
    with pytest.raises(dc.NonFiniteError, match="'reshape'"):
        dc.reshape(Tensor(values), (2, 1))


def test_finite_values_whose_sum_overflows_pass_quietly():
    # the fast check overflows to inf here; the exact check clears the values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = dc.reshape(Tensor([1e308, 1e308, -1e308]), (3, 1))
    assert np.array_equal(out.data[:, 0], [1e308, 1e308, -1e308])


def test_affine_matches_matmul_plus_ones_row():
    """The fused affine op against the ones-matmul composition it replaces:
    bit-identical forward, gradients within 1e-12 relative."""
    rng = np.random.default_rng(8)
    arrays = {"x": rng.standard_normal((7, 5)), "w": rng.standard_normal((5, 3)), "b": rng.standard_normal((1, 3))}
    w_out = rng.standard_normal((7, 3))
    results = []
    for fused in (True, False):
        t = {n: Tensor(a.copy()) for n, a in arrays.items()}
        with Tape() as tape:
            if fused:
                y = dc.affine(t["x"], t["w"], t["b"])
            else:
                y = dc.matmul(t["x"], t["w"]) + dc.matmul(Tensor(np.ones((7, 1))), t["b"])
            tape.backward(dc.reduce_sum(y * Tensor(w_out)))
        results.append((y.data, {n: t[n].grad for n in t}))
    (y_fused, g_fused), (y_ref, g_ref) = results
    assert np.array_equal(y_fused, y_ref)
    for n in arrays:
        assert np.max(np.abs(g_fused[n] - g_ref[n])) <= 1e-12 * np.max(np.abs(g_ref[n])), n
    with pytest.raises(dc.ShapeError, match="affine"):
        dc.affine(Tensor(arrays["x"]), Tensor(arrays["w"]), Tensor(np.ones(3)))


def test_max_tie_break_lowest_index():
    x = Tensor([[2.0, 1.0], [2.0, 5.0]])
    with Tape() as tape:
        y = dc.reduce_sum(dc.reduce_max_over_set(x, axis=0))
        tape.backward(y)
    assert np.allclose(x.grad, [[1.0, 0.0], [0.0, 1.0]])


def _scatter_max_pool_loop(points, cells, num_cells, g):
    """Per-cell oracle: each cell's columnwise max, and the gradient ``g`` of
    a cell's column routed to the lowest row attaining that max."""
    n, e = points.shape
    out = np.zeros((num_cells, e))
    grad = np.zeros((n, e))
    for c in range(num_cells):
        rows = [i for i in range(n) if cells[i] == c]
        for j in range(e):
            if not rows:
                continue
            best = rows[0]
            for i in rows[1:]:
                if points[i, j] > points[best, j]:
                    best = i
            out[c, j] = points[best, j]
            grad[best, j] = g[c, j]
    return out, grad


@pytest.mark.parametrize("seed", range(4))
def test_scatter_max_pool_matches_per_cell_loop(seed):
    """Tied maxima, cell ids in shuffled order and empty cells (0, 3, 6, 9,
    11): forward and gradient equal the loop exactly."""
    rng = np.random.default_rng(seed)
    n, e, num_cells = 40, 5, 12
    points = rng.integers(-2, 2, (n, e)).astype(float)  # 4 values: many ties
    cells = rng.choice([1, 2, 4, 5, 7, 8, 10], n)
    g = rng.standard_normal((num_cells, e))
    want_out, want_grad = _scatter_max_pool_loop(points, cells, num_cells, g)
    ties = [
        np.sum(points[cells == c, j] == want_out[c, j]) > 1 for c in np.unique(cells) for j in range(e)
    ]
    assert sum(ties) >= 5
    x = Tensor(points)
    with Tape() as tape:
        pooled = dc.scatter_max_pool(x, cells, num_cells)
        tape.backward(dc.reduce_sum(dc.mul(pooled, Tensor(g))))
    assert np.array_equal(pooled.data, want_out)
    assert np.array_equal(x.grad, want_grad)
    assert np.array_equal(dc.scatter_max_pool(points, cells, num_cells).data, want_out)
    assert np.array_equal(want_out[[0, 3, 6, 9, 11]], np.zeros((5, e)))


def test_scatter_max_pool_no_points():
    x = Tensor(np.zeros((0, 3)))
    with Tape() as tape:
        pooled = dc.scatter_max_pool(x, np.zeros(0, dtype=np.intp), 4)
        tape.backward(dc.reduce_sum(dc.square(pooled)))
    assert np.array_equal(pooled.data, np.zeros((4, 3)))
    assert x.grad.shape == (0, 3)


def test_backward_deterministic():
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal(6)
    grads = []
    for _ in range(2):
        x = Tensor(x0.copy())
        with Tape() as tape:
            y = dc.reduce_sum(dc.square(dc.tanh(x)))
            tape.backward(y)
        grads.append(x.grad.copy())
    assert np.array_equal(grads[0], grads[1])


_ELEMENTWISE = {
    "relu": dc.relu,
    "tanh": dc.tanh,
    "sigmoid": dc.sigmoid,
    "exp": dc.exp,
    "square": dc.square,
    "softmax": dc.softmax,
    "logsumexp": dc.logsumexp,
}


@pytest.mark.parametrize("name", sorted(_ELEMENTWISE))
def test_unary_op_gradcheck_100_instances(name):
    op = _ELEMENTWISE[name]
    # str hash() is salted per process; crc32 gives every run the same draws
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(100):
        x0 = rng.uniform(-2, 2, size=rng.integers(2, 8))
        if name in ("relu", "square"):
            # away from the relu kink / the near-zero gradient of x^4
            x0 = x0 + np.sign(x0) * 0.1

        def f(x):
            return dc.reduce_sum(dc.square(op(x)))

        assert grad_check(f, x0) <= 1e-4


@pytest.mark.parametrize("name", ["add", "sub", "mul", "div", "matmul"])
def test_binary_op_gradcheck_100_instances(name):
    op = getattr(dc, name)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(100):
        if name == "matmul":
            a0 = rng.standard_normal((3, 4))
            b0 = rng.standard_normal((4, 2))
        else:
            a0 = rng.standard_normal(5)
            b0 = rng.standard_normal(5)
        if name == "div":
            # both away from 0: a numerator near 0 puts the divisor's
            # gradient at the noise floor of the relative error
            a0 = np.sign(a0) * (np.abs(a0) + 0.5)
            b0 = np.sign(b0) * (np.abs(b0) + 0.5)

        def fa(x):
            return dc.reduce_sum(dc.square(op(x, Tensor(b0))))

        def fb(x):
            return dc.reduce_sum(dc.square(op(Tensor(a0), x)))

        assert grad_check(fa, a0) <= 1e-4
        assert grad_check(fb, b0) <= 1e-4


def _separated(rng, rows, cols):
    """Columns of values at least 0.1 apart, each in random order, so that
    no group maximum changes under the grad-check step h = 1e-4."""
    steps = np.cumsum(rng.uniform(0.1, 1.0, (rows, cols)), axis=0)
    return rng.permuted(steps - steps.mean(axis=0), axis=0)


@pytest.mark.parametrize(
    "name",
    ["concat", "gather", "reduce_sum", "reduce_max_over_set", "log", "sqrt", "conv2d", "conv2d_sparse",
     "conv2d_background", "scatter_max_pool", "slice_cols", "affine", "select", "rotate"],
)
def test_structural_op_gradcheck_100_instances(name):
    # str hash() is salted per process; crc32 gives every run the same draws
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(100):
        if name == "log":
            x0 = rng.uniform(0.2, 3.0, 6)

            # the shift keeps the gradient 2 (log x + 2) / x away from 0
            def f(x):
                return dc.reduce_sum(dc.square(dc.log(x) + 2.0))

        elif name == "sqrt":
            x0 = rng.uniform(0.2, 3.0, 6)

            def f(x):
                return dc.reduce_sum(dc.square(dc.sqrt(x)))

        elif name == "concat":
            x0 = rng.standard_normal(4)

            def f(x):
                return dc.reduce_sum(dc.square(dc.concat([x, dc.tanh(x)], axis=0)))

        elif name == "gather":
            x0 = rng.standard_normal((5, 3))
            idx = rng.integers(0, 5, size=4)

            def f(x):
                return dc.reduce_sum(dc.square(dc.gather(x, idx, axis=0)))

        elif name == "slice_cols":
            x0 = rng.standard_normal((4, 5))

            def f(x):
                return dc.reduce_sum(dc.square(dc.slice_cols(x, 1, 4)))

        elif name == "reduce_sum":
            x0 = rng.standard_normal((3, 4))

            def f(x):
                return dc.reduce_sum(dc.square(dc.reduce_sum(x, axis=1)))

        elif name == "reduce_max_over_set":
            x0 = _separated(rng, 5, 3)

            def f(x):
                return dc.reduce_sum(dc.square(dc.reduce_max_over_set(x, axis=0)))

        elif name == "conv2d":
            x0 = rng.standard_normal((4, 4, 2))
            w = rng.standard_normal((3, 3, 2, 2)) * 0.3
            b = rng.standard_normal(2) * 0.1

            def f(x):
                return dc.reduce_sum(dc.square(dc.conv2d(x, Tensor(w), Tensor(b))))

        elif name == "conv2d_sparse":
            # at least half the pixel rows zero: the gradient at zero rows,
            # which feed no active window of the forward, is checked too
            x0 = rng.standard_normal((5, 4, 2))
            zero = rng.permutation(20)[:12]
            x0[zero // 4, zero % 4] = 0.0
            w = rng.standard_normal((3, 3, 2, 2)) * 0.3
            b = rng.standard_normal(2) * 0.1

            def f(x):
                return dc.reduce_sum(dc.square(dc.conv2d(x, Tensor(w), Tensor(b))))

        elif name == "conv2d_background":
            # one nonzero row everywhere but in two cells, which leaves at
            # least 2 of the 20 inner windows on it: the forward takes the
            # top-left row as its background
            x0 = np.broadcast_to(rng.standard_normal(2), (7, 6, 2)).copy()
            distinct = 1 + rng.permutation(41)[:2]
            x0[distinct // 6, distinct % 6] = rng.standard_normal((2, 2))
            w = rng.standard_normal((3, 3, 2, 2)) * 0.3
            b = rng.standard_normal(2) * 0.1

            def f(x):
                return dc.reduce_sum(dc.square(dc.conv2d(x, Tensor(w), Tensor(b))))

        elif name == "select":
            x0 = rng.standard_normal((4, 7))

            def f(x):
                return dc.reduce_sum(dc.square(dc.select(x, lambda a: a[:, 1:7].reshape(4, 3, 2)[..., 1:])))

        elif name == "rotate":
            x0 = rng.standard_normal((3, 4, 2))
            angle = rng.uniform(-np.pi, np.pi, (3, 1))
            offset = rng.standard_normal((3, 4, 2))

            def f(x):
                return dc.reduce_sum(dc.square(dc.rotate(x, np.cos(angle), np.sin(angle), offset)))

        elif name == "affine":
            # x (4, 3), w (3, 2) and b (1, 2) packed in one row, so that one
            # grad-check covers all three gradients
            x0 = rng.standard_normal((1, 20))

            def f(v):
                x = dc.reshape(dc.slice_cols(v, 0, 12), (4, 3))
                w = dc.reshape(dc.slice_cols(v, 12, 18), (3, 2))
                return dc.reduce_sum(dc.square(dc.affine(x, w, dc.slice_cols(v, 18, 20))))

        elif name == "scatter_max_pool":
            x0 = _separated(rng, 8, 3)
            cells = rng.integers(0, 5, size=8)

            def f(x):
                return dc.reduce_sum(dc.square(dc.scatter_max_pool(x, cells, 5)))

        assert grad_check(f, x0) <= 1e-4


def test_no_tape_suspends_recording():
    x = Tensor([0.5, -1.0])
    with Tape() as tape:
        a = dc.square(x)
        with dc.no_tape():
            assert dc.active_tape() is None
            b = dc.square(x)
        c = dc.square(x)
    assert [id(n) for n in tape.nodes] == [id(a), id(c)]
    assert b._parents == () and b._backward is None


# ---------------------------------------------------------------------------
# fused LSTM against the unfused composition it replaces


def _lstm_unfused(xs, wx, wh, b, h0, c0):
    """The per-timestep composition of ~12 nodes a step that ``dc.lstm`` fuses;
    ones-matmuls broadcast the shared rows."""
    hd = wh.data.shape[0]
    ones = Tensor(np.ones((xs.shape[0], 1)))
    h, c, bias = dc.matmul(ones, h0), dc.matmul(ones, c0), dc.matmul(ones, b)
    for t in range(xs.shape[1]):
        z = dc.matmul(xs[:, t, :], wx) + dc.matmul(h, wh) + bias
        i = dc.sigmoid(dc.slice_cols(z, 0, hd))
        f = dc.sigmoid(dc.slice_cols(z, hd, 2 * hd))
        g = dc.tanh(dc.slice_cols(z, 2 * hd, 3 * hd))
        o = dc.sigmoid(dc.slice_cols(z, 3 * hd, 4 * hd))
        c = f * c + i * g
        h = o * dc.tanh(c)
    return h


LSTM_ARGS = ("wx", "wh", "b", "h0", "c0")


def _lstm_params(rng, nf, hd):
    shapes = ((nf, 4 * hd), (hd, 4 * hd), (1, 4 * hd), (1, hd), (1, hd))
    return {name: rng.uniform(-0.8, 0.8, shape) for name, shape in zip(LSTM_ARGS, shapes)}


@pytest.mark.parametrize("case", ["batch_1", "length_1", "random"])
def test_lstm_matches_unfused_composition(case):
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    nb, steps = {"batch_1": (1, 10), "length_1": (6, 1)}.get(
        case, (int(rng.integers(2, 20)), int(rng.integers(2, 12)))
    )
    nf, hd = 7, 16
    xs = rng.uniform(-2.0, 2.0, (nb, steps, nf))
    arrays = _lstm_params(rng, nf, hd)
    w_out = rng.standard_normal((nb, hd))
    results = []
    for fn in (dc.lstm, _lstm_unfused):
        params = {name: Tensor(a.copy()) for name, a in arrays.items()}
        with Tape() as tape:
            h = fn(xs, *(params[n] for n in LSTM_ARGS))
            tape.backward(dc.reduce_sum(h * Tensor(w_out)))
        results.append((h.data, {n: params[n].grad for n in LSTM_ARGS}, len(tape.nodes)))
    (h_fused, g_fused, nodes), (h_ref, g_ref, _) = results
    assert h_fused.shape == (nb, hd)
    assert np.max(np.abs(h_fused - h_ref)) <= 1e-12
    for name in LSTM_ARGS:
        scale = np.max(np.abs(g_ref[name]))
        assert np.max(np.abs(g_fused[name] - g_ref[name])) <= 1e-9 * scale, name
    assert nodes == 3  # lstm, the output weighting and its sum
    # with no tape the step records share one slot; the output is the same
    untaped = dc.lstm(xs, *(Tensor(arrays[n]) for n in LSTM_ARGS))
    assert np.array_equal(untaped.data, h_fused)


def test_lstm_length_0_returns_initial_state():
    rng = np.random.default_rng(3)
    params = {n: Tensor(a) for n, a in _lstm_params(rng, 4, 3).items()}
    with Tape() as tape:
        h = dc.lstm(np.zeros((2, 0, 4)), *(params[n] for n in LSTM_ARGS))
        tape.backward(dc.reduce_sum(h))
    assert np.array_equal(h.data, np.repeat(params["h0"].data, 2, axis=0))
    assert np.array_equal(params["h0"].grad, np.full((1, 3), 2.0))
    assert not params["wx"].grad.any() and not params["c0"].grad.any()


@pytest.mark.parametrize("where, bad", [("xs", np.nan), ("xs", np.inf), ("c0", np.inf)])
def test_lstm_non_finite_input_raises(where, bad):
    # +inf saturates the gates and tanh, so the output alone would look finite
    rng = np.random.default_rng(4)
    params = {n: Tensor(a) for n, a in _lstm_params(rng, 4, 3).items()}
    xs = rng.standard_normal((2, 5, 4))
    if where == "xs":
        xs[0, 1, 0] = bad
    else:
        params[where].data[0, 1] = bad
    with pytest.raises(dc.NonFiniteError, match="lstm"):
        dc.lstm(xs, *(params[n] for n in LSTM_ARGS))


# ---------------------------------------------------------------------------
# conv2d against the dense im2col convolution it replaces


def _conv2d_im2col(x, w, b):
    """Dense im2col convolution with a kh x kw col2im loop in the backward:
    every output row computed, zero windows included."""
    x, w, b = dc.as_tensor(x), dc.as_tensor(w), dc.as_tensor(b)
    h, wd, cin = x.data.shape
    kh, kw, _, cout = w.data.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x.data, ((ph, ph), (pw, pw), (0, 0)))
    patches = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(0, 1))
    cols = patches.transpose(0, 1, 3, 4, 2).reshape(h * wd, kh * kw * cin)
    wmat = w.data.reshape(kh * kw * cin, cout)
    data = (cols @ wmat + b.data).reshape(h, wd, cout)

    def backward(g):
        g2 = g.reshape(h * wd, cout)
        dc._accum(w, (cols.T @ g2).reshape(w.data.shape))
        dc._accum(b, g2.sum(axis=0))
        dcols = (g2 @ wmat.T).reshape(h, wd, kh, kw, cin)
        dxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                dxp[i : i + h, j : j + wd, :] += dcols[:, :, i, j, :]
        dc._accum(x, dxp[ph : ph + h, pw : pw + wd, :])

    return dc._make(data, (x, w, b), backward, "conv2d")


def _sparse_grid(rng):
    """16 x 16 x 3, > 90% zero rows; occupied rows on the border and in two
    corners."""
    x = np.zeros((16, 16, 3))
    for r, c in [(0, 0), (15, 15), (0, 7), (8, 15), (15, 3), (6, 6), (7, 6), (11, 2)]:
        x[r, c] = rng.standard_normal(3)
    return x


def _conv_input(case, rng):
    """(x, kernel size) of each case."""
    if case == "dense":
        return rng.standard_normal((9, 9, 3)), 3
    if case in ("sparse", "nan_grad"):
        return _sparse_grid(rng), 3
    if case == "all_zero":
        return np.zeros((6, 7, 3)), 3
    if case == "h_ne_w":
        x = rng.standard_normal((5, 11, 3))
        x[rng.random((5, 11)) < 0.6] = 0.0
        return x, 3
    if case == "sparse_grad":
        x = rng.standard_normal((16, 16, 3))
        x[rng.random((16, 16)) < 0.5] = 0.0
        return x, 3
    if case.startswith("background"):
        # one nonzero row everywhere (a trained bias after relu) but a few
        # distinct rows, on the border and inside
        x = np.broadcast_to(rng.standard_normal(3), (12, 10, 3)).copy()
        for r, c in [(0, 6), (11, 9), (5, 0), (6, 4), (7, 4)]:
            x[r, c] = rng.standard_normal(3)
        return x, int(case[-1])
    if case.startswith("top_left"):
        # an occupied or NaN top-left row on a sparse grid: it differs from
        # the other rows, so the zero background must win
        x = _sparse_grid(rng)
        x[0, 0] = np.nan if case == "top_left_nan" else 1.0 + rng.random(3)
        return x, 3
    size = int(case[-1])  # kernel_1, kernel_3, kernel_5
    x = rng.standard_normal((10, 8, 3))
    x[rng.random((10, 8)) < 0.7] = 0.0
    return x, size


def _output_grad(case, w_out):
    """The output gradient of each case: ``w_out`` itself, or for the sparse
    ones a few 5 x 5 patches of it, one on the border, exactly 0 elsewhere;
    ``nan_grad`` adds a NaN in one channel at a row whose window touches no
    occupied row, and in another at a row whose window does."""
    if case not in ("sparse_grad", "nan_grad"):
        return w_out
    g = np.zeros_like(w_out)
    for r, c in [(0, 11), (6, 3)]:
        g[r : r + 5, c : c + 5] = w_out[r : r + 5, c : c + 5]
    if case == "nan_grad":
        g[12, 12, 1] = g[6, 6, 3] = np.nan
    return g


def _windows(shape, k):
    """For every output position, its k x k window as in-grid positions and
    whether it overlaps the padding."""
    h, w = shape
    r = k // 2
    for i in range(h):
        for j in range(w):
            pos = [(a, b) for a in range(i - r, i + r + 1) for b in range(j - r, j + r + 1)]
            inside = [(a, b) for a, b in pos if 0 <= a < h and 0 <= b < w]
            yield (i, j), inside, len(inside) < len(pos)


def _computed_windows(x, k):
    """How many output windows the forward computes: those holding a row
    unequal to the background (NaN is unequal to all), or the padding under
    a nonzero background, counted for the zero background and, when the
    top-left row is nonzero, for that row; the fewer of the two."""
    backgrounds = [np.zeros(x.shape[2])] + ([x[0, 0]] if x[0, 0].any() else [])
    windows = list(_windows(x.shape[:2], k))
    return min(
        sum(any((x[a, b] != bg).any() for a, b in inside) or (pad and bg.any()) for _, inside, pad in windows)
        for bg in backgrounds
    )


def _gradient_reach(g, k):
    """Input positions within a k x k window of a nonzero (or NaN) output
    gradient row."""
    reach = np.zeros(g.shape[:2], dtype=bool)
    for (i, j), inside, _ in _windows(g.shape[:2], k):
        if g[i, j].any():
            for a, b in inside:
                reach[a, b] = True
    return reach


def _assert_close(new, ref, bound, name):
    """Within ``bound`` of the largest finite reference magnitude, NaN where
    the reference is NaN."""
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(new), nan), name
    scale = max(np.max(np.abs(ref[~nan]), initial=0.0), 1e-300)
    assert np.max(np.abs(new[~nan] - ref[~nan]), initial=0.0) <= bound * scale, name


CONV_CASES = [
    "dense", "sparse", "all_zero", "h_ne_w", "kernel_1", "kernel_3", "kernel_5",
    "sparse_grad", "nan_grad", "background_3", "background_5", "top_left_occupied", "top_left_nan",
]


@pytest.mark.parametrize("case", CONV_CASES)
def test_conv2d_matches_dense_im2col_oracle(case, monkeypatch):
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    x0, k = _conv_input(case, rng)
    arrays = {"x": x0, "w": rng.standard_normal((k, k, 3, 4)) * 0.3, "b": rng.standard_normal(4)}
    g_out = _output_grad(case, rng.standard_normal(x0.shape[:2] + (4,)))
    # the rows each im2col of dc.conv2d gathers: the forward's, then the
    # input gradient's
    gathered = []
    im2col = dc._im2col
    monkeypatch.setattr(dc, "_im2col", lambda p, s, o: gathered.append(len(s)) or im2col(p, s, o))
    if case == "top_left_nan":
        # a NaN reaches the output either way; the forward gathered only the
        # windows of the zero background
        for conv in (dc.conv2d, _conv2d_im2col):
            with pytest.raises(dc.NonFiniteError, match="conv2d"):
                conv(Tensor(x0), Tensor(arrays["w"]), Tensor(arrays["b"]))
        assert gathered == [_computed_windows(x0, k)]
        assert gathered[0] < x0[:, :, 0].size
        return
    results = []
    for conv in (dc.conv2d, _conv2d_im2col):
        t = {n: Tensor(a.copy()) for n, a in arrays.items()}
        with Tape():
            y = conv(t["x"], t["w"], t["b"])
        y._backward(g_out)
        results.append((y.data, {n: t[n].grad for n in t}))
    (y_new, g_new), (y_ref, g_ref) = results
    assert np.max(np.abs(y_new - y_ref)) <= 1e-12
    for n in arrays:
        _assert_close(g_new[n], g_ref[n], 1e-9, n)
    reach = _gradient_reach(g_out, k)
    assert gathered == [_computed_windows(x0, k), np.count_nonzero(reach)]
    assert not g_new["x"][~reach].any()
    if case == "sparse":
        assert np.mean(~x0.any(axis=2)) >= 0.9
    if case == "all_zero":
        assert np.array_equal(y_new, np.broadcast_to(arrays["b"], y_new.shape))
        assert not g_new["w"].any()
    if case == "nan_grad":
        assert np.isnan(g_new["w"]).any() and np.isnan(g_new["x"]).any()
    if case.startswith("background"):
        # the top-left row was the background: fewer windows than the zero one
        assert gathered[0] < x0[:, :, 0].size


def test_conv2d_nan_in_zero_grid_raises():
    # a NaN pixel is active like any nonzero one, so it reaches the output
    x = np.zeros((8, 8, 2))
    x[3, 5, 1] = np.nan
    with pytest.raises(dc.NonFiniteError, match="conv2d"):
        dc.conv2d(Tensor(x), Tensor(np.full((3, 3, 2, 2), 0.1)), Tensor(np.zeros(2)))


def test_select_rejects_an_index_that_copies():
    # a copy would take the backward's gradient with it
    x = Tensor(np.arange(6.0).reshape(2, 3))
    with pytest.raises(dc.DiffError, match="select"):
        dc.select(x, lambda a: a[[1, 0]])
