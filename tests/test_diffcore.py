import math
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


def test_max_tie_break_lowest_index():
    x = Tensor([[2.0, 1.0], [2.0, 5.0]])
    with Tape() as tape:
        y = dc.reduce_sum(dc.reduce_max_over_set(x, axis=0))
        tape.backward(y)
    assert np.allclose(x.grad, [[1.0, 0.0], [0.0, 1.0]])


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
    ["concat", "gather", "reduce_sum", "reduce_max_over_set", "log", "sqrt", "conv2d", "scatter_max_pool",
     "slice_cols", "unstack"],
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

        elif name == "unstack":
            x0 = rng.standard_normal((4, 2, 3))
            w = rng.standard_normal((4, 2, 3))

            # rows weighted differently so a row routed to the wrong slot shows
            def f(x):
                return sum(dc.reduce_sum(r * Tensor(w[i])) for i, r in enumerate(dc.unstack(dc.tanh(x))))

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
