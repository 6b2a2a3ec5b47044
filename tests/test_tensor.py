import math

import numpy as np
import pytest

from tokenskip import tensor as T
from tokenskip.tensor import Tensor

from gradcheck import finite_difference, relative_error


@pytest.fixture(autouse=True)
def float64_mode():
    with T.precision(64):
        yield


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(a, Tensor(np.eye(2)))
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_hand():
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\[2, 3\].*\[2, 2\]"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

    def loss():
        return float(T.matmul(Tensor(a.data), Tensor(b.data)).data.sum())

    T.tensor_sum(T.matmul(a, b)).backward()
    assert relative_error(a.grad, finite_difference(loss, a.data)) < 1e-4
    assert relative_error(b.grad, finite_difference(loss, b.data)) < 1e-4


def test_softmax_symmetry():
    out = T.softmax(Tensor([0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_stabilized():
    out = T.softmax(Tensor([1000.0, 1000.0, 1000.0]), axis=0)
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data, [1 / 3] * 3)


def test_softmax_closed_form():
    out = T.softmax(Tensor([0.0, math.log(3.0)]), axis=0)
    np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_rows_sum_to_one_large_inputs():
    rng = np.random.default_rng(1)
    x = Tensor(rng.uniform(-1e4, 1e4, size=(5, 7)))
    out = T.softmax(x, axis=1)
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-6)


def test_softmax_bad_axis():
    with pytest.raises(ValueError):
        T.softmax(Tensor([1.0, 2.0]), axis=3)


def test_layernorm_constant_input():
    x = Tensor(np.full((2, 4), 3.0))
    out = T.layernorm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-3)


def test_layernorm_hand():
    out = T.layernorm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                      eps=1e-12)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)


def test_gelu_zero():
    assert T.gelu(Tensor([0.0])).data[0] == 0.0


def test_gather_scatter_roundtrip():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 3))
    idx = [4, 1, 5]
    rows = T.gather_rows(Tensor(x), idx)
    out = T.scatter_rows(Tensor(np.zeros((6, 3))), idx, rows)
    np.testing.assert_array_equal(out.data[idx], x[idx])
    assert (out.data[[0, 2, 3]] == 0).all()


def test_gather_scatter_permutation_identity():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 5, 3))
    perm = rng.permutation(5)
    picked = T.gather_rows(Tensor(x), perm)
    out = T.scatter_rows(Tensor(np.zeros_like(x)), perm, picked)
    np.testing.assert_array_equal(out.data, x)


def test_gather_out_of_range_index():
    with pytest.raises(IndexError, match="7"):
        T.gather_rows(Tensor(np.zeros((4, 2))), [0, 7])


def test_scatter_gradient_only_through_scattered_rows():
    base = Tensor(np.ones((4, 2)), requires_grad=True)
    rows = Tensor(np.ones((2, 2)), requires_grad=True)
    out = T.scatter_rows(base, [1, 3], rows)
    T.tensor_sum(out).backward()
    np.testing.assert_array_equal(rows.grad, np.ones((2, 2)))
    expected = np.ones((4, 2))
    expected[[1, 3]] = 0.0
    np.testing.assert_array_equal(base.grad, expected)


def test_cross_entropy_uniform():
    logits = Tensor(np.zeros((2, 5)))
    out = T.cross_entropy(logits, [0, 3])
    np.testing.assert_allclose(out.data, math.log(5.0), atol=1e-12)


def test_cross_entropy_bad_label():
    with pytest.raises(IndexError, match="9"):
        T.cross_entropy(Tensor(np.zeros((1, 3))), [9])


def test_backward_non_scalar_rejected():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        x.backward()


def test_backward_accumulates_across_calls():
    x = Tensor([2.0], requires_grad=True)
    loss = T.tensor_sum(T.mul(x, x))
    loss.backward()
    first = x.grad.copy()
    loss2 = T.tensor_sum(T.mul(x, x))
    loss2.backward()
    np.testing.assert_allclose(x.grad, 2 * first)


def test_fanout_gradient_adds():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = T.add(x, x)
    T.tensor_sum(y).backward()
    np.testing.assert_allclose(x.grad, [2.0, 2.0])


def _check_op(build, shapes, seed):
    """Finite-difference check of an op over random inputs."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    T.tensor_sum(build(*tensors)).backward()

    for arr, t in zip(arrays, tensors):
        def loss(arr=arr):
            fresh = [Tensor(a) for a in arrays]
            return float(build(*fresh).data.sum())

        assert relative_error(t.grad, finite_difference(loss, arr)) < 1e-4


DIFF_OPS = [
    ("matmul", lambda a, b: T.matmul(a, b), [(3, 4), (4, 2)]),
    ("matmul_batched", lambda a, b: T.matmul(a, b), [(2, 3, 4), (2, 4, 2)]),
    ("matmul_weight", lambda a, b: T.matmul(a, b), [(2, 3, 4), (4, 2)]),
    ("matmul_bias", lambda a, b, c: T.matmul(a, b, c), [(3, 4), (4, 2), (2,)]),
    ("matmul_weight_bias", lambda a, b, c: T.matmul(a, b, c),
     [(2, 3, 4), (4, 2), (2,)]),
    ("add", lambda a, b: T.add(a, b), [(3, 4), (3, 4)]),
    ("add_bias", lambda a, b: T.add(a, b), [(2, 3, 4), (4,)]),
    ("mul", lambda a, b: T.mul(a, b), [(3, 4), (3, 4)]),
    ("div", lambda a, b: T.div(a, T.add(T.mul(b, b), Tensor(np.ones((3,))))),
     [(2, 3), (3,)]),
    ("scale", lambda a: T.scale(a, 1.7), [(3, 4)]),
    ("transpose", lambda a: T.matmul(T.transpose(a, -1, -2), a), [(3, 4)]),
    ("reshape", lambda a: T.mul(T.reshape(a, (2, 6)), T.reshape(a, (2, 6))),
     [(3, 4)]),
    ("softmax", lambda a: T.mul(T.softmax(a, axis=-1), a), [(3, 5)]),
    ("layernorm", lambda a, g, b: T.mul(T.layernorm(a, g, b), a), [(3, 5), (5,), (5,)]),
    ("gelu", lambda a: T.mul(T.gelu(a), a), [(3, 4)]),
    ("gather", lambda a: T.mul(T.gather_rows(a, [3, 0, 1]), Tensor(np.arange(9.0).reshape(3, 3))),
     [(5, 3)]),
    ("scatter", lambda base, rows: T.mul(
        T.scatter_rows(base, [1, 3], rows),
        Tensor(np.arange(10.0).reshape(5, 2))), [(5, 2), (2, 2)]),
    ("take", lambda a: T.mul(T.take(a, [0, 2], axis=1), T.take(a, [1, 3], axis=1)),
     [(2, 4, 3)]),
    ("concat", lambda a, b: T.mul(T.concat([a, b], axis=1), T.concat([b, a], axis=1)),
     [(2, 3), (2, 3)]),
    ("repeat_batch", lambda a: T.mul(T.repeat_batch(a, 3), Tensor(np.arange(18.0).reshape(3, 2, 3))),
     [(1, 2, 3)]),
    ("sum_axis", lambda a: T.mul(T.tensor_sum(a, axis=1), T.tensor_sum(a, axis=2)),
     [(2, 3, 3)]),
    ("cross_entropy", lambda a: T.cross_entropy(a, [1, 0, 2]), [(3, 4)]),
]


@pytest.mark.parametrize("name,build,shapes", DIFF_OPS, ids=[d[0] for d in DIFF_OPS])
@pytest.mark.parametrize("seed", range(10))
def test_gradients_match_finite_differences(name, build, shapes, seed):
    _check_op(build, shapes, seed)


def test_forward_bit_identical_across_runs():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 6))
    w = rng.normal(size=(6, 6))

    def run():
        h = T.matmul(Tensor(x), Tensor(w))
        h = T.softmax(h, axis=-1)
        return T.layernorm(h, Tensor(np.ones(6)), Tensor(np.zeros(6))).data

    a, b = run(), run()
    assert (a == b).all()


def test_second_backward_exactly_doubles_leaf_gradients():
    x = Tensor([1.0, -2.0], requires_grad=True)
    loss = T.tensor_sum(T.scale(T.scale(x, 3.0), 2.0))
    loss.backward()
    loss.backward()
    np.testing.assert_array_equal(x.grad, [12.0, 12.0])

    # Each leaf takes one gradient per pass, so doubling is exact in floats.
    rng = np.random.default_rng(6)
    p = {name: Tensor(rng.normal(size=shape), requires_grad=True)
         for name, shape in [("x", (2, 3, 4)), ("w", (4, 4)), ("b", (4,)),
                             ("g", (4,)), ("beta", (4,)), ("r", (2, 3, 4))]}
    h = T.add(T.matmul(p["x"], p["w"]), p["b"])
    h = T.gelu(T.layernorm(h, p["g"], p["beta"]))
    h = T.add(T.reshape(T.permute(h, (0, 2, 1)), (2, 3, 4)), p["r"])
    loss = T.tensor_sum(T.mul(h, h))
    loss.backward()
    first = {name: t.grad.copy() for name, t in p.items()}
    loss.backward()
    for name, t in p.items():
        np.testing.assert_array_equal(t.grad, 2 * first[name], err_msg=name)


# Textbook formulas the in-place kernels must reproduce bit for bit.

def _gelu_reference(x):
    x2 = x * x
    u = T._GELU_C * (x + 0.044715 * (x2 * x))
    th = np.tanh(u)
    out = 0.5 * x * (1.0 + th)
    du = T._GELU_C * (1.0 + 3 * 0.044715 * x2)
    local = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * du
    return out, local


def _layernorm_reference(x, gain, bias, g, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = x - mean
    xhat *= inv
    out = xhat * gain + bias
    lead = tuple(range(g.ndim - 1))
    gx = g * gain
    term = gx - gx.mean(axis=-1, keepdims=True)
    term -= xhat * (gx * xhat).mean(axis=-1, keepdims=True)
    term *= inv
    return out, term, (g * xhat).sum(axis=lead), g.sum(axis=lead)


def _grads_under(out, upstream):
    """Backpropagate an arbitrary upstream gradient into out."""
    T.tensor_sum(T.mul(out, Tensor(upstream))).backward()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(3))
def test_gelu_matches_textbook_formula_bitwise(dtype, seed):
    rng = np.random.default_rng(seed)
    x = (rng.normal(size=(3, 17, 33)) * 3).astype(dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    t = Tensor(x.copy(), requires_grad=True)
    out = T.gelu(t)
    _grads_under(out, g)
    ref_out, ref_local = _gelu_reference(x)
    assert out.data.dtype == dtype and t.grad.dtype == dtype
    assert np.array_equal(out.data, ref_out)
    assert np.array_equal(t.grad, g * ref_local)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(3))
def test_layernorm_matches_textbook_formula_bitwise(dtype, seed):
    rng = np.random.default_rng(seed)
    # The desk model's shapes: full and skip-reduced token sets, CLS head.
    for shape in [(4, 9, 24), (64, 65, 128), (64, 30, 128), (64, 128)]:
        d = shape[-1]
        x, gain, bias, g = (rng.normal(size=s).astype(dtype)
                            for s in [shape, (d,), (d,), shape])
        xt, gt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, gain, bias))
        out = T.layernorm(xt, gt, bt)
        _grads_under(out, g)
        ref_out, ref_gx, ref_gain, ref_bias = _layernorm_reference(x, gain, bias, g)
        assert np.array_equal(out.data, ref_out), shape
        assert np.array_equal(xt.grad, ref_gx), shape
        assert np.array_equal(gt.grad, ref_gain), shape
        assert np.array_equal(bt.grad, ref_bias), shape


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(5, 12), (3, 7, 12)])
def test_matmul_bias_matches_add_of_matmul_bitwise(dtype, shape):
    rng = np.random.default_rng(9)
    x, w, b = (rng.normal(size=s).astype(dtype) for s in [shape, (12, 6), (6,)])
    g = rng.normal(size=shape[:-1] + (6,)).astype(dtype)
    runs = []
    for fold in (True, False):
        xt, wt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
        out = (T.matmul(xt, wt, bt) if fold
               else T.add(T.matmul(xt, wt), bt))
        _grads_under(out, g)
        runs.append((out.data, xt.grad, wt.grad, bt.grad))
    for name, folded, plain in zip(("out", "x", "w", "bias"), *runs):
        assert folded.dtype == dtype, name
        assert np.array_equal(folded, plain), name


def test_matmul_bias_is_one_node_with_three_parents():
    a, w, b = (Tensor(np.ones(s), requires_grad=True)
               for s in [(2, 3), (3, 4), (4,)])
    out = T.matmul(a, w, b)
    assert out._parents == (a, w, b)
    assert len(T.ComputeTape(T.tensor_sum(out)).nodes) == 5
    np.testing.assert_array_equal(out.data, np.full((2, 4), 4.0))


def test_add_and_mul_of_one_tensor_with_itself():
    x = Tensor([1.5, -2.0], requires_grad=True)
    T.tensor_sum(T.add(x, x)).backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    x = Tensor([1.5, -2.0], requires_grad=True)
    T.tensor_sum(T.mul(x, x)).backward()
    np.testing.assert_array_equal(x.grad, [3.0, -4.0])

    # Non-leaf operands borrow the incoming gradient, then must copy it.
    x = Tensor([1.5, -2.0], requires_grad=True)
    h = T.reshape(x, (2, 1))
    T.tensor_sum(T.scale(T.add(T.add(h, h), h), 5.0)).backward()
    np.testing.assert_array_equal(x.grad, [15.0, 15.0])


@pytest.mark.parametrize("view", ["reshape", "permute", "transpose"])
@pytest.mark.parametrize("first", [0, 1])
def test_view_fanout_into_a_twice_accumulated_tensor(view, first):
    rng = np.random.default_rng(7)
    xa, xb = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 3))
    a = Tensor(xa, requires_grad=True)
    b = Tensor(xb, requires_grad=True)
    # h receives a borrowed view first, then a second gradient; the add that
    # produced the view also handed its incoming gradient to the other branch.
    h = T.scale(a, 1.0)
    views = {"reshape": lambda t: T.reshape(t, (2, 4, 3)),
             "permute": lambda t: T.permute(t, (0, 2, 1)),
             "transpose": lambda t: T.transpose(t, 1, 2)}
    k = T.scale(b, 1.0)
    pair = [views[view](h), k]
    if first:
        pair.reverse()
    y = T.add(*pair)
    loss = T.add(T.tensor_sum(T.scale(y, 2.0)),
                 T.tensor_sum(T.mul(h, Tensor(np.full((2, 3, 4), 3.0)))))
    loss = T.add(loss, T.tensor_sum(T.scale(k, 7.0)))
    loss.backward()
    np.testing.assert_array_equal(a.grad, np.full((2, 3, 4), 5.0))
    np.testing.assert_array_equal(b.grad, np.full((2, 4, 3), 9.0))


def test_leaves_never_share_gradient_memory():
    rng = np.random.default_rng(8)
    x, y, w = (Tensor(rng.normal(size=(3, 4)), requires_grad=True) for _ in range(3))
    z, u = (Tensor(rng.normal(size=(3, 2)), requires_grad=True) for _ in range(2))
    out = T.add(T.add(x, y), T.concat([z, u], axis=1))
    out = T.add(out, T.transpose(T.transpose(w, 0, 1), 0, 1))
    T.tensor_sum(out).backward()
    grads = [x.grad, y.grad, w.grad, z.grad, u.grad]
    for i, gi in enumerate(grads):
        for gj in grads[i + 1:]:
            assert not np.shares_memory(gi, gj)
    x.grad += 1.0
    np.testing.assert_array_equal(y.grad, np.ones((3, 4)))
