import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from tokenskip import tensor as T, trainer
from tokenskip.optim import AdamW
from tokenskip.tensor import Tensor
from tokenskip.tokendrop import MODE_FUSE, MODE_SKIP, PAST_WARMUP, DropSchedule
from tokenskip.vit import MODEL_PRESETS, ModelConfig, ViT

from gradcheck import finite_difference, relative_error


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
    out = T.layernorm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)


def test_gelu_zero():
    assert T.gelu(Tensor([0.0])).data[0] == 0.0


def test_gather_scatter_roundtrip():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 6, 3))
    idx = np.array([[4, 1, 5], [0, 2, 4]])
    rows = T.gather_rows(Tensor(x), idx)
    out = T.scatter_rows(Tensor(np.zeros((2, 6, 3))), idx, rows)
    picked = np.zeros((2, 6), dtype=bool)
    picked[[[0], [1]], idx] = True
    np.testing.assert_array_equal(out.data, np.where(picked[..., None], x, 0.0))


def test_gather_scatter_permutation_identity():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 5, 3))
    perm = rng.permutation(5)
    picked = T.gather_rows(Tensor(x), perm)
    out = T.scatter_rows(Tensor(np.zeros_like(x)), perm, picked)
    np.testing.assert_array_equal(out.data, x)


def test_gather_out_of_range_index():
    with pytest.raises(IndexError, match="7"):
        T.gather_rows(Tensor(np.zeros((2, 4, 2))), [[0, 1], [0, 7]])


@pytest.mark.parametrize("op,match", [
    (lambda: T.gather_rows(Tensor(np.zeros((2, 3, 1))), [2, 0, 2]), "repeats"),
    (lambda: T.scatter_rows(Tensor(np.zeros((1, 3, 1))), [[1, 1]],
                            Tensor(np.ones((1, 2, 1)), requires_grad=True)),
     "repeats"),
    (lambda: T.scatter_rows(Tensor(np.zeros((1, 3, 2))), [[1, 2]],
                            Tensor(np.ones((1, 1, 2)), requires_grad=True)),
     r"rows \[1, 1, 2\] do not fit index \[1, 2\]"),
    (lambda: T.take(Tensor(np.zeros((2, 3))), [0, 2, 0], axis=1), "repeats"),
    (lambda: T.take(Tensor(np.zeros((2, 3))), [[0, 1]], axis=1), "1-d")],
    ids=["gather_rows", "scatter_rows", "scatter_rows_count", "take",
         "take_2d"])
def test_row_index_must_be_distinct(op, match):
    # A repeated row needs an accumulating gradient (scatter_rows at [[1, 1]]
    # owes rows.grad [0, 1]); the row ops reject it instead. So does a rows
    # tensor that would broadcast: one row scattered at [[1, 2]] would take
    # the summed gradient [[[2, 2]]].
    with pytest.raises(ValueError, match=match):
        op()


def test_scatter_gradient_only_through_scattered_rows():
    base = Tensor(np.ones((2, 4, 2)), requires_grad=True)
    rows = Tensor(np.ones((2, 2, 2)), requires_grad=True)
    out = T.scatter_rows(base, [[1, 3], [0, 3]], rows)
    T.tensor_sum(out).backward()
    np.testing.assert_array_equal(rows.grad, np.ones((2, 2, 2)))
    expected = np.ones((2, 4, 2))
    expected[0, [1, 3]] = 0.0
    expected[1, [0, 3]] = 0.0
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
    ("gather", lambda a: T.mul(T.gather_rows(a, [[3, 0, 1], [4, 2, 0]]),
                               Tensor(np.arange(18.0).reshape(2, 3, 3))),
     [(2, 5, 3)]),
    ("scatter", lambda base, rows: T.mul(
        T.scatter_rows(base, [[1, 3], [4, 0]], rows),
        Tensor(np.arange(20.0).reshape(2, 5, 2))), [(2, 5, 2), (2, 2, 2)]),
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


def _chain_params():
    rng = np.random.default_rng(6)
    return {name: Tensor(rng.normal(size=shape), requires_grad=True)
            for name, shape in [("x", (2, 3, 4)), ("w", (4, 4)), ("b", (4,)),
                                ("g", (4,)), ("beta", (4,)), ("r", (2, 3, 4))]}


def _chain_loss(p):
    h = T.add(T.matmul(p["x"], p["w"]), p["b"])
    h = T.gelu(T.layernorm(h, p["g"], p["beta"]))
    h = T.add(T.reshape(T.permute(h, (0, 2, 1)), (2, 3, 4)), p["r"])
    return T.tensor_sum(T.mul(h, h))


def test_second_backward_on_a_spent_graph_raises_and_changes_nothing():
    p = _chain_params()
    loss = _chain_loss(p)
    loss.backward()
    first = {name: t.grad.copy() for name, t in p.items()}
    with pytest.raises(RuntimeError, match="spent"):
        loss.backward()
    for name, t in p.items():
        np.testing.assert_array_equal(t.grad, first[name], err_msg=name)


def test_two_graphs_on_the_same_leaves_exactly_double_leaf_gradients():
    # Each leaf takes one gradient per graph, so doubling is exact in floats.
    p = _chain_params()
    _chain_loss(p).backward()
    first = {name: t.grad.copy() for name, t in p.items()}
    _chain_loss(p).backward()
    for name, t in p.items():
        np.testing.assert_array_equal(t.grad, 2 * first[name], err_msg=name)


def test_backward_through_a_node_another_backward_spent_raises_first():
    # y is shared by two losses. Were a spent node's closure None, y would
    # pass for a leaf: loss2 would give y a gradient and x none, silently.
    rng = np.random.default_rng(7)
    x, w, z = (Tensor(rng.normal(size=(3, 3)), requires_grad=True)
               for _ in range(3))
    y = T.matmul(x, w)
    T.tensor_sum(y).backward()
    assert y._node.backward_fn is not None
    before = [x.grad.copy(), w.grad.copy()]
    loss2 = T.add(T.tensor_sum(T.mul(y, z)), T.tensor_sum(z))
    with pytest.raises(RuntimeError, match="spent"):
        loss2.backward()
    np.testing.assert_array_equal(x.grad, before[0])
    np.testing.assert_array_equal(w.grad, before[1])
    assert z.grad is None and y.grad is None


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
    # One row block, then several with a partial last block (600 rows of 512).
    for shape in [(3, 17, 33), (2, 300, 512)]:
        x = (rng.normal(size=shape) * 3).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        t = Tensor(x.copy(), requires_grad=True)
        out = T.gelu(t)
        _grads_under(out, g)
        ref_out, ref_local = _gelu_reference(x)
        assert out.data.dtype == dtype and t.grad.dtype == dtype
        assert np.array_equal(out.data, ref_out), shape
        assert np.array_equal(t.grad, g * ref_local), shape
        with T.no_grad():
            assert np.array_equal(T.gelu(Tensor(x)).data, ref_out), shape


def _kept_derivative_gelu_grad(x, g):
    """The input gradient of a GELU that made its local derivative in the
    forward, in these operations, and kept it for backward."""
    x2 = x * x
    th = x2 * x
    th *= 0.044715
    th += x
    th *= T._GELU_C
    np.tanh(th, out=th)
    half = x * 0.5
    deriv = th * th
    np.subtract(1.0, deriv, out=deriv)
    deriv *= half
    x2 *= 3 * 0.044715
    x2 += 1.0
    x2 *= T._GELU_C
    deriv *= x2
    deriv += (th + 1.0) * 0.5
    return np.multiply(deriv, g, out=np.empty_like(deriv))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_remakes_its_output_and_derivative_bitwise(dtype):
    # Row counts on both sides of one and two _GELU_BLOCK_BYTES blocks.
    rng = np.random.default_rng(18)
    width = 96
    step = T._GELU_BLOCK_BYTES // (width * np.dtype(dtype).itemsize)
    for rows in (1, step - 1, step, step + 1, 2 * step + 1):
        x = (rng.normal(size=(rows, width)) * 3).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        t = Tensor(x.copy(), requires_grad=True)
        out = T.gelu(t)
        remade = out._remake()
        assert remade.strides == out.data.strides, rows
        assert not np.shares_memory(remade, out.data), rows
        assert np.array_equal(remade, out.data), rows
        _grads_under(out, g)
        assert out._remake._data is None, rows
        assert t.grad.dtype == dtype, rows
        assert np.array_equal(t.grad, _kept_derivative_gelu_grad(x, g)), rows


def test_a_recorded_gelu_keeps_no_array_but_its_input():
    # Nothing reads the output in backward here, and the derivative is
    # rebuilt there: the graph holds no array the input does not.
    t = Tensor(np.random.default_rng(19).normal(size=(4, 100, 64))
               .astype(np.float32), requires_grad=True)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = T.tensor_sum(T.gelu(t))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < t.data.nbytes / 10, kept
    loss.backward()
    assert t.grad.shape == t.shape


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


def _readers_loss(h, readers, upstream):
    """sum_i <matmul(h, w_i, b_i), u_i>: h read by one matmul per reader."""
    terms = [T.tensor_sum(T.mul(T.matmul(h, w, b), Tensor(u)))
             for (w, b), u in zip(readers, upstream)]
    loss = terms[0]
    for term in terms[1:]:
        loss = T.add(loss, term)
    return loss


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(4, 9, 24), (6, 24)], ids=["tokens", "cls"])
@pytest.mark.parametrize("n_readers", [1, 3], ids=["one", "qkv"])
def test_matmul_of_a_layernorm_output_matches_a_copy_bitwise(
        dtype, shape, n_readers):
    # The matmuls remake the layernorm output in backward; the reference
    # chain hands them a leaf holding a copy of it, then backpropagates the
    # leaf's gradient through the layernorm.
    rng = np.random.default_rng(13)
    d = shape[-1]
    arrays = [rng.normal(size=s).astype(dtype) for s in [shape, (d,), (d,)]]
    weights = [(rng.normal(size=(d, 5)).astype(dtype),
                rng.normal(size=(5,)).astype(dtype)) for _ in range(n_readers)]
    upstream = [rng.normal(size=shape[:-1] + (5,)).astype(dtype)
                for _ in range(n_readers)]
    runs = []
    for remade in (True, False):
        x, gain, bias = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        readers = [tuple(Tensor(a.copy(), requires_grad=True) for a in wb)
                   for wb in weights]
        h = T.layernorm(x, gain, bias)
        if remade:
            assert h._remake is not None
            _readers_loss(h, readers, upstream).backward()
        else:
            copy = Tensor(h.data.copy(), requires_grad=True)
            _readers_loss(copy, readers, upstream).backward()
            _grads_under(h, copy.grad)
        runs.append([x.grad, gain.grad, bias.grad]
                    + [t.grad for wb in readers for t in wb])
    for i, (remade, copied) in enumerate(zip(*runs)):
        assert remade.dtype == dtype, i
        assert np.array_equal(remade, copied), i


def test_a_layernorm_output_is_remade_once_and_not_kept():
    rng = np.random.default_rng(14)
    x, gain, bias = (Tensor(rng.normal(size=s), requires_grad=True)
                     for s in [(2, 5, 8), (8,), (8,)])
    readers = [(Tensor(rng.normal(size=(8, 3)), requires_grad=True),
                Tensor(rng.normal(size=(3,)), requires_grad=True))
               for _ in range(3)]
    h = T.layernorm(x, gain, bias)
    output, remake = weakref.ref(h.data), h._remake
    made = []
    make = remake._make
    remake._make = lambda: made.append(1) or make()
    loss = _readers_loss(h, readers, [np.ones((2, 5, 3))] * 3)
    del h
    gc.collect()
    # The matmuls keep the remake, not the output.
    assert output() is None
    loss.backward()
    # One remake shared by the three readers, dropped by the layernorm's
    # closure, which runs after them.
    assert made == [1]
    assert remake._data is None


def test_a_layernorm_output_carries_no_remake_without_a_graph():
    x, gain, bias = (Tensor(np.arange(8.0).reshape(2, 4), requires_grad=True),
                     Tensor(np.ones(4), requires_grad=True),
                     Tensor(np.zeros(4), requires_grad=True))
    with T.no_grad():
        assert T.layernorm(x, gain, bias)._remake is None
    plain = (Tensor(t.data) for t in (x, gain, bias))
    assert T.layernorm(*plain)._remake is None


CARRYING_OPS = {
    "matmul": lambda h: T.matmul(h, Tensor(np.linspace(-1.0, 1.0, 24).reshape(8, 3),
                                           requires_grad=True),
                                 Tensor(np.arange(3.0))),
    "matmul_rhs": lambda h: T.matmul(
        Tensor(np.linspace(-1.0, 1.0, 50).reshape(2, 5, 5)), h),
    "reshape": lambda h: T.reshape(h, (2, 5, 2, 4)),
    "permute": lambda h: T.permute(h, (0, 2, 1)),
    "transpose": lambda h: T.transpose(h, -1, -2),
    "scale": lambda h: T.scale(h, 0.35),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", sorted(CARRYING_OPS))
def test_an_op_on_a_remade_operand_carries_a_bitwise_remake(op, dtype):
    rng = np.random.default_rng(15)
    x, gain, bias = (Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
                     for s in [(2, 5, 8), (8,), (8,)])
    out = CARRYING_OPS[op](T.layernorm(x, gain, bias))
    assert out._remake is not None
    remade = out._remake()
    assert remade.dtype == out.dtype and remade.strides == out.data.strides
    assert not np.shares_memory(remade, out.data)
    assert np.array_equal(remade, out.data)


def _remake_spy(monkeypatch):
    """Record (the forward's array, its remake, the remake's calls) for every
    op output that carries a remake."""
    carried = []
    make = T._make

    def spy(*args):
        out = make(*args)
        if out._remake is not None:
            calls, inner = [], out._remake._make
            out._remake._make = lambda: calls.append(1) or inner()
            carried.append((weakref.ref(out.data), out._remake, calls))
        return out

    monkeypatch.setattr(T, "_make", spy)
    return carried


@pytest.mark.parametrize("schedule", [
    DropSchedule(),
    DropSchedule(stages=((3, 0.55),), skip_target=5, mode=MODE_SKIP),
    DropSchedule(stages=((3, 0.45),), mode=MODE_FUSE),
], ids=["dense", "skip", "fuse"])
def test_no_op_output_carries_a_remake_without_a_graph(monkeypatch, schedule):
    model = ViT(MODEL_PRESETS["desk"], seed=0)
    rng = np.random.default_rng(17)
    images = rng.normal(size=(2, 3, 32, 32)).astype(np.float32)
    carried = _remake_spy(monkeypatch)
    with T.no_grad():
        model.forward(images, schedule)
    assert carried == []
    # The same forward with a graph: 21 a block (17 in attention, the ln2
    # output, the w1 product, the GELU output and the w2 product), and the
    # ln_f output and the logits.
    model.forward(images, schedule)
    assert len(carried) == 21 * 6 + 2


def test_attention_arrays_are_remade_once_and_not_kept(monkeypatch):
    model = ViT(MODEL_PRESETS["tiny"], seed=0)
    rng = np.random.default_rng(16)
    tokens = model.patchify(rng.normal(size=(2, 3, 4, 4)).astype(np.float32))
    carried = _remake_spy(monkeypatch)
    res, scores = model.attention_block(tokens, 0)
    loss = T.tensor_sum(T.mul(res.embeddings,
                              Tensor(rng.normal(size=res.embeddings.shape))))
    del res, scores, tokens
    gc.collect()
    # The layernorm output; q, k and v, each projected, reshaped and
    # permuted; q scaled, k transposed, their product, the context, its
    # permute and reshape, and the wo projection.
    assert len(carried) == 17
    assert [ref() for ref, _, _ in carried] == [None] * 17
    loss.backward()
    # The logits feed softmax, which keeps its output, and the wo product
    # feeds add: nothing reads their remakes. Every other remake is made
    # once and dropped by its op's closure.
    assert sorted(len(calls) for _, _, calls in carried) == [0] * 2 + [1] * 15
    assert all(remake._data is None for _, remake, _ in carried)


def test_matmul_bias_is_one_node_with_three_parents():
    a, w, b = (Tensor(np.ones(s), requires_grad=True)
               for s in [(2, 3), (3, 4), (4,)])
    out = T.matmul(a, w, b)
    assert out._node.parents == (a._node, w._node, b._node)
    assert len(T.ComputeTape(T.tensor_sum(out)).nodes) == 2
    np.testing.assert_array_equal(out.data, np.full((2, 4), 4.0))


def test_an_output_backward_does_not_read_is_freed():
    rng = np.random.default_rng(9)
    x, w, y = (Tensor(rng.normal(size=s), requires_grad=True)
               for s in [(3, 4), (4, 2), (3, 2)])
    h = T.matmul(x, w)
    product = weakref.ref(h.data)
    loss = T.tensor_sum(T.add(h, y))
    del h
    gc.collect()
    # add's backward reads no operand, so the graph holds no matmul output.
    assert product() is None
    loss.backward()
    g = np.ones((3, 2))
    np.testing.assert_array_equal(x.grad, g @ w.data.T)
    np.testing.assert_array_equal(w.grad, x.data.T @ g)
    np.testing.assert_array_equal(y.grad, g)


def test_data_is_read_only_and_a_float64_leaf_takes_float64_gradients():
    x = Tensor(np.array([1.5, -2.0], np.float64), requires_grad=True)
    with pytest.raises(AttributeError):
        x.data = x.data.astype(np.float32)
    T.tensor_sum(T.mul(x, x)).backward()
    assert x.grad.dtype == np.float64
    np.testing.assert_array_equal(x.grad, [3.0, -4.0])


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


def test_a_leaf_gradient_is_never_written():
    rng = np.random.default_rng(8)
    data = [rng.normal(size=s) for s in [(3, 4)] * 3 + [(3, 2)] * 2]

    def loss(x, y, w, z, u):
        out = T.add(T.mul(x, y), T.concat([z, u], axis=1))
        out = T.add(out, T.transpose(T.transpose(w, 0, 1), 0, 1))
        return T.tensor_sum(T.mul(out, out))

    leaves = [Tensor(a, requires_grad=True) for a in data]
    loss(*leaves).backward()
    kept = [t.grad for t in leaves]
    before = [g.copy() for g in kept]
    loss(*leaves).backward()
    # What the second graph hands each leaf, from a graph of its own.
    fresh = [Tensor(a, requires_grad=True) for a in data]
    loss(*fresh).backward()
    for t, g, old, new in zip(leaves, kept, before, fresh):
        np.testing.assert_array_equal(g, old)
        np.testing.assert_array_equal(t.grad, old + new.grad)


def test_no_gradient_handed_to_a_node_is_written(monkeypatch):
    handed = []
    accumulate = T._accumulate

    def spy(node, g):
        if node is not None:
            handed.append((g, g.copy()))
        accumulate(node, g)

    monkeypatch.setattr(T, "_accumulate", spy)
    config = ModelConfig(depth=4, heads=2, embed_dim=8, patch_size=2,
                         image_size=4, num_classes=3)
    model = ViT(config, seed=0)
    schedule = DropSchedule(((1, 0.5),), skip_target=3, mode=MODE_SKIP)
    rng = np.random.default_rng(10)
    images = rng.normal(size=(4, 3, 4, 4)).astype(np.float32)
    trainer._train_step(model, schedule, AdamW(model.params), images,
                        np.array([0, 1, 2, 0]), PAST_WARMUP, 0, 1e-3)
    assert handed
    for g, copy in handed:
        np.testing.assert_array_equal(g, copy)


def test_parameter_gradients_after_a_train_step_own_their_memory():
    # Leaves keep the arrays they are handed; in this model each one is a
    # fresh product or reduction of its parameter's shape, never a view into
    # something larger, and no two parameters are handed the same array.
    model = ViT(MODEL_PRESETS["desk"], seed=0)
    schedule = DropSchedule(((3, 0.55),), skip_target=5, mode=MODE_SKIP)
    rng = np.random.default_rng(11)
    images = rng.normal(size=(8, 3, 32, 32)).astype(np.float32)
    trainer._train_step(model, schedule, AdamW(model.params), images,
                        np.arange(8) % 10, PAST_WARMUP, 0, 1e-3)
    grads = []
    for name, p in model.params.items():
        g = p.grad
        assert g.base is None, name
        assert (g.shape, g.dtype) == (p.shape, p.dtype), name
        grads.append((name, g))
    for i, (name, g) in enumerate(grads):
        for other, h in grads[i + 1:]:
            assert not np.shares_memory(g, h), (name, other)
