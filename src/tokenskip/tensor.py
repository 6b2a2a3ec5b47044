"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap contiguous numpy arrays. Differentiable operations record their
inputs and a backward closure; calling ``backward`` on a scalar loss walks the
recorded graph in reverse topological order and accumulates gradients into
every reachable tensor that requires them. A tensor's dtype is its data's: an
ndarray is kept as it is, anything else goes through ``np.asarray``, and a
non-float result becomes float32. So each op computes in its operands' dtype,
and a float64 model (a float64 archive, or a gradient check's cast) runs in
float64 throughout.

Gradient ownership. Backward closures hand gradients to ``_accumulate``
without copying them. An array passed with ``own=True`` is freshly allocated
and referenced by nothing else, so the receiving tensor may later add into it
in place. Any other array (a view of the incoming gradient, or the incoming
gradient itself) is borrowed by a non-leaf tensor: it is kept by reference and
copied only when a second gradient arrives for the same tensor. A leaf never
borrows, so no two leaves share gradient memory and callers may modify a
leaf's ``.grad`` in place. ``backward`` drops each non-leaf gradient as soon
as it has been propagated, so afterwards only leaf ``.grad`` is meaningful,
and a second ``backward`` on the same graph adds exactly one more gradient
into every leaf.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np

# Active MAC counter, if any (see flops.count_macs). matmul reports into it.
_MAC_COUNTER = None

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Skip graph recording inside the block (inference / benchmarking)."""
    global _GRAD_ENABLED
    saved = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = saved


class Tensor:
    """A dense n-dimensional array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "_grad_owned", "_parents",
                 "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = data if isinstance(data, np.ndarray) else np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._grad_owned = False
        self._parents: tuple = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Populate gradients of every reachable requires_grad tensor.

        Repeated calls without clearing gradients accumulate additively into
        leaf gradients; non-leaf gradients are dropped once propagated.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {list(self.shape)}"
            )
        tape = ComputeTape(self)
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad = self.grad + np.ones_like(self.data)
        for node in reversed(tape.nodes):
            if node._backward_fn is not None:
                if node.grad is not None:
                    node._backward_fn(node.grad)
                node.grad = None

    def __repr__(self):
        return f"Tensor(shape={list(self.shape)}, requires_grad={self.requires_grad})"


class ComputeTape:
    """Topologically ordered record of the differentiable ops behind a tensor.

    Reverse iteration visits each node exactly once, children before parents.
    """

    def __init__(self, root: Tensor):
        self.nodes: list[Tensor] = []
        visited = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                self.nodes.append(node)
                continue
            if id(node) in visited or not node.requires_grad:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))


def _accumulate(t: Tensor, g: np.ndarray, own: bool = False) -> None:
    """Add g into t's gradient.

    own=True promises g is a freshly allocated array no one else references:
    t keeps it and may add into it in place. Otherwise a non-leaf t borrows g
    by reference, never writes into it, and replaces it with a fresh sum on
    the second write; a leaf copies it, so leaves never share gradient memory.
    Either way the sum has the same bits as copy-then-add.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        if (g.dtype == t.data.dtype and g.shape == t.data.shape
                and (own or t._backward_fn is not None)):
            t.grad = g
            t._grad_owned = own
        else:
            t.grad = np.array(g, dtype=t.data.dtype, copy=True)
            t._grad_owned = True
    elif t._grad_owned:
        t.grad += g
    else:
        # Same casting as the in-place add, into a fresh array.
        t.grad = np.add(t.grad, g, out=np.empty_like(t.grad))
        t._grad_owned = True


def _make(data: np.ndarray, parents: Sequence[Tensor],
          backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward_fn = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Matrix product over the last two axes; leading batch dims broadcast.

    An optional bias (broadcast to the product's shape, the product's dtype
    kept) is added into the product in place: the bits of
    ``add(matmul(a, b), bias)`` from one output array and one graph node.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(
            f"matmul needs at least 2-d operands, got {list(a.shape)} and {list(b.shape)}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(
            f"matmul inner dimensions disagree: {list(a.shape)} x {list(b.shape)}"
        )
    k, n = b.shape[-2], b.shape[-1]
    if b.ndim == 2 and a.ndim > 2:
        # One large GEMM instead of a loop over the stacked leading dims.
        out = (a.data.reshape(-1, k) @ b.data).reshape(a.shape[:-1] + (n,))
    else:
        out = np.matmul(a.data, b.data)
    if bias is not None:
        out += bias.data
    if _MAC_COUNTER is not None:
        batch = int(np.prod(out.shape[:-2], dtype=np.int64)) if out.ndim > 2 else 1
        _MAC_COUNTER.add(batch * a.shape[-2] * a.shape[-1] * b.shape[-1])

    def backward(g):
        if b.ndim == 2 and a.ndim >= 2:
            g2 = g.reshape(-1, n)
            _accumulate(a, (g2 @ b.data.T).reshape(a.shape), own=True)
            _accumulate(b, a.data.reshape(-1, k).T @ g2, own=True)
        else:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accumulate(a, _unbroadcast(ga, a.shape), own=True)
            _accumulate(b, _unbroadcast(gb, b.shape), own=True)
        if bias is not None:
            gbias = _unbroadcast(g, bias.shape)
            _accumulate(bias, gbias, own=gbias is not g)

    return _make(out, (a, b) if bias is None else (a, b, bias), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(g):
        ga = _unbroadcast(g, a.shape)
        gb = _unbroadcast(g, b.shape)
        _accumulate(a, ga, own=ga is not g)
        _accumulate(b, gb, own=gb is not g)

    return _make(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape), own=True)
        _accumulate(b, _unbroadcast(g * a.data, b.shape), own=True)

    return _make(out, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g / b.data, a.shape), own=True)
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape), own=True)

    return _make(out, (a, b), backward)


def scale(t: Tensor, s: float) -> Tensor:
    s = float(s)
    out = t.data * s

    def backward(g):
        _accumulate(t, g * s, own=True)

    return _make(out, (t,), backward)


def transpose(t: Tensor, axis0: int, axis1: int) -> Tensor:
    out = np.swapaxes(t.data, axis0, axis1)

    def backward(g):
        _accumulate(t, np.swapaxes(g, axis0, axis1))

    return _make(out, (t,), backward)


def permute(t: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = np.transpose(t.data, axes)

    def backward(g):
        _accumulate(t, np.transpose(g, inverse))

    return _make(out, (t,), backward)


def reshape(t: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out = t.data.reshape(shape)

    def backward(g):
        _accumulate(t, g.reshape(t.shape))

    return _make(out, (t,), backward)


def tensor_sum(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = t.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(t, np.broadcast_to(g, t.shape).copy(), own=True)

    return _make(out, (t,), backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _make(out, tuple(tensors), backward)


def repeat_batch(t: Tensor, batch: int) -> Tensor:
    """Repeat a leading singleton batch axis; gradient sums over the copies."""
    if t.shape[0] != 1:
        raise ValueError(f"repeat_batch needs leading axis 1, got {list(t.shape)}")
    out = np.repeat(t.data, batch, axis=0)

    def backward(g):
        _accumulate(t, g.sum(axis=0, keepdims=True), own=True)

    return _make(out, (t,), backward)


def softmax(t: Tensor, axis: int) -> Tensor:
    """Numerically stabilized softmax along one axis."""
    if not -t.ndim <= axis < t.ndim:
        raise ValueError(f"softmax axis {axis} invalid for shape {list(t.shape)}")
    out = t.data - t.data.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

    def backward(g):
        # One reused temporary; attention scores make this the biggest
        # non-matmul tensor in the model.
        tmp = g * out
        inner = tmp.sum(axis=axis, keepdims=True)
        np.subtract(g, inner, out=tmp)
        tmp *= out
        _accumulate(t, tmp, own=True)

    return _make(out, (t,), backward)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(
            f"layernorm gain/bias must have shape [{d}], got "
            f"{list(gain.shape)} and {list(bias.shape)}"
        )
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    # Same operations as np.var, without centring x a second time.
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + 1e-5)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def backward(g):
        # Two full-size buffers: tmp for products with xhat, gx for the result.
        lead = tuple(range(g.ndim - 1))
        tmp = g * xhat
        _accumulate(gain, tmp.sum(axis=lead), own=True)
        _accumulate(bias, g.sum(axis=lead), own=True)
        gx = g * gain.data
        mean_gx = gx.mean(axis=-1, keepdims=True)
        np.multiply(gx, xhat, out=tmp)
        np.multiply(xhat, tmp.mean(axis=-1, keepdims=True), out=tmp)
        gx -= mean_gx
        gx -= tmp
        gx *= inv
        _accumulate(x, gx, own=True)

    return _make(out, (x, gain, bias), backward)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_BLOCK_BYTES = 128 << 10  # one row block of each GELU temporary fits L2


def _row_blocks(rows: int, width: int, itemsize: int):
    """Row slices of at most _GELU_BLOCK_BYTES each (at least one row), and
    the rows a block of scratch space needs."""
    step = max(1, _GELU_BLOCK_BYTES // max(1, width * itemsize))
    return [slice(lo, lo + step) for lo in range(0, rows, step)], min(step, rows)


def gelu(t: Tensor) -> Tensor:
    """GELU nonlinearity (tanh approximation).

    Forward and backward walk the [rows, width] view in row blocks whose
    temporaries stay in L2; every element gets the same operations, so the
    bits do not depend on the blocking.
    """
    # Computed in place, operand order aside, as
    #   out = 0.5 * x * (1 + tanh(C * (x + 0.044715 * x^3)))
    # with the same roundings; x2 and th are kept for backward.
    x = t.data
    width = x.shape[-1] if x.ndim else 1
    xr = x.reshape(x.size // width if width else 0, width)
    blocks, block_rows = _row_blocks(xr.shape[0], width, x.dtype.itemsize)
    x2, th, out = np.empty_like(xr), np.empty_like(xr), np.empty_like(xr)
    tmp = np.empty((block_rows, width), x.dtype)
    for rows in blocks:
        xb, x2b, thb, ob = xr[rows], x2[rows], th[rows], out[rows]
        tb = tmp[:len(xb)]
        np.multiply(xb, xb, out=x2b)
        np.multiply(x2b, xb, out=thb)
        thb *= 0.044715
        thb += xb
        thb *= _GELU_C
        np.tanh(thb, out=thb)
        np.multiply(xb, 0.5, out=ob)
        np.add(thb, 1.0, out=tb)
        ob *= tb
    out = out.reshape(x.shape)

    def backward(g):
        # local = 0.5 * (1 + th) + 0.5 * x * (1 - th^2) * C * (1 + 3 * 0.044715 * x^2)
        gr = g.reshape(xr.shape)
        grad = np.empty_like(xr)
        du, tmp = np.empty((2, block_rows, width), x.dtype)
        for rows in blocks:
            xb, x2b, thb, local = xr[rows], x2[rows], th[rows], grad[rows]
            dub, tb = du[:len(xb)], tmp[:len(xb)]
            np.multiply(x2b, 3 * 0.044715, out=dub)
            dub += 1.0
            dub *= _GELU_C
            np.multiply(thb, thb, out=local)
            np.subtract(1.0, local, out=local)
            np.multiply(xb, 0.5, out=tb)
            local *= tb
            local *= dub
            np.add(thb, 1.0, out=tb)
            tb *= 0.5
            local += tb
            local *= gr[rows]
        _accumulate(t, grad.reshape(x.shape), own=True)

    return _make(out, (t,), backward)


def _row_index(idx, rows: int) -> np.ndarray:
    """Validate an index into ``rows`` entries: in range, distinct per row."""
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        bad = int(idx.min()) if idx.min() < 0 else int(idx.max())
        raise IndexError(f"row index {bad} out of range for {rows} rows")
    srt = np.sort(idx, axis=-1)
    repeats = srt[..., 1:][srt[..., 1:] == srt[..., :-1]]
    if repeats.size:
        raise ValueError(f"row index {int(repeats[0])} repeats")
    return idx


def _batch_rows(t: Tensor, idx):
    """Per-sample row index of a [B, N, D] tensor: (batch range, [B, k] idx)."""
    if t.ndim != 3:
        raise ValueError(f"expected a [B, N, D] tensor, got {list(t.shape)}")
    b, n, _ = t.shape
    idx = _row_index(idx, n)
    if idx.ndim == 1:
        idx = np.broadcast_to(idx, (b, idx.shape[0]))
    return np.arange(b)[:, None], idx


def gather_rows(t: Tensor, idx) -> Tensor:
    """Select distinct rows per sample: [B, N, D], idx [k] or [B, k] -> [B, k, D]."""
    brange, idx = _batch_rows(t, idx)
    out = t.data[brange, idx]

    def backward(g):
        acc = np.zeros_like(t.data)
        acc[brange, idx] = g
        _accumulate(t, acc, own=True)

    return _make(out, (t,), backward)


def scatter_rows(base: Tensor, idx, rows: Tensor) -> Tensor:
    """Place rows into a copy of base at the given (distinct) indices.

    Gradients flow through the scattered rows; base positions that were
    overwritten receive no gradient. Index shapes mirror gather_rows.
    """
    brange, idx = _batch_rows(base, idx)
    out = base.data.copy()
    out[brange, idx] = rows.data

    def backward(g):
        gb = g.copy()
        gb[brange, idx] = 0.0
        _accumulate(base, gb, own=True)
        _accumulate(rows, g[brange, idx], own=True)

    return _make(out, (base, rows), backward)


def take(t: Tensor, idx, axis: int) -> Tensor:
    """Index one axis by a 1-d list of distinct positions."""
    idx = _row_index(idx, t.shape[axis])
    if idx.ndim != 1:
        raise ValueError(f"take needs a 1-d index, got shape {list(idx.shape)}")
    out = np.take(t.data, idx, axis=axis)

    def backward(g):
        acc = np.zeros_like(t.data)
        np.moveaxis(acc, axis, 0)[idx] = np.moveaxis(g, axis, 0)
        _accumulate(t, acc, own=True)

    return _make(out, (t,), backward)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of [batch, classes] logits against integer labels."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    b, c = logits.shape
    if labels.shape[0] != b:
        raise ValueError(f"got {labels.shape[0]} labels for batch of {b}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        bad = int(labels.min()) if labels.min() < 0 else int(labels.max())
        raise IndexError(f"label {bad} out of range for {c} classes")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    picked = z[np.arange(b), labels]
    out = np.asarray((lse - picked).mean(), dtype=z.dtype)

    def backward(g):
        probs = np.exp(z - zmax)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(b), labels] -= 1.0
        _accumulate(logits, g * probs / b, own=True)

    return _make(out, (logits,), backward)
