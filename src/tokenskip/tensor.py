"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap contiguous numpy arrays. Differentiable operations record their
inputs' graph nodes and a backward closure; calling ``backward`` on a scalar
loss walks the recorded graph in reverse topological order and adds
gradients to every reachable tensor that requires them. A tensor's dtype is
its data's: an ndarray is kept as it is, anything else goes through
``np.asarray``, and a non-float result becomes float32. So each op computes in
its operands' dtype, and a float64 model (a float64 archive, or a gradient
check's cast) runs in float64 throughout.

Graph and gradient ownership. The graph holds nodes, not data: a tensor that
requires grad owns a node with its shape, dtype, gradient, parent nodes and
backward closure. A closure keeps its parents' nodes and only the arrays its
backward reads: matmul the operand that the other's gradient needs (its
remake, if it carries one), softmax its output, layernorm ``xhat``, ``inv``,
the gain and the bias, gelu its input (it rebuilds its local derivative in
backward), cross-entropy the logits, mul and div their operands. add,
scale, the views, sums, ``repeat_batch``, ``concat`` and the row ops keep
shapes and indices only, so an output that backward never reads is freed
when the forward code drops it.

Remakes. Some outputs are kept by no closure: backward remakes them. A
recording layernorm's output carries a remake (see ``_Remake``) that makes
``xhat * gain + bias`` again by the forward's own ops, and a recording
gelu's output one that runs the forward again on the input its closure
keeps. So does the output of a matmul, reshape, permute, transpose or scale
that records with an operand carrying one: the op's own function run again
on the operands' remakes and the other operands' arrays, which the op's
closure keeps already (``scores @ v`` reads the scores that softmax keeps).
Attention's q, k and v projections and its context, and the FFN's GELU
output that ``ffn.w2``'s weight sum reads, are remade this way, each once
per backward, by the first closure that reads it; an op's closure drops its
output's remade array, since every reader has run by then. A remake reads
the weights and biases of the matmuls, the layernorm's gain and bias and
gelu's input, so none of them may be written between a forward and its
backward (the optimizer writes them after). A remake's matmul reports no
MACs, and under ``no_grad`` nothing carries one.

Gradients. Closures hand gradients to ``_accumulate`` as they are (fresh
arrays, views, read-only broadcasts), and two rules, one for every node, make
that safe:

1. a node keeps its first gradient by reference and never writes into it;
2. a later gradient replaces the node's gradient with a fresh sum.

So no gradient array is written once it is made, and a leaf's ``.grad`` is
read-only: it may be a broadcast view, or the array another node holds.
``backward`` walks only op nodes and spends the graph as it walks it: once a
node's closure has run, the node drops its gradient, its closure (and with it
every array the closure kept) and its parents, so a step's activations are
freed one node at a time in reverse order, and afterwards the graph holds only
leaf ``.grad``. A spent node's closure is ``_spent``, never ``None``, which
would make it pass for a leaf and silently cut the gradient flowing through
it. A graph is single-use: a ``backward`` whose graph reaches a spent node
raises ``RuntimeError`` before it changes any gradient.

Shards. A train step may run its batch as shards, each building its own
graph and walking it on its own thread (``ShardSums``). The closures that
sum a parameter's gradient over the batch's rows (matmul's weight and bias,
layernorm's gain and bias, add's broadcast, ``repeat_batch``) go through
``_batch_sum``, which in a shard's walk hands the rows over, once per
closure, so that the sums run once, over the whole batch; ``_accumulate``
refuses a parameter any other gradient there.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np

# Active MAC counter, if any (see flops.count_macs). matmul reports into it.
_MAC_COUNTER = None

_GRAD_ENABLED = True

# The calling thread's shard of a sharded backward, if it walks one: its
# ShardSums as ``.sums`` and its shard number as ``.index``.
_SHARD = threading.local()


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


class _Node:
    """A tensor's place in the graph: everything backward needs but its data."""

    __slots__ = ("shape", "dtype", "grad", "parents", "backward_fn")

    def __init__(self, shape, dtype, parents: tuple = (), backward_fn=None):
        self.shape, self.dtype, self.parents = shape, dtype, parents
        self.grad: Optional[np.ndarray] = None
        self.backward_fn = backward_fn


class _Remake:
    """Remakes an op's output in backward from arrays the op's closure keeps.

    Backward closures that read the output, and the remakes of outputs made
    from it, keep this in place of the array. They share one remade array,
    made by the first to call it; the op's own closure, which runs after them
    all, drops it.
    """

    __slots__ = ("_make", "_data")

    def __init__(self, make: Callable[[], np.ndarray]):
        self._make, self._data = make, None

    def __call__(self) -> np.ndarray:
        if self._data is None:
            self._data = self._make()
        return self._data

    def drop(self) -> None:
        self._data = None


class Tensor:
    """A dense n-dimensional array with optional gradient tracking."""

    __slots__ = ("_data", "_node", "_remake")

    def __init__(self, data, requires_grad: bool = False):
        arr = data if isinstance(data, np.ndarray) else np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self._data = arr
        self._node = _Node(arr.shape, arr.dtype) if requires_grad else None
        self._remake: Optional[_Remake] = None  # see _kept

    @property
    def data(self) -> np.ndarray:
        """The array, written in place but never reassigned, so a node's
        shape and dtype stay those of the data it was made with."""
        return self._data

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> Optional[np.ndarray]:
        """The gradient backward left here; read-only (see the module notes)."""
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        self._node.grad = value  # only a tensor that requires grad has one

    @property
    def _backward_fn(self):
        return None if self._node is None else self._node.backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn) -> None:
        self._node.backward_fn = fn

    def zero_grad(self) -> None:
        if self._node is not None:
            self._node.grad = None

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Add this scalar's gradient to every reachable leaf's ``.grad``.

        Runs each op node's closure once, children before parents, and spends
        the graph: each node drops its gradient, closure and parents once its
        closure has run. Raises RuntimeError, before any gradient changes, if
        the graph reaches a node an earlier backward spent.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {list(self.shape)}"
            )
        _walk(self, np.ones_like(self.data))

    def __repr__(self):
        return f"Tensor(shape={list(self.shape)}, requires_grad={self.requires_grad})"


class ComputeTape:
    """Topologically ordered nodes of the differentiable ops behind a tensor.

    Leaves, which have no closure, are left out. Reverse iteration visits each
    node exactly once, children before parents. Raises RuntimeError if the
    graph reaches a node a backward has spent.
    """

    def __init__(self, root: Tensor):
        self.nodes: list[_Node] = []
        visited = set()
        stack = [] if root._node is None else [(root._node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                self.nodes.append(node)
                continue
            if node.backward_fn is None or id(node) in visited:
                continue
            if node.backward_fn is _spent:
                raise RuntimeError(
                    "backward through a graph an earlier backward spent; "
                    "run the forward again")
            visited.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                stack.append((parent, False))


def _walk(root: Tensor, grad: np.ndarray) -> None:
    """Hand root grad and run each op node's closure once, children before
    parents, spending the graph as it goes (see ``Tensor.backward``)."""
    if root._node is None:
        return
    tape = ComputeTape(root)
    _accumulate(root._node, grad)
    for node in reversed(tape.nodes):
        # Every node on the tape feeds the root, so its children have
        # handed it a gradient by now.
        node.backward_fn(node.grad)
        node.grad, node.backward_fn, node.parents = None, _spent, ()


class ShardSums:
    """The parameter-gradient sums of one step whose batch runs as shards.

    Each shard builds its own graph from a contiguous block of the batch and
    walks it with ``backward`` on its own thread. Every parameter gradient
    is a sum over the batch's rows, made by four kinds of closure, the
    sites: matmul's (``Xᵀ·G`` and its bias), layernorm's (gain and bias),
    add's broadcast (``pos``) and ``repeat_batch``'s (``cls``). In a
    shard's walk a site hands over its unreduced rows instead, once for all
    of its sums (``_batch_sum``), and the site's sums run once, on all
    shards' rows concatenated in batch order and in the memory order the
    shards' operands share, which is the whole batch's operand's. So every
    parameter gradient has the bits of the whole batch's backward wherever
    each row's own ops do (see ``trainer._shards``).

    The sums of a parameter run on the shard that handed over its rows
    first, in site order, once every shard has handed over: at that shard's
    next site, or after its walk, which waits for them. So no shard waits
    for another during its walk, and the sums fall on the shards that run
    ahead. A site's sums whose parameters share that shard, as a matmul's
    weight and bias do, run together on one concatenation of the rows.
    Shards walk the same graph shape, so they reach the sites in the same
    order. A shard whose walk raises stops the others at their next site or
    their wait. Any other route of a gradient into a parameter during a
    shard's walk raises: its sum would be the shard's own.
    """

    def __init__(self, shards: int):
        self.shards = shards
        self._cond = threading.Condition()
        self._sites = [0] * shards  # sites each shard has reached
        self._slots: dict = {}      # site -> [nodes, sums by owner, rows by shard]
        self._owner: dict = {}      # node -> shard that runs its sums
        self._ready = [[] for _ in range(shards)]  # owner's (sums, rows)
        self._owed = [0] * shards   # ready entries each owner has yet to run
        self._failed: Optional[BaseException] = None

    def backward(self, root: Tensor, grad: np.ndarray, index: int) -> None:
        """Walk shard ``index``'s graph from root's gradient ``grad`` on the
        calling thread, then run the sums it owns as they become ready."""
        _SHARD.sums, _SHARD.index = self, index
        try:
            _walk(root, grad)
            self._run_ready(index, wait=True)
        except BaseException as exc:
            with self._cond:
                if self._failed is None:
                    self._failed = exc
                self._cond.notify_all()
            raise
        finally:
            _SHARD.sums = None

    def _hand_over(self, index: int, sums: tuple, rows: tuple) -> None:
        """Hand over shard ``index``'s rows for a site's ``(node, total)``
        sums, each to take ``total`` of the whole batch's rows."""
        nodes = [node for node, _ in sums]
        with self._cond:
            self._check()
            site = self._sites[index]
            self._sites[index] += 1
            if site not in self._slots:
                owned: dict = {}  # owner -> its (node, total) sums
                for node, total in sums:
                    owner = self._owner.setdefault(node, index)
                    owned.setdefault(owner, []).append((node, total))
                for owner in owned:
                    self._owed[owner] += 1
                self._slots[site] = [nodes, owned, [None] * self.shards]
            slot_nodes, owned, parts = self._slots[site]
            if slot_nodes != nodes:
                raise RuntimeError("shards reached different parameter sums")
            parts[index] = rows
            if None not in parts:
                del self._slots[site]
                for owner, owner_sums in owned.items():
                    self._ready[owner].append((owner_sums, parts))
                self._cond.notify_all()
        self._run_ready(index, wait=False)

    def _run_ready(self, index: int, wait: bool) -> None:
        """Run this shard's ready sums; with ``wait``, until none is owed."""
        while True:
            with self._cond:
                while not self._ready[index]:
                    self._check()
                    if not wait or self._owed[index] == 0:
                        return
                    self._cond.wait()
                self._check()
                sums, parts = self._ready[index].pop(0)
                self._owed[index] -= 1
            # np.concatenate keeps the stride order its operands share.
            rows = [np.concatenate(shard_rows) for shard_rows in zip(*parts)]
            for node, total in sums:
                _add(node, total(*rows))

    def _check(self) -> None:
        if self._failed is not None:
            raise RuntimeError("another shard's backward failed") from self._failed


def _spent(g: np.ndarray) -> None:
    """The closure of a node whose backward has run (see the module notes)."""
    raise RuntimeError("backward through a spent graph node")


def _accumulate(node: Optional[_Node], g: np.ndarray) -> None:
    """Add g, summed down to node's shape if broadcast, to node's gradient.

    A node of None (an operand that needs no gradient) takes nothing. Leaf or
    not, a node keeps its first gradient by reference (cast to its dtype if
    need be) and never writes into it; a later one replaces it with a fresh
    sum, with the bits of copy-then-add.
    """
    if node is None:
        return
    if node.backward_fn is None and getattr(_SHARD, "sums", None) is not None:
        raise RuntimeError("a shard's backward passed a parameter a gradient "
                           "that is not a whole-batch sum")
    _add(node, g)


def _batch_sum(rows: tuple, *sums) -> None:
    """For each ``(node, total)`` of sums, accumulate ``total(*rows)``, a sum
    over the batch, the leading axis of every operand in ``rows``, into node.

    In a shard's backward the parameters among the nodes take theirs once
    for the whole batch instead (see ``ShardSums``), from one hand-over of
    the rows for all of them, so no operand may be written once handed here.
    """
    sums = [(node, total) for node, total in sums if node is not None]
    shard = getattr(_SHARD, "sums", None)
    if shard is not None:
        params = tuple(s for s in sums if s[0].backward_fn is None)
        if params:
            shard._hand_over(_SHARD.index, params, rows)
        sums = [s for s in sums if s[0].backward_fn is not None]
    for node, total in sums:
        _accumulate(node, total(*rows))


def _as_is(g: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    return g


def _add(node: _Node, g: np.ndarray) -> None:
    if g.shape != node.shape:
        g = _unbroadcast(g, node.shape)
    if node.grad is None:
        node.grad = np.asarray(g, dtype=node.dtype)
    else:
        # Same casting as an in-place add, into a fresh array.
        node.grad = np.add(node.grad, g, out=np.empty_like(node.grad))


def _make(data: np.ndarray, parents: Sequence[Optional[_Node]],
          backward: Callable[[np.ndarray], None],
          remake: Optional[_Remake] = None) -> Tensor:
    """Wrap an op's output; record a node when grad is on and a parent has one.

    A recorded output carries ``remake``, if one is given, and its node's
    closure drops the remade array before it runs ``backward``: by then every
    reader of the output has run.
    """
    out = Tensor(data)
    if _GRAD_ENABLED:
        parents = tuple(p for p in parents if p is not None)
        if parents:
            if remake is not None:
                backward = _dropping(remake, backward)
            out._node = _Node(out.data.shape, out.data.dtype, parents, backward)
            out._remake = remake
    return out


def _dropping(remake: _Remake, backward: Callable[[np.ndarray], None]):
    def run(g):
        remake.drop()
        backward(g)

    return run


def _kept(t: Tensor) -> Callable[[], np.ndarray]:
    """What a closure keeps to read t's data in backward: t's remake if the
    op that made it recorded one, else the array itself."""
    if t._remake is not None:
        return t._remake
    data = t.data
    return lambda: data


def _carry(op: Callable[..., np.ndarray], *operands: Tensor) -> Optional[_Remake]:
    """The remake of ``op(*operands)``'s output, or None.

    When the graph records and an operand carries a remake, the output carries
    one too: ``op`` again, on the operands' remakes and the other operands'
    arrays, which the op's closure keeps already.
    """
    if not _GRAD_ENABLED or all(t._remake is None for t in operands):
        return None
    kept = [_kept(t) for t in operands]
    return _Remake(lambda: op(*(read() for read in kept)))


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
    Backward keeps each operand only if the other's gradient is wanted (its
    remake, if it has one, in place of its data), and computes no gradient
    for an operand that needs none. If an operand carries a remake, so does
    the output: the same product and bias add, on that remake and the other
    operand's kept array, without a MAC report. So neither that other
    operand (a weight, say) nor ``bias`` may be written between the forward
    and its backward.
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
    flat = b.ndim == 2
    bias_data = None if bias is None else bias.data

    def product(ad, bd):
        if flat and ad.ndim > 2:
            # One large GEMM instead of a loop over the stacked leading dims.
            out = (ad.reshape(-1, k) @ bd).reshape(ad.shape[:-1] + (n,))
        else:
            out = np.matmul(ad, bd)
        if bias_data is not None:
            out += bias_data
        return out

    out = product(a.data, b.data)
    if _MAC_COUNTER is not None:
        batch = int(np.prod(out.shape[:-2], dtype=np.int64)) if out.ndim > 2 else 1
        _MAC_COUNTER.add(batch * a.shape[-2] * a.shape[-1] * b.shape[-1])
    na, nb = a._node, b._node
    nbias = None if bias is None else bias._node
    a_kept = None if nb is None else _kept(a)
    b_kept = None if na is None else _kept(b)
    remake = _carry(product, a, b)

    def backward(g):
        # The weight's sum first: a remade operand is then made before a's
        # gradient, not beside it.
        if flat and nb is not None:
            # One hand-over of g's rows for the weight and the bias.
            _batch_sum((g, a_kept().reshape(-1, k)),
                       (nb, _weight_sum), (nbias, _as_is))
        else:
            if nb is not None:
                _accumulate(nb, np.matmul(np.swapaxes(a_kept(), -1, -2), g))
            _batch_sum((g,), (nbias, _as_is))
        if na is not None:
            if flat:
                gb = (g.reshape(-1, n) @ b_kept().T).reshape(na.shape)
            else:
                gb = np.matmul(g, np.swapaxes(b_kept(), -1, -2))
            _accumulate(na, gb)

    return _make(out, (na, nb, nbias), backward, remake)


def _weight_sum(g: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """``a2ᵀ·g`` over the rows of the [rows, k] a2 and of g's last axis."""
    return a2.T @ g.reshape(-1, g.shape[-1])


def add(a: Tensor, b: Tensor) -> Tensor:
    na, nb = a._node, b._node

    def backward(g):
        _batch_sum((g,), (na, _as_is), (nb, _as_is))

    return _make(a.data + b.data, (na, nb), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd, na, nb = a.data, b.data, a._node, b._node

    def backward(g):
        _accumulate(na, g * bd)
        _accumulate(nb, g * ad)

    return _make(ad * bd, (na, nb), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    ad, bd, na, nb = a.data, b.data, a._node, b._node

    def backward(g):
        _accumulate(na, g / bd)
        _accumulate(nb, -g * ad / (bd * bd))

    return _make(ad / bd, (na, nb), backward)


def scale(t: Tensor, s: float) -> Tensor:
    s = float(s)
    node = t._node

    def op(d):
        return d * s

    remake = _carry(op, t)

    def backward(g):
        _accumulate(node, g * s)

    return _make(op(t.data), (node,), backward, remake)


def transpose(t: Tensor, axis0: int, axis1: int) -> Tensor:
    node = t._node

    def op(d):
        return np.swapaxes(d, axis0, axis1)

    remake = _carry(op, t)

    def backward(g):
        _accumulate(node, op(g))

    return _make(op(t.data), (node,), backward, remake)


def permute(t: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    node = t._node

    def op(d):
        return np.transpose(d, axes)

    remake = _carry(op, t)

    def backward(g):
        _accumulate(node, np.transpose(g, inverse))

    return _make(op(t.data), (node,), backward, remake)


def reshape(t: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    node = t._node

    def op(d):
        return d.reshape(shape)

    remake = _carry(op, t)

    def backward(g):
        _accumulate(node, g.reshape(node.shape))

    return _make(op(t.data), (node,), backward, remake)


def tensor_sum(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    node = t._node

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(node, np.broadcast_to(g, node.shape))

    return _make(t.data.sum(axis=axis, keepdims=keepdims), (node,), backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    nodes = [t._node for t in tensors]
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def backward(g):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(node, g[tuple(idx)])

    return _make(out, nodes, backward)


def repeat_batch(t: Tensor, batch: int) -> Tensor:
    """Repeat a leading singleton batch axis; gradient sums over the copies."""
    if t.shape[0] != 1:
        raise ValueError(f"repeat_batch needs leading axis 1, got {list(t.shape)}")
    node = t._node

    def backward(g):
        _batch_sum((g,), (node, _copies_sum))

    return _make(np.repeat(t.data, batch, axis=0), (node,), backward)


def _copies_sum(g: np.ndarray) -> np.ndarray:
    return g.sum(axis=0, keepdims=True)


def softmax(t: Tensor, axis: int) -> Tensor:
    """Numerically stabilized softmax along one axis."""
    if not -t.ndim <= axis < t.ndim:
        raise ValueError(f"softmax axis {axis} invalid for shape {list(t.shape)}")
    out = t.data - t.data.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    node = t._node

    def backward(g):
        # One reused temporary; attention scores make this the biggest
        # non-matmul tensor in the model.
        tmp = g * out
        inner = tmp.sum(axis=axis, keepdims=True)
        np.subtract(g, inner, out=tmp)
        tmp *= out
        _accumulate(node, tmp)

    return _make(out, (node,), backward)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    A recorded output carries a remake, ``xhat * gain + bias`` by the
    forward's own ops, so a matmul that reads it in backward keeps nothing
    that this closure does not keep already. Gain and bias must therefore
    not be written between the forward and its backward.
    """
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
    gain_data, bias_data = gain.data, bias.data
    nx, ngain, nbias = x._node, gain._node, bias._node

    def affine():
        out = xhat * gain_data
        out += bias_data
        return out

    def backward(g):
        # Two full-size buffers: tmp for products with xhat, gx for the
        # result. The gain's rows are a third, freed before either is made
        # unless a shard hands them over.
        lead = tuple(range(g.ndim - 1))

        def gain_sum(gxhat, g):
            return gxhat.sum(axis=lead)

        def bias_sum(gxhat, g):
            return g.sum(axis=lead)

        _batch_sum((g * xhat, g), (ngain, gain_sum), (nbias, bias_sum))
        gx = g * gain_data
        mean_gx = gx.mean(axis=-1, keepdims=True)
        tmp = gx * xhat
        np.multiply(xhat, tmp.mean(axis=-1, keepdims=True), out=tmp)
        gx -= mean_gx
        gx -= tmp
        gx *= inv
        _accumulate(nx, gx)

    return _make(affine(), (nx, ngain, nbias), backward, _Remake(affine))


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_BLOCK_BYTES = 128 << 10  # one row block of each GELU temporary fits L2


def _row_blocks(rows: int, width: int, itemsize: int):
    """Row slices of at most _GELU_BLOCK_BYTES each (at least one row), and
    the rows a block of scratch space needs."""
    step = max(1, _GELU_BLOCK_BYTES // max(1, width * itemsize))
    return [slice(lo, lo + step) for lo in range(0, rows, step)], min(step, rows)


def gelu(t: Tensor) -> Tensor:
    """GELU nonlinearity (tanh approximation).

    The forward computes the output alone. When the graph records, the
    closure keeps only the input array (not its remake: remaking it would
    run ``ffn.w1``'s GEMM again), and the output carries a remake, the same
    forward again, for a reader such as ``ffn.w2``'s weight sum. Backward
    rebuilds the local derivative block by block from the input and
    multiplies each block by the incoming gradient, so no full-size
    derivative is made. So the input must not be written between the
    forward and its backward.
    """
    shape, node = t.shape, t._node
    width = shape[-1] if shape else 1
    xr = t.data.reshape(t.data.size // width if width else 0, width)

    def forward():
        out = np.empty_like(xr)
        _gelu_rows(xr, out)
        return out.reshape(shape)

    def backward(g):
        gx = np.empty_like(xr)
        _gelu_rows(xr, gx, g.reshape(xr.shape))
        _accumulate(node, gx.reshape(shape))

    recording = _GRAD_ENABLED and node is not None
    return _make(forward(), (node,), backward,
                 _Remake(forward) if recording else None)


def _gelu_rows(x: np.ndarray, out: np.ndarray,
               g: Optional[np.ndarray] = None) -> None:
    """Write GELU of the [rows, width] array x into out or, given g, its
    local derivative times g (in out's dtype, as an in-place multiply).

    Walks row blocks whose temporaries stay in L2. Every element gets the
    same operations, so the bits do not depend on the blocking.
    """
    # Computed in place, operand order aside, as
    #   out   = 0.5 * x * (1 + tanh(C * (x + 0.044715 * x^3)))
    #   local = 0.5 * x * (1 - th^2) * C * (1 + 3 * 0.044715 * x^2)
    #           + 0.5 * (1 + th),  th = tanh(...)
    # with the same roundings.
    blocks, block_rows = _row_blocks(x.shape[0], x.shape[1], x.dtype.itemsize)
    x2, th, tmp = np.empty((3, block_rows, x.shape[1]), x.dtype)
    for rows in blocks:
        xb, ob = x[rows], out[rows]
        x2b, thb, tb = x2[:len(xb)], th[:len(xb)], tmp[:len(xb)]
        np.multiply(xb, xb, out=x2b)
        np.multiply(x2b, xb, out=thb)
        thb *= 0.044715
        thb += xb
        thb *= _GELU_C
        np.tanh(thb, out=thb)
        if g is None:
            np.multiply(xb, 0.5, out=ob)
            np.add(thb, 1.0, out=tb)
            ob *= tb
            continue
        np.multiply(xb, 0.5, out=tb)
        np.multiply(thb, thb, out=ob)
        np.subtract(1.0, ob, out=ob)
        ob *= tb
        x2b *= 3 * 0.044715
        x2b += 1.0
        x2b *= _GELU_C
        ob *= x2b
        thb += 1.0
        thb *= 0.5
        ob += thb
        ob *= g[rows]


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
    node = t._node

    def backward(g):
        acc = np.zeros(node.shape, node.dtype)
        acc[brange, idx] = g
        _accumulate(node, acc)

    return _make(t.data[brange, idx], (node,), backward)


def scatter_rows(base: Tensor, idx, rows: Tensor) -> Tensor:
    """Place rows into a copy of base at the given (distinct) indices.

    Gradients flow through the scattered rows; base rows that were
    overwritten receive no gradient. Index shapes mirror gather_rows, and
    ``rows`` is [B, k, D] for a [B, k] index: one row per index, never
    broadcast.
    """
    brange, idx = _batch_rows(base, idx)
    if rows.shape != idx.shape + base.shape[2:]:
        raise ValueError(
            f"rows {list(rows.shape)} do not fit index {list(idx.shape)} "
            f"into base {list(base.shape)}")
    out = base.data.copy()
    out[brange, idx] = rows.data
    nbase, nrows = base._node, rows._node

    def backward(g):
        gb = g.copy()
        gb[brange, idx] = 0.0
        _accumulate(nbase, gb)
        _accumulate(nrows, g[brange, idx])

    return _make(out, (nbase, nrows), backward)


def take(t: Tensor, idx, axis: int) -> Tensor:
    """Index one axis by a 1-d list of distinct positions."""
    idx = _row_index(idx, t.shape[axis])
    if idx.ndim != 1:
        raise ValueError(f"take needs a 1-d index, got shape {list(idx.shape)}")
    node = t._node

    def backward(g):
        acc = np.zeros(node.shape, node.dtype)
        np.moveaxis(acc, axis, 0)[idx] = np.moveaxis(g, axis, 0)
        _accumulate(node, acc)

    return _make(np.take(t.data, idx, axis=axis), (node,), backward)


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
    node = logits._node

    def backward(g):
        probs = np.exp(z - zmax)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(b), labels] -= 1.0
        _accumulate(node, g * probs / b)

    return _make(out, (node,), backward)
