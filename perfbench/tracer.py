"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the tokenskip layers from outside the
package, so the package itself carries no tracing code. Each wrapped call
records a span: name, start, end, parent span, step id, and the
(layer, sublayer) it ran in. Tensor ops inherit the (layer, sublayer) of the
span that called them, record their operand bytes (computed from array
sizes, not measured), and have their backward closures wrapped, so backward
time is attributed to the (layer, sublayer) of the op that recorded it.

Spans stay in memory until ``write_spans``; ``uninstall`` puts back every
attribute ``install`` replaced.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from tokenskip import (checkpoint, config, data, optim, tensor, tokendrop,
                       trainer, vit)

now = time.perf_counter_ns

# Span record fields (spans are lists, appended in start order).
NAME, START, END, PARENT, STEP, LAYER, SUBLAYER, KIND = range(8)
SETUP_STEP = -1
_PARTIAL_STEP = -2  # spans after the last step boundary of a block

KINDS = ("matmul", "attn_matmul", "softmax", "layernorm", "gelu", "add",
         "view", "gather_scatter", "other")


def _matmul_kind(a, b, *_):
    if b.ndim == 2:
        return "matmul"          # token rows times a weight matrix
    return "attn_matmul" if a.ndim == 4 else "other"


# Wrapped tensor op -> op kind (a callable picks the kind from the operands).
TENSOR_OPS = {
    "matmul": _matmul_kind, "add": "add", "softmax": "softmax",
    "layernorm": "layernorm", "gelu": "gelu",
    "reshape": "view", "transpose": "view", "permute": "view",
    "gather_rows": "gather_scatter", "scatter_rows": "gather_scatter",
    "take": "gather_scatter",
    "mul": "other", "div": "other", "scale": "other", "tensor_sum": "other",
    "concat": "other", "repeat_batch": "other", "cross_entropy": "other",
}

TOKENDROP_FUNCTIONS = ("cls_importance", "select_topk", "split", "reinsert",
                       "fuse_into")


def _nbytes(args) -> int:
    total = 0
    for a in args:
        if isinstance(a, tensor.Tensor):
            total += a.data.nbytes
        elif isinstance(a, np.ndarray):
            total += a.nbytes
        elif isinstance(a, (list, tuple)):
            total += _nbytes(a)
    return total


class Tracer:
    """Records spans and per-step counts while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = defaultdict(lambda: defaultdict(float))  # step -> name -> n
        self.steps: list[tuple] = []   # (step id, start ns, end ns, first in block)
        self.step = SETUP_STEP
        self._stack: list[int] = []
        self._step_start = 0
        self._first = False
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name, layer=None, sublayer=None, kind=None) -> list:
        parent = self._stack[-1] if self._stack else -1
        if layer is None and parent >= 0:
            layer, sublayer = self.spans[parent][LAYER], self.spans[parent][SUBLAYER]
        span = [name, now(), 0, parent, self.step, layer, sublayer, kind]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self) -> None:
        self.spans[self._stack.pop()][END] = now()

    def count(self, name: str, value) -> None:
        self.counts[self.step][name] += value

    # -- steps ---------------------------------------------------------------

    def begin_step(self, first_in_block: bool = False) -> None:
        """Open a step; the first step of a block also pays the block's entry."""
        self.step = len(self.steps)
        self._step_start = now()
        self._first = first_in_block

    def next_step(self) -> None:
        """Step boundary: close the current step and open the next one."""
        end = now()
        self.steps.append((self.step, self._step_start, end, self._first))
        self.step = len(self.steps)
        self._step_start = end
        self._first = False

    def end_block(self) -> None:
        """Leave the trailing, unfinished step out of every step statistic."""
        self.step = _PARTIAL_STEP

    # -- wrapping ------------------------------------------------------------

    def _call(self, name, layer, sublayer, after=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self._open(name, layer, sublayer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close()
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return make

    def _block(self, sublayer):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(model, tokens, layer, *rest, **kwargs):
                name = f"L{layer}"
                self.count(f"vit.{name}.{sublayer}.tokens", tokens.num_tokens)
                self._open(f"vit.{name}.{sublayer}", name, sublayer)
                try:
                    return fn(model, tokens, layer, *rest, **kwargs)
                finally:
                    self._close()
            return wrapper
        return make

    def _tensor_op(self, op, kind):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                k = kind(*args) if callable(kind) else kind
                span = self._open("tensor." + op, kind=k)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._close()
                self.count(f"tensor.{k}.bytes", _nbytes(args) + out.data.nbytes)
                if out._backward_fn is not None:
                    out._backward_fn = self._timed_backward(
                        out._backward_fn, op, span[LAYER], span[SUBLAYER], k)
                return out
            return wrapper
        return make

    def _timed_backward(self, backward, op, layer, sublayer, kind):
        name = f"tensor.{op}.bwd"

        def timed(g):
            self._open(name, layer, sublayer, kind)
            try:
                backward(g)
            finally:
                self._close()
        return timed

    def _tape(self, cls):
        def make_tape(root):
            tape = cls(root)
            self.count("tensor.tape_nodes", len(tape.nodes))
            return tape
        return make_tape

    def _targets(self):
        def saved_bytes(args, _):
            self.count("checkpoint.bytes", os.path.getsize(args[1]))

        def optim_bytes(args, _):
            # Read param, grad, m, v; write param, m, v.
            params = args[0].params.values()
            self.count("optim.bytes", 7 * sum(p.data.nbytes for p in params))

        def kept(args, result):
            keep_pos, drop_pos = result
            self.count("tokendrop.kept", keep_pos.shape[1])
            self.count("tokendrop.live", keep_pos.shape[1] + drop_pos.shape[1])

        c = self._call
        targets = [
            (config, "build", c("config.build", "config", "build")),
            (data, "load_dataset", c("data.load_dataset", "data", "load_dataset")),
            (checkpoint, "save", c("checkpoint.save", "checkpoint", "save",
                                   saved_bytes)),
            (checkpoint, "load", c("checkpoint.load", "checkpoint", "load")),
            (trainer, "train", c("trainer.train", "trainer", "train")),
            (trainer, "evaluate", c("trainer.evaluate", "trainer", "evaluate")),
            (optim.AdamW, "step", c("optim.step", "optim", "step", optim_bytes)),
            (optim.AdamW, "zero_grad", c("optim.zero_grad", "optim", "zero_grad")),
            (vit.ViT, "forward", c("vit.forward", "vit", "forward")),
            (vit.ViT, "patchify", c("vit.patchify", "vit", "patchify")),
            (vit.ViT, "attention_block", self._block("attn")),
            (vit.ViT, "ffn_block", self._block("ffn")),
            (vit.ViT, "classify", c("vit.classify", "vit", "classify")),
            (tensor.Tensor, "backward", c("tensor.backward", "tensor", "backward")),
            (tensor, "ComputeTape", self._tape),
        ]
        for fn in TOKENDROP_FUNCTIONS:
            after = kept if fn == "select_topk" else None
            targets.append((tokendrop, fn, c("tokendrop." + fn, "tokendrop", fn,
                                             after)))
        for op, kind in TENSOR_OPS.items():
            targets.append((tensor, op, self._tensor_op(op, kind)))
        return targets

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, make in self._targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output --------------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Span duration minus the duration of its direct children."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def write_spans(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "step", "layer",
                "sublayer", "kind")
        selfs = self.self_times_ns()
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                row = dict(zip(keys, span), id=i, self_ns=selfs[i])
                fh.write(json.dumps(row) + "\n")


def _fwd_metric(span) -> str | None:
    """Per-layer metric a step's non-tensor-op span adds its duration to."""
    name = span[NAME]
    if name.startswith("vit."):
        return name + ".fwd_ms"
    if name == "tensor.backward":
        return "tensor.backward_ms"
    if name.startswith(("tokendrop.", "optim.")):
        return name + "_ms"
    return None


def _bwd_metric(layer, sublayer) -> str:
    if layer == "tokendrop":
        return "tokendrop.bwd_ms"
    if layer and layer.startswith("L"):
        return f"vit.{layer}.{sublayer}.bwd_ms"
    return f"{layer}.{sublayer}.bwd_ms"


def step_rows(tracer: Tracer) -> list[dict]:
    """Per-step sums of span times (ms) and counts, one row per measured step.

    The first step of each block is left out: its interval starts at the
    block's entry into the trainer, not at a step completion.
    """
    measured = {sid: (start, end) for sid, start, end, first in tracer.steps
                if not first}
    rows = {sid: defaultdict(float) for sid in measured}
    covered = defaultdict(int)
    first_forward = {}
    for span in tracer.spans:
        row = rows.get(span[STEP])
        if row is None:
            continue
        sid = span[STEP]
        dur = span[END] - span[START]
        ms = dur / 1e6
        kind = span[KIND]
        if kind is not None:
            if span[NAME].endswith(".bwd"):
                row[f"tensor.{kind}.bwd_ms"] += ms
                row[_bwd_metric(span[LAYER], span[SUBLAYER])] += ms
            else:
                row[f"tensor.{kind}.fwd_ms"] += ms
                if span[NAME] == "tensor.cross_entropy":
                    row["trainer.loss_ms"] += ms
        else:
            metric = _fwd_metric(span)
            if metric is not None:
                row[metric] += ms
            if span[NAME] == "vit.forward" and sid not in first_forward:
                first_forward[sid] = span[START]
        parent = span[PARENT]
        if parent >= 0 and tracer.spans[parent][NAME].startswith("trainer."):
            covered[sid] += dur
    out = []
    for sid, (start, end) in measured.items():
        row = rows[sid]
        for name, value in tracer.counts.get(sid, {}).items():
            row[name] += value
        row["step_ms"] = (end - start) / 1e6
        row["trace.uncovered_frac"] = 1.0 - covered[sid] / (end - start)
        if sid in first_forward:
            row["trainer.between_steps_ms"] = (first_forward[sid] - start) / 1e6
        live = row.pop("tokendrop.live", 0.0)
        kept = row.pop("tokendrop.kept", 0.0)
        row["tokendrop.kept_frac"] = kept / live if live else 1.0
        out.append(row)
    return out


def setup_totals(tracer: Tracer) -> dict:
    """Set-up time (ms) of the layers that only set-up calls, and their counts."""
    layers = ("config.", "data.", "checkpoint.")
    totals = defaultdict(float)
    for span in tracer.spans:
        if span[STEP] == SETUP_STEP and span[NAME].startswith(layers):
            totals[span[NAME] + "_ms"] += (span[END] - span[START]) / 1e6
    for name, value in tracer.counts.get(SETUP_STEP, {}).items():
        if name.startswith(layers):
            totals[name] += value
    return totals
