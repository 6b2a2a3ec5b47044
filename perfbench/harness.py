"""Workloads, timed loops, output checks and metrics of the tokenskip benchmark.

Everything here drives the package through its public API: ``config.build``
from key=value items, ``data.load_dataset``, ``ViT``, ``trainer.train`` /
``trainer.evaluate``, ``checkpoint.save`` / ``load`` and ``flops``. Each
workload is a closed loop with one client: a step starts when the previous
one ends. The untraced run installs only a step-completion timestamp; the
traced run (``tracer.Tracer``) wraps the package from outside.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tokenskip import checkpoint, config, data, flops, optim, tensor, trainer
from tokenskip.data import Split
from tokenskip.vit import ViT

from tracer import KINDS, Tracer, setup_totals, step_rows

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_FILE = BENCH_DIR / "reference.json"

now = time.perf_counter_ns

BATCH = 64
WARMUP_STEPS = 3
SETUP_PROBES = 3          # fresh processes timed for setup_s (median reported)
REFERENCE_SEED = 0
REFERENCE_STEPS = 3
LOOP_BLOCK = 15           # steps per trainer.train call in the untraced run
PAIRED_BLOCK = {"train": 5, "eval": 10}   # steps per arm block, traced run

WORKLOADS = {
    # Mechanism off: tokendrop does no work.
    "train-dense": ("train", {"schedule.mode": "none"}),
    # The paper's headline schedule: drop 55% after block 3's attention,
    # reinsert in front of block 5.
    "train-skip": ("train", {"schedule.mode": "skip", "schedule.drop_layers": "3",
                             "schedule.drop_ratios": "0.55",
                             "schedule.skip_target": "5"}),
    # Forward only, under no_grad, from a checkpoint round trip.
    "eval-fuse": ("eval", {"schedule.mode": "fuse", "schedule.drop_layers": "3",
                           "schedule.drop_ratios": "0.45"}),
}

# The tiny preset has depth 2, too shallow for a layer-3 drop.
PRESETS = {"desk": {"model.preset": "desk"},
           "tiny": {"model.preset": "tiny", "model.depth": "6"}}


def config_items(workload: str, seed: int, preset: str) -> dict:
    return {**PRESETS[preset], "train.batch_size": str(BATCH),
            "train.epochs": "1000", **WORKLOADS[workload][1], "seed": str(seed)}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- environment -------------------------------------------------------------

def _blas_threads():
    """Threads OpenBLAS will use, asked of the loaded library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model()}


# -- set-up ------------------------------------------------------------------

@dataclass
class Setup:
    workload: str
    kind: str
    preset: str
    cfg: config.ExperimentConfig
    model: ViT
    train_split: Split
    batches: list            # eval: 64-sample splits cycled by the loop
    roundtrip_exact: bool | None


def _bit_exact(a: ViT, b: ViT) -> bool:
    if a.config != b.config or list(a.params) != list(b.params):
        return False
    return all(p.data.dtype == b.params[n].data.dtype
               and p.data.shape == b.params[n].data.shape
               and p.data.tobytes() == b.params[n].data.tobytes()
               for n, p in a.params.items())


def _load_data(cfg, **sizes):
    return data.load_dataset(
        cfg.dataset.source, cfg.dataset.root, seed=cfg.seed,
        synthetic_n=sizes.get("train_n", cfg.dataset.train_n),
        synthetic_val_n=sizes.get("val_n", cfg.dataset.val_n),
        classes=cfg.model.num_classes, image_size=cfg.model.image_size)


def setup(workload: str, seed: int, preset: str) -> Setup:
    """Config, data, model (or checkpoint round trip) and warm-up steps."""
    kind = WORKLOADS[workload][0]
    cfg = config.build(config_items(workload, seed, preset))
    train_split, val_split = _load_data(cfg)
    model = ViT(cfg.model, seed=cfg.seed)
    exact = None
    batches = []
    if kind == "eval":
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{workload}-{os.getpid()}.ckpt"
        try:
            checkpoint.save(model, path)
            loaded = checkpoint.load(path)
        finally:
            path.unlink(missing_ok=True)
        exact = _bit_exact(model, loaded)
        model = loaded
        batches = [Split(val_split.images[i:i + BATCH], val_split.labels[i:i + BATCH])
                   for i in range(0, len(val_split) - BATCH + 1, BATCH)]
        for b in batches[:WARMUP_STEPS]:
            trainer.evaluate(model, b, cfg.schedule, batch_size=BATCH)
    else:
        trainer.train(model, cfg.schedule, cfg.train, train_split,
                      max_steps=WARMUP_STEPS)
    return Setup(workload, kind, preset, cfg, model, train_split, batches, exact)


def probe_setup(workload: str, seed: int, preset: str) -> int:
    """Set up in this fresh process, then print the time the loop could start."""
    setup(workload, seed, preset)
    print(f"ready {now()}", flush=True)
    return 0


def measure_setup_s(workload: str, seed: int, preset: str) -> list:
    """Process start to first timed step, in fresh processes (CLOCK_MONOTONIC)."""
    run_py = str(BENCH_DIR / "run.py")
    times = []
    for _ in range(SETUP_PROBES):
        start = now()
        proc = subprocess.run(
            [sys.executable, run_py, "--workload", workload, "--seed", str(seed),
             "--preset", preset, "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        ready = int(proc.stdout.split()[-1])
        times.append((ready - start) / 1e9)
    return times


# -- timed loops -------------------------------------------------------------

@contextmanager
def step_hook(boundary):
    """Call ``boundary()`` after every optimizer step (train workloads)."""
    original = vars(optim.AdamW)["step"]

    def step(self, *args, **kwargs):
        original(self, *args, **kwargs)
        boundary()

    optim.AdamW.step = step
    try:
        yield
    finally:
        optim.AdamW.step = original


@dataclass
class Block:
    steps: int = 0
    bad: int = 0             # non-finite losses / out-of-range accuracies
    epochs: tuple = ()       # train: EpochRecords, for the token-count check


def run_steps(s: Setup, schedule, steps: int, boundary, start: int = 0) -> Block:
    """Run ``steps`` closed-loop steps, calling ``boundary()`` as each ends."""
    if s.kind == "train":
        with step_hook(boundary):
            m = trainer.train(s.model, schedule, s.cfg.train, s.train_split,
                              max_steps=steps)
        bad = sum(not math.isfinite(x) for x in m.step_losses)
        return Block(len(m.step_losses), bad, tuple(m.epochs))
    bad = 0
    for i in range(start, start + steps):
        top1 = trainer.evaluate(s.model, s.batches[i % len(s.batches)], schedule,
                                batch_size=BATCH)
        boundary()
        bad += not (math.isfinite(top1) and 0.0 <= top1 <= 100.0)
    return Block(steps, bad)


def tail_percentile(samples) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    It moves smoothly with the sample count, so runs of slightly different
    length report comparable tails.
    """
    p = max(50.0, 100.0 * (1.0 - 10.0 / len(samples)))
    return p, float(np.percentile(samples, p))


def _block(s: Setup, schedule, size: int, offset: int, tracer):
    """One block of steps; returns it and its intervals between completions."""
    if tracer is None:
        stamps = [now()]
        b = run_steps(s, schedule, size, lambda: stamps.append(now()), offset)
        return b, list(np.diff(stamps)[1:] / 1e6)
    with tracer.installed():
        tracer.begin_step(first_in_block=True)
        first = len(tracer.steps)
        b = run_steps(s, schedule, size, tracer.next_step, offset)
        tracer.end_block()
    return b, [(end - start) / 1e6 for _, start, end, f in tracer.steps[first:]
               if not f]


def timed_loop(s: Setup, seconds: float, seed: int, tracer: Tracer | None = None):
    """The closed loop, in blocks of steps until ``seconds`` have passed.

    Untraced, it is one arm of long blocks. Traced, it pairs short blocks of
    traced, untraced and (for a drop schedule) dense steps, in a seeded random
    order each round so that drift hits every arm alike; per-round ratios of
    block medians then give the trace overhead and the measured saving.
    The first interval of a block starts at the trainer's entry, not at a
    step completion, and is left out.
    """
    schedules = {"untraced": s.cfg.schedule}
    size = LOOP_BLOCK
    if tracer is not None:
        schedules["traced"] = s.cfg.schedule
        if s.cfg.schedule.mode != "none":
            dense = config.build(config_items("train-dense", seed, s.preset))
            schedules["dense"] = dense.schedule
        size = PAIRED_BLOCK[s.kind]
    arms = list(schedules)
    rng = np.random.default_rng(seed)
    intervals = {arm: [] for arm in arms}
    rounds = []
    total = Block()
    start = now()
    deadline = start + seconds * 1e9
    while now() < deadline or not rounds:
        medians = {}
        for i in rng.permutation(len(arms)):
            arm = arms[i]
            b, ms = _block(s, schedules[arm], size, total.steps,
                           tracer if arm == "traced" else None)
            intervals[arm] += ms
            medians[arm] = statistics.median(ms)
            total.steps += b.steps
            total.bad += b.bad
            if arm != "dense":
                total.epochs += b.epochs
        rounds.append(medians)
    return intervals, rounds, total, (now() - start) / 1e9


def end_to_end(intervals: list, steps: int, elapsed_s: float) -> dict:
    p, tail = tail_percentile(intervals)
    return {"samples_per_s": BATCH * steps / elapsed_s,
            "step_ms_p50": float(np.median(intervals)),
            "step_ms_tail": tail, "tail_percentile": p,
            "step_samples": len(intervals)}


# -- checks ------------------------------------------------------------------

def expected_tokens(cfg):
    """attn_tokens and kept_patches as ``flops.token_counts`` predicts them."""
    counts = flops.token_counts(cfg.model, cfg.schedule)
    attn = [a for a, _, _ in counts]
    kept = {}
    if cfg.schedule.mode != "none":
        for layer, _ in cfg.schedule.stages:
            _, ffn_n, fused = counts[layer]
            kept[layer] = ffn_n - 1 - (1 if fused else 0)  # minus CLS, fused token
    return attn, kept


def reference_losses(workload: str, preset: str) -> list:
    """Losses of a fixed-seed model and data, independent of --seed."""
    cfg = config.build(config_items(workload, REFERENCE_SEED, preset))
    train_split, val_split = _load_data(cfg, train_n=REFERENCE_STEPS * BATCH,
                                        val_n=BATCH)
    model = ViT(cfg.model, seed=cfg.seed)
    if WORKLOADS[workload][0] == "train":
        m = trainer.train(model, cfg.schedule, cfg.train, train_split,
                          max_steps=REFERENCE_STEPS)
        return m.step_losses
    with tensor.no_grad():
        logits, _ = model.forward(val_split.images, cfg.schedule, epoch=10 ** 9)
        return [tensor.cross_entropy(logits, val_split.labels).item()]


def run_checks(s: Setup, epochs: list) -> dict:
    """Output checks outside the timed window: name -> (ok, detail)."""
    cfg = s.cfg
    want_attn, want_kept = expected_tokens(cfg)
    results = {}

    def check(name, fn):
        try:
            results[name] = fn()
        except Exception as exc:  # a check that raises has failed
            results[name] = (False, f"{type(exc).__name__}: {exc}")

    def macs():
        expected = flops.estimate_flops(cfg.model, cfg.schedule).schedule_total * BATCH
        with flops.count_macs() as counter:
            if s.kind == "train":
                m = trainer.train(s.model, cfg.schedule, cfg.train, s.train_split,
                                  max_steps=1)
                epochs.extend(m.epochs)
            else:
                trainer.evaluate(s.model, s.batches[0], cfg.schedule,
                                 batch_size=BATCH)
        return counter.total == expected, f"counted {counter.total}, model {expected}"

    def tokens():
        if s.kind == "train":
            seen = [(list(e.attn_tokens), dict(e.kept_patches)) for e in epochs]
        else:
            with tensor.no_grad():
                _, diag = s.model.forward(s.batches[0].images, cfg.schedule,
                                          epoch=10 ** 9)
            seen = [(list(diag.attn_tokens), dict(diag.kept_patches))]
        bad = [x for x in seen if x != (want_attn, want_kept)]
        return (bool(seen) and not bad,
                f"{len(seen) - len(bad)}/{len(seen)} match {want_attn} {want_kept}")

    def ref():
        refs = json.loads(REFERENCE_FILE.read_text())
        want = refs[s.preset][s.workload]
        got = reference_losses(s.workload, s.preset)
        tol = refs["tolerance"]
        ok = len(got) == len(want) and all(abs(g - w) <= tol
                                           for g, w in zip(got, want))
        return ok, f"losses {[round(g, 6) for g in got]}, reference {want} ±{tol}"

    check("macs", macs)
    check("token_counts", tokens)
    check("reference_loss", ref)
    if s.kind == "eval":
        results["checkpoint_roundtrip"] = (bool(s.roundtrip_exact), "bit-exact"
                                           if s.roundtrip_exact else "differs")
    return results


# -- metrics -----------------------------------------------------------------

def layer_metrics(s: Setup, tracer: Tracer, rounds) -> tuple[dict, list]:
    """Per-layer metrics: per-step medians of the traced steps, plus ratios."""
    rows = step_rows(tracer)
    names = set().union(*rows) if rows else set()
    med = {n: statistics.median(r.get(n, 0.0) for r in rows) for n in names}
    setup_ms = setup_totals(tracer)
    cost = flops.estimate_flops(s.cfg.model, s.cfg.schedule)
    out = dict(med)
    for layer in cost.layers:
        for sub, macs in (("attn", layer.attention_macs), ("ffn", layer.ffn_macs)):
            key = f"vit.L{layer.layer}.{sub}"
            out[f"{key}.macs"] = macs * BATCH
            busy = med.get(f"{key}.fwd_ms", 0.0) + med.get(f"{key}.bwd_ms", 0.0)
            out[f"{key}.ms_per_mmac"] = busy / (macs * BATCH / 1e6)
    out.update(setup_ms)
    ratio = lambda a, b: statistics.median(r[a] / r[b] for r in rounds)
    out["trace.overhead_frac"] = 1.0 - ratio("untraced", "traced")
    predicted = cost.saving_fraction
    out["flops.predicted_saving"] = predicted
    if "dense" in rounds[0]:
        measured = 1.0 - ratio("untraced", "dense")
        out["flops.measured_saving"] = measured
        out["flops.saving_realized"] = measured / predicted
    else:  # the dense workload is its own baseline: nothing to save
        out["flops.measured_saving"] = 0.0
        out["flops.saving_realized"] = 0.0
    return out, rows


def _table(rows, header) -> str:
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    fmt = lambda r: "  ".join(str(c).rjust(w) if i else str(c).ljust(w)
                              for i, (c, w) in enumerate(zip(r, widths)))
    return "\n".join([fmt(header), fmt(["-" * w for w in widths])]
                     + [fmt(r) for r in rows])


def layer_table(s: Setup, m: dict) -> str:
    """(layer, sublayer) rows: tokens, analytic MACs, fwd/bwd ms, ms per MMAC."""
    cost = flops.estimate_flops(s.cfg.model, s.cfg.schedule)
    get = lambda k: m.get(k, 0.0)
    rows = []

    def row(label, tokens, macs, fwd, bwd):
        per = f"{(fwd + bwd) / (macs / 1e6):.4f}" if macs else "-"
        rows.append([label, tokens, f"{macs / 1e6:.1f}" if macs else "-",
                     f"{fwd:.2f}", f"{bwd:.2f}", per])

    row("vit.patchify", s.cfg.model.num_patches, cost.patch_embed_macs * BATCH,
        get("vit.patchify.fwd_ms"), get("vit.patchify.bwd_ms"))
    for layer in cost.layers:
        for sub, macs in (("attn", layer.attention_macs), ("ffn", layer.ffn_macs)):
            k = f"vit.L{layer.layer}.{sub}"
            row(k, int(get(k + ".tokens")), macs * BATCH, get(k + ".fwd_ms"),
                get(k + ".bwd_ms"))
    fuse_macs = sum(l.extra_macs for l in cost.layers) * BATCH
    for fn in ("cls_importance", "select_topk", "split", "reinsert", "fuse_into"):
        row(f"tokendrop.{fn}", "-", fuse_macs if fn == "fuse_into" else 0,
            get(f"tokendrop.{fn}_ms"), 0.0)
    row("tokendrop (backward)", "-", 0, 0.0, get("tokendrop.bwd_ms"))
    row("vit.classify", 1, cost.head_macs * BATCH, get("vit.classify.fwd_ms"),
        get("vit.classify.bwd_ms"))
    row("trainer.loss", "-", 0, get("trainer.loss_ms"),
        get("trainer.train.bwd_ms"))
    row("optim.zero_grad", "-", 0, get("optim.zero_grad_ms"), 0.0)
    row("optim.step", "-", 0, get("optim.step_ms"), 0.0)
    row("trainer.between_steps", "-", 0, get("trainer.between_steps_ms"), 0.0)
    lines = [_table(rows, ["layer.sublayer", "tokens", "MMAC/step", "fwd ms",
                           "bwd ms", "ms/MMAC"])]
    kinds = [[k, f"{get(f'tensor.{k}.fwd_ms'):.2f}", f"{get(f'tensor.{k}.bwd_ms'):.2f}",
              f"{get(f'tensor.{k}.bytes') / 1e6:.1f}"] for k in KINDS]
    lines.append(_table(kinds, ["tensor op kind", "fwd ms", "bwd ms",
                                "MB (computed)"]))
    lines.append(
        f"step {get('step_ms'):.2f} ms (traced median); backward {get('tensor.backward_ms'):.2f} ms"
        f" over {int(get('tensor.tape_nodes'))} tape nodes; "
        f"uncovered share of step time {get('trace.uncovered_frac'):.3f}; "
        f"tokendrop kept {get('tokendrop.kept_frac'):.3f}")
    lines.append(
        f"MAC saving: predicted {get('flops.predicted_saving'):.4f}, measured "
        f"{get('flops.measured_saving'):.4f} (paired untraced blocks vs dense), "
        f"realized {get('flops.saving_realized'):.3f}; trace overhead "
        f"{get('trace.overhead_frac'):.3f}")
    return "\n".join(lines)


# -- one run -----------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: int,
        preset: str = "desk") -> dict:
    """One benchmark run; returns the result record (see ``report``)."""
    spec = load_spec()
    tracer = Tracer() if trace else None
    setup_times = []
    if not trace:
        setup_times = measure_setup_s(workload, seed, preset)
    if tracer is not None:
        with tracer.installed():
            s = setup(workload, seed, preset)
    else:
        s = setup(workload, seed, preset)

    intervals, rounds, block, elapsed = timed_loop(s, seconds, seed, tracer)
    epochs = list(block.epochs)
    checks = run_checks(s, epochs)

    failed = block.bad + sum(not ok for ok, _ in checks.values())
    attempted = block.steps + len(checks)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "preset": preset, "environment": fingerprint(),
              "checks": {k: {"ok": ok, "detail": d} for k, (ok, d) in checks.items()},
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted}
    if trace:
        values, rows = layer_metrics(s, tracer, rounds)
        record["table"] = layer_table(s, values)
        record["rounds"] = rounds
        record["traced_steps"] = len(rows)
        wanted = spec["per_layer"]
    else:
        figures = end_to_end(intervals["untraced"], block.steps, elapsed)
        values = dict(figures)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["setup_s"] = statistics.median(setup_times)
        record["setup_s_samples"] = setup_times
        record["tail_percentile"] = figures["tail_percentile"]
        record["step_samples"] = figures["step_samples"]
        wanted = spec["end_to_end"]
    record["metrics"] = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                                     "unit": m["unit"]} for m in wanted}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}_{preset}_seed{seed}_trace{trace}"
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"{stem}_spans.jsonl")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> str:
    """Human-readable lines printed ahead of the result line."""
    env = record["environment"]
    lines = [f"workload {record['workload']} seed {record['seed']} trace "
             f"{record['trace']} preset {record['preset']}",
             "environment: " + ", ".join(f"{k}={v}" for k, v in env.items())]
    if "table" in record:
        lines.append(record["table"])
    for name, m in record["metrics"].items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "tail_percentile" in record:
        lines.append(f"  step_ms_tail is p{record['tail_percentile']:.2f} of "
                     f"{record['step_samples']} step intervals")
    lines.append(f"  failed_frac = {record['failed_frac']:.6g} "
                 f"({record['failed']} of {record['attempted']} steps and checks)")
    for name, c in record["checks"].items():
        lines.append(f"  check {name}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    return "\n".join(lines)


def result_line(record: dict) -> str:
    return json.dumps({"correct": record["failed"] == 0,
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": record["metrics"]})
