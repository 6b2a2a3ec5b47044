"""Tests of the benchmark itself, on the tiny preset with sub-second loops."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run
import tracer as tr
from tokenskip import (checkpoint, config, data, flops, optim, tensor,
                       tokendrop, trainer, vit)

RUN = Path(__file__).resolve().parent / "run.py"
PATCHABLE = (checkpoint, config, data, flops, optim, tensor, tokendrop, trainer,
             vit, optim.AdamW, tensor.Tensor, vit.ViT)


def _snapshot():
    return {(owner, key): value for owner in PATCHABLE
            for key, value in vars(owner).items()}


def _traced(workload, seed=1):
    s = harness.setup(workload, seed, "tiny")
    t = tr.Tracer()
    _, rounds, block, _ = harness.timed_loop(s, 0.3, seed, t)
    return s, t, rounds, block


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_tiny_smoke_run(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", "0", "--preset", "tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in harness.load_spec()["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_restores_every_wrapped_function():
    before = _snapshot()
    _traced("train-skip")
    _traced("eval-fuse")
    t = tr.Tracer()
    with pytest.raises(RuntimeError):
        with t.installed():
            assert trainer.train is not before[trainer, "train"]
            raise RuntimeError("interrupted traced run")
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


@pytest.mark.parametrize("workload", ["train-skip", "eval-fuse"])
def test_spans_nest_and_self_times_are_non_negative(workload):
    _, t, _, _ = _traced(workload)
    spans = t.spans
    assert spans and all(s[tr.END] >= s[tr.START] for s in spans)
    assert min(t.self_times_ns()) >= 0
    for span in spans:
        if span[tr.PARENT] >= 0:
            parent = spans[span[tr.PARENT]]
            assert parent[tr.START] <= span[tr.START] <= span[tr.END] <= parent[tr.END]
    backward = [s for s in spans if s[tr.NAME].endswith(".bwd")]
    if workload == "eval-fuse":
        assert backward == []
    else:
        assert backward and all(s[tr.LAYER] is not None for s in backward)
        assert all(spans[s[tr.PARENT]][tr.NAME] == "tensor.backward"
                   for s in backward)


def test_tokendrop_time_is_zero_without_dropping():
    per_layer = [m["name"] for m in harness.load_spec()["per_layer"]]
    drop_ms = [n for n in per_layer if n.startswith("tokendrop.") and n.endswith("_ms")]
    readings = {}
    for workload in ("train-dense", "train-skip"):
        s, t, rounds, _ = _traced(workload)
        values, rows = harness.layer_metrics(s, t, rounds)
        assert rows
        readings[workload] = {n: values.get(n, 0.0) for n in drop_ms}
    assert all(v == 0.0 for v in readings["train-dense"].values())
    skip = readings["train-skip"]
    assert all(skip[f"tokendrop.{fn}_ms"] > 0
               for fn in ("cls_importance", "select_topk", "split", "reinsert"))
    assert skip["tokendrop.bwd_ms"] > 0


def test_corrupted_reference_fails_the_command(tmp_path, monkeypatch, capsys):
    refs = json.loads(harness.REFERENCE_FILE.read_text())
    refs["tiny"]["train-dense"][-1] += 0.01
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(refs))
    monkeypatch.setattr(harness, "REFERENCE_FILE", bad)
    code = run.main(["--workload", "train-dense", "--seed", "5", "--seconds",
                     "0.3", "--trace", "0", "--preset", "tiny"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
