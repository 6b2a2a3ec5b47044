"""End-to-end CLI tests on tiny configurations."""

import json

import pytest

from tokenskip import checkpoint, cli
from tokenskip.vit import MODEL_PRESETS, ViT

TINY = ["--set", "model.preset=tiny", "--set", "dataset.train_n=24",
        "--set", "dataset.val_n=8", "--set", "train.batch_size=8",
        "--set", "train.epochs=1"]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_config_error_is_exit_1(self, capsys):
        code, _, err = run(capsys, "flops", "--set", "model.width=3")
        assert code == cli.EXIT_CONFIG
        assert "model.width" in err

    def test_invalid_schedule_is_exit_1(self, capsys):
        code, _, err = run(capsys, "flops", "--set", "schedule.mode=skip",
                           "--set", "schedule.drop_layers=0",
                           "--set", "schedule.drop_ratios=0.5",
                           "--set", "schedule.skip_target=5")
        assert code == cli.EXIT_CONFIG
        assert "layer 0" in err or "drop" in err

    def test_missing_dataset_is_exit_2(self, capsys, tmp_path, monkeypatch):
        from tokenskip.data import DATA_ROOT_ENV
        monkeypatch.delenv(DATA_ROOT_ENV, raising=False)
        code, _, err = run(capsys, "train", "--out", str(tmp_path / "o"),
                           "--set", "dataset.source=cifar10", *TINY)
        assert code == cli.EXIT_RUNTIME

    def test_missing_checkpoint_is_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "--checkpoint",
                           str(tmp_path / "nope.ckpt"), *TINY)
        assert code == cli.EXIT_RUNTIME


class TestFlops:
    def test_baseline_report(self, capsys):
        code, out, _ = run(capsys, "flops")
        assert code == 0
        assert "MACs" in out
        assert "saving: 0.0000" in out

    def test_skip_schedule_saving_positive(self, capsys):
        code, out, _ = run(capsys, "flops",
                           "--set", "schedule.mode=skip",
                           "--set", "schedule.drop_layers=3",
                           "--set", "schedule.drop_ratios=0.55",
                           "--set", "schedule.skip_target=5")
        assert code == 0
        saving = float(out.rsplit("saving: ", 1)[1].split()[0])
        assert 0.0 < saving < 1.0


class TestTrainEvalBench:
    def test_train_writes_outputs_and_eval_reads_them(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run(capsys, "train", "--out", str(out_dir), *TINY)
        assert code == 0
        assert "top-1" in out
        assert (out_dir / "resolved_config.txt").exists()
        assert (out_dir / "metrics.jsonl").exists()
        row = json.loads((out_dir / "result.json").read_text())
        assert row["schedule"] == "baseline"

        code, out, _ = run(capsys, "eval", "--checkpoint",
                           str(out_dir / "model.ckpt"), *TINY)
        assert code == 0
        assert "top-1" in out

    def test_train_is_reproducible(self, capsys, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert run(capsys, "train", "--out", str(out_dir),
                       "--seed", "3", *TINY)[0] == 0
            blobs.append((out_dir / "metrics.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    def test_eval_rejects_checkpoint_of_other_geometry(self, capsys, tmp_path):
        path = tmp_path / "tiny.ckpt"
        checkpoint.save(ViT(MODEL_PRESETS["tiny"], seed=0), path)
        code, out, err = run(capsys, "eval", "--checkpoint", str(path), *TINY,
                             "--set", "model.depth=7",
                             "--set", "model.num_classes=5")
        assert code == cli.EXIT_CONFIG
        assert "top-1" not in out
        assert "model.depth" in err and "model.num_classes" in err
        assert "model.embed_dim" not in err

    def test_bench_prints_rate(self, capsys, tmp_path):
        code, out, _ = run(capsys, "bench", "--out", str(tmp_path), *TINY)
        assert code == 0
        assert "samples/sec" in out
        assert (tmp_path / "result.json").exists()


class TestSweepAndReport:
    def test_sweep_emits_table(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("\n".join([
            "model.depth = 4",
            "model.heads = 2",
            "model.embed_dim = 8",
            "model.patch_size = 2",
            "model.image_size = 8",
            "model.num_classes = 3",
            "dataset.train_n = 16",
            "dataset.val_n = 8",
            "train.batch_size = 8",
            "train.epochs = 1",
            "sweep.arms = base,skip",
            "sweep.skip.schedule.mode = skip",
            "sweep.skip.schedule.drop_layers = 1",
            "sweep.skip.schedule.drop_ratios = 0.5",
            "sweep.skip.schedule.skip_target = 3",
        ]) + "\n")
        out_dir = tmp_path / "sweep_out"
        code, out, _ = run(capsys, "sweep", "--config", str(cfg),
                           "--out", str(out_dir))
        assert code == 0
        assert "baseline" in out and "skip 50%@1->3" in out
        lines = (out_dir / "sweep.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert (out_dir / "skip" / "result.json").exists()

        code, out, _ = run(capsys, "report", str(out_dir / "sweep.jsonl"))
        assert code == 0
        assert "(+0.00%)" in out  # baseline throughput delta vs itself

    def test_report_requires_baseline(self, capsys, tmp_path):
        row = {"schedule": "skip 50%@1->3", "mode": "skip",
               "samples_per_sec": 10.0, "top1": 50.0,
               "predicted_mac_saving": 0.2}
        path = tmp_path / "result.json"
        path.write_text(json.dumps(row))
        code, _, err = run(capsys, "report", str(path))
        assert code == cli.EXIT_CONFIG
        assert "baseline" in err


class TestReportFormatting:
    def test_delta_convention(self):
        rows = [
            {"schedule": "baseline", "mode": "none",
             "samples_per_sec": 4506.0, "top1": 68.91,
             "predicted_mac_saving": 0.0},
            {"schedule": "skip 55%@6->11", "mode": "skip",
             "samples_per_sec": 5098.0, "top1": 70.16,
             "predicted_mac_saving": 0.25},
        ]
        table = cli.format_report(rows)
        assert "5,098(+13.14%)" in table
        assert "70.16(+1.25)" in table

    def test_baseline_only(self):
        rows = [{"schedule": "baseline", "mode": "none",
                 "samples_per_sec": 100.0, "top1": 10.0,
                 "predicted_mac_saving": 0.0}]
        table = cli.format_report(rows)
        assert "100(+0.00%)" in table
        assert "10.00(+0.00)" in table
