"""End-to-end CLI tests on tiny configurations."""

import json

import pytest

from test_data import _fabricate_root
from tokenskip import checkpoint, cli, config, data
from tokenskip.vit import MODEL_PRESETS, ViT

TINY = ["--set", "model.preset=tiny", "--set", "dataset.train_n=24",
        "--set", "dataset.val_n=8", "--set", "train.batch_size=8",
        "--set", "train.epochs=1"]
# Tiny at depth 4 holds a skip schedule: drop half at layer 1, back at 3.
TINY4 = [*TINY, "--set", "model.depth=4"]
SKIP = ["--set", "schedule.mode=skip", "--set", "schedule.drop_layers=1",
        "--set", "schedule.drop_ratios=0.5", "--set", "schedule.skip_target=3"]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_config_error_is_exit_1(self, capsys, tmp_path):
        # An unknown key, each key that was removed, and an unknown dataset
        # source fail before output.
        for entry, message in (
                ("model.width=3", "unknown config key 'model.width'"),
                ("precision=64", "unknown config key 'precision'"),
                ("schedule.drop_after_ffn=true",
                 "unknown config key 'schedule.drop_after_ffn'"),
                ("dataset.source=foo",
                 "source must be one of synthetic, cifar10, got 'foo'")):
            out_dir = tmp_path / entry
            code, out, err = run(capsys, "train", "--out", str(out_dir),
                                 *TINY, "--set", entry)
            assert code == cli.EXIT_CONFIG
            assert message in err
            assert "top-1" not in out and not out_dir.exists()

    @pytest.mark.parametrize("argv,message", [
        (["flops", "--out", "x"], "unrecognized arguments: --out x"),
        (["train"], "the following arguments are required: --out"),
        (["fly"], "invalid choice: 'fly'"),
    ], ids=["unknown_option", "missing_option", "unknown_command"])
    def test_usage_error_is_exit_1(self, capsys, argv, message):
        code, _, err = run(capsys, *argv)
        assert code == cli.EXIT_CONFIG
        assert message in err and "usage: tokenskip" in err

    def test_invalid_schedule_is_exit_1(self, capsys):
        for layers, ratios in (("0", "0.5"), ("-1", "0.5"),
                               ("-1,3", "0.3,0.3")):
            code, _, err = run(capsys, "flops", "--set", "schedule.mode=skip",
                               "--set", f"schedule.drop_layers={layers}",
                               "--set", f"schedule.drop_ratios={ratios}",
                               "--set", "schedule.skip_target=5")
            assert code == cli.EXIT_CONFIG
            assert "layer 0" in err or "drop" in err

    def test_missing_dataset_is_exit_2(self, capsys, tmp_path):
        out_dir = tmp_path / "o"
        code, _, err = run(capsys, "train", "--out", str(out_dir),
                           "--set", "dataset.source=cifar10", *TINY)
        assert code == cli.EXIT_RUNTIME
        assert "dataset.root" in err and not out_dir.exists()

    def test_truncated_cifar10_batch_is_exit_2(self, capsys, tmp_path):
        _fabricate_root(tmp_path, per_file=8)
        path = tmp_path / "data_batch_3.bin"
        path.write_bytes(path.read_bytes()[:-10])
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, "train", "--out", str(out_dir), *TINY,
                             "--set", "dataset.source=cifar10",
                             "--set", f"dataset.root={tmp_path}",
                             "--set", "model.num_classes=10")
        assert code == cli.EXIT_RUNTIME
        assert "data_batch_3.bin: truncated record at byte offset" in err
        assert "top-1" not in out and not out_dir.exists()

    @pytest.mark.parametrize("key,n,held", [("dataset.train_n", 41, 40),
                                            ("dataset.val_n", 9, 8)])
    def test_cifar10_size_beyond_files_is_exit_1(self, capsys, tmp_path, key,
                                                 n, held):
        _fabricate_root(tmp_path, per_file=8)
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, "train", "--out", str(out_dir), *TINY,
                             "--set", "dataset.source=cifar10",
                             "--set", f"dataset.root={tmp_path}",
                             "--set", "model.num_classes=10",
                             "--set", f"{key}={n}")
        assert code == cli.EXIT_CONFIG
        assert f"{key} is {n}, but CIFAR-10 holds {held} records" in err
        assert "top-1" not in out and not out_dir.exists()

    @pytest.mark.parametrize("classes", [5, 20])
    def test_cifar10_class_mismatch_is_exit_1(self, capsys, tmp_path,
                                              classes):
        _fabricate_root(tmp_path, per_file=2)
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, "train", "--out", str(out_dir), *TINY,
                             "--set", "dataset.source=cifar10",
                             "--set", f"dataset.root={tmp_path}",
                             "--set", "model.image_size=32",
                             "--set", "model.patch_size=8",
                             "--set", f"model.num_classes={classes}")
        assert code == cli.EXIT_CONFIG
        assert f"cifar10 has 10 classes, model.num_classes is {classes}" in err
        assert "top-1" not in out and not out_dir.exists()

    @pytest.mark.parametrize("split", [
        ["--set", "dataset.val_n=0"],
        ["--set", "dataset.train_n=2", "--set", "train.batch_size=4"],
        # 32-pixel CIFAR-10 images for a 16-pixel model.
        ["--set", "dataset.source=cifar10", "--set", "dataset.root={root}",
         "--set", "model.num_classes=10", "--set", "model.image_size=16"]],
        ids=["empty_val", "train_below_one_batch", "image_size_mismatch"])
    def test_unusable_split_is_exit_1(self, capsys, tmp_path, split):
        _fabricate_root(tmp_path, per_file=8)
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, "train", "--out", str(out_dir), *TINY,
                             *(arg.format(root=tmp_path) for arg in split))
        assert code == cli.EXIT_CONFIG
        assert "top-1" not in out and "split" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("key", ["model.heads", "model.patch_size",
                                     "train.epochs"])
    def test_zero_size_is_exit_1_before_training(self, capsys, tmp_path, key):
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, "train", "--out", str(out_dir), *TINY,
                             "--set", f"{key}=0")
        assert code == cli.EXIT_CONFIG
        assert f"{key.split('.')[1]} must be >= 1, got 0" in err
        assert "top-1" not in out and not out_dir.exists()

    @pytest.mark.parametrize("key,value", [
        ("train.lr_warmup_epochs", "-1"), ("train.weight_decay", "-0.5"),
        ("dataset.train_n", "-5"), ("dataset.val_n", "-3"), ("seed", "-1"),
        ("train.learning_rate", "nan"), ("train.weight_decay", "inf")])
    def test_negative_value_is_exit_1_before_training(self, capsys, tmp_path,
                                                     key, value):
        out_dir = tmp_path / "run"
        code, out, err = run(capsys, "train", "--out", str(out_dir), *TINY,
                             "--set", f"{key}={value}")
        assert code == cli.EXIT_CONFIG
        bound = "finite" if value in ("nan", "inf") else ">= 0"
        assert f"{key.split('.')[-1]} must be {bound}, got {value}" in err
        assert "top-1" not in out and not out_dir.exists()

    @pytest.mark.parametrize("schedule,key", [
        (["schedule.drop_layers=3", "schedule.drop_ratios=0.55"],
         "drop_layers"),
        (["schedule.skip_target=5"], "skip_target"),
        (["schedule.mode=skip", "schedule.skip_target=5"], "drop_layers"),
        (["schedule.mode=fuse"], "drop_layers")],
        ids=["stages_without_mode", "skip_target_without_mode",
             "skip_without_stage", "fuse_without_stage"])
    def test_mode_and_stages_must_agree(self, capsys, schedule, key):
        sets = [arg for entry in schedule for arg in ("--set", entry)]
        code, out, err = run(capsys, "flops", *sets)
        assert code == cli.EXIT_CONFIG
        assert key in err
        assert "saving" not in out

    @pytest.mark.parametrize("command", ["flops", "train"])
    def test_sweep_keys_outside_sweep_are_exit_1(self, capsys, tmp_path,
                                                 command):
        # Only sweep reads sweep.* keys; anywhere else an arm's schedule
        # would be ignored and the shared (dense) config run instead.
        out_dir = tmp_path / "run"
        arm = [arg.replace("schedule.", "sweep.skip.schedule.") for arg in SKIP]
        out_args = ["--out", str(out_dir)] if command == "train" else []
        code, out, err = run(capsys, command, *out_args, *TINY4,
                             "--set", "sweep.arms=skip", *arm)
        assert code == cli.EXIT_CONFIG
        assert "unknown config key 'sweep.arms'" in err
        assert out == "" and not out_dir.exists()

    def test_eval_with_an_empty_train_split_is_exit_1(self, capsys, tmp_path):
        # Validation images are normalized with the train split's statistics.
        path = tmp_path / "tiny.ckpt"
        checkpoint.save(ViT(MODEL_PRESETS["tiny"], seed=0), path)
        code, out, err = run(capsys, "eval", "--checkpoint", str(path), *TINY,
                             "--set", "dataset.train_n=0")
        assert code == cli.EXIT_CONFIG
        assert "dataset.train_n is 0" in err
        assert out == ""

    def test_missing_checkpoint_is_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "--checkpoint",
                           str(tmp_path / "nope.ckpt"), *TINY)
        assert code == cli.EXIT_RUNTIME

    def test_missing_config_file_is_exit_1(self, capsys, tmp_path):
        path = tmp_path / "nope.cfg"
        code, out, err = run(capsys, "flops", "--config", str(path))
        assert code == cli.EXIT_CONFIG
        assert f"cannot read config file {path}" in err and out == ""

    def test_report_without_result_file_is_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "report", str(tmp_path))
        assert code == cli.EXIT_RUNTIME
        assert f"no result file at {tmp_path / 'result.json'}" in err
        assert out == ""


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

    @pytest.mark.parametrize("source", ["synthetic", "cifar10"])
    def test_eval_normalizes_only_val_with_the_same_bytes(
            self, monkeypatch, tmp_path, source):
        _fabricate_root(tmp_path)
        cfg = config.build({"model.preset": "desk", "dataset.source": source,
                            "dataset.root": str(tmp_path),
                            "dataset.train_n": "12", "dataset.val_n": "3"})
        _, want = cli._load_data(cfg)
        normalized, normalize = [], data.normalize
        monkeypatch.setattr(data, "normalize", lambda split, stats: (
            normalized.append(len(split)) or normalize(split, stats)))
        got = cli._val_split(cfg)
        assert normalized == [3]
        assert got.images.tobytes() == want.images.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()

    def test_train_is_reproducible(self, capsys, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert run(capsys, "train", "--out", str(out_dir),
                       "--set", "seed=3", *TINY)[0] == 0
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
        assert "samples/sec" in out and "measured" in out
        row = json.loads((tmp_path / "result.json").read_text())
        assert "measured_saving" in row


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

    @pytest.mark.parametrize("arms", ["base,,x", "base,.", "..", "a/b"])
    def test_arm_name_must_be_a_plain_directory_name(self, capsys, tmp_path,
                                                     arms):
        out_dir = tmp_path / "sweep_out"
        code, out, err = run(capsys, "sweep", "--out", str(out_dir), *TINY,
                             "--set", f"sweep.arms={arms}")
        assert code == cli.EXIT_CONFIG
        assert "not a plain directory name" in err and out == ""
        assert list(tmp_path.iterdir()) == []

    def test_report_finds_baseline_among_bench_rows(self, capsys, tmp_path):
        skip, base = tmp_path / "skip", tmp_path / "base"
        assert run(capsys, "bench", "--out", str(skip), *TINY4, *SKIP)[0] == 0
        assert run(capsys, "bench", "--out", str(base), *TINY4)[0] == 0
        code, out, _ = run(capsys, "report", str(skip), str(base))
        assert code == 0
        skip_line, base_line = out.splitlines()[3:]
        assert skip_line.startswith("skip 50%@1->3")
        assert base_line.startswith("baseline") and "(+0.00%)" in base_line
        # schedule, samples/sec, top-1, MAC saving, measured saving
        assert skip_line.split()[3] == base_line.split()[2] == "-"
        assert float(skip_line.split()[4]) > 0
        assert base_line.split()[3] == "0.0000"

    def test_report_bench_baseline_against_trained_run(self, capsys,
                                                       tmp_path):
        base, skip = tmp_path / "base", tmp_path / "skip"
        assert run(capsys, "bench", "--out", str(base), *TINY4)[0] == 0
        assert run(capsys, "train", "--out", str(skip), *TINY4, *SKIP)[0] == 0
        bench_row = json.loads((base / "result.json").read_text())
        train_row = json.loads((skip / "result.json").read_text())
        assert bench_row.keys() == train_row.keys()
        assert bench_row["mode"] == "none" and bench_row["top1"] is None
        code, out, _ = run(capsys, "report", str(base), str(skip))
        assert code == 0
        base_line, skip_line = out.splitlines()[3:]
        assert base_line.split()[2] == skip_line.split()[3] == "-"

    def test_report_requires_baseline(self, capsys, tmp_path):
        row = {"schedule": "skip 50%@1->3", "mode": "skip",
               "samples_per_sec": 10.0, "top1": 50.0,
               "predicted_mac_saving": 0.2}
        path = tmp_path / "result.json"
        path.write_text(json.dumps(row))
        code, _, err = run(capsys, "report", str(path))
        assert code == cli.EXIT_CONFIG
        assert "baseline" in err

    @pytest.mark.parametrize("row", [
        [1, 2], 3,
        {"mode": "none", "samples_per_sec": 10.0},
        {"schedule": "baseline", "mode": "none"},
        {"schedule": "baseline", "mode": "none", "samples_per_sec": 0},
        {"schedule": "baseline", "mode": "none", "samples_per_sec": 10.0,
         "top1": "abc"},
        {"schedule": 5, "mode": "none", "samples_per_sec": 10.0},
        {"schedule": "baseline", "mode": "none", "samples_per_sec": True},
        {"schedule": "baseline", "mode": "none", "samples_per_sec": 10.0,
         "measured_saving": "x"},
        {"schedule": "baseline", "mode": "none",
         "samples_per_sec": float("inf")},
        {"schedule": "baseline", "mode": "none", "samples_per_sec": 10.0,
         "top1": float("nan")},
        {"schedule": "baseline", "mode": "none", "samples_per_sec": 10 ** 400}],
        ids=["list", "number", "no_schedule", "no_samples_per_sec",
             "zero_baseline_rate", "string_top1", "number_schedule",
             "bool_samples_per_sec", "string_measured_saving",
             "infinite_samples_per_sec", "nan_top1",
             "huge_int_samples_per_sec"])
    def test_malformed_row_is_exit_1(self, capsys, tmp_path, row):
        path = tmp_path / "result.json"
        path.write_text(json.dumps(row))
        code, out, err = run(capsys, "report", str(path))
        assert code == cli.EXIT_CONFIG
        assert err.startswith(f"error: {path}: a result row is a JSON object")
        assert f"got {row!r}" in err and out == ""

    def test_truncated_json_is_exit_1_naming_the_file(self, capsys, tmp_path):
        path = tmp_path / "result.json"
        path.write_text('{"schedule": ')
        code, out, err = run(capsys, "report", str(path))
        assert code == cli.EXIT_CONFIG
        assert err.startswith(f"error: {path}: Expecting value") and out == ""


class TestReportFormatting:
    def test_delta_convention(self):
        rows = [
            {"schedule": "baseline", "mode": "none",
             "samples_per_sec": 4506.0, "top1": 68.91,
             "predicted_mac_saving": 0.0},
            {"schedule": "skip 55%@6->11", "mode": "skip",
             "samples_per_sec": 5098.0, "top1": 70.16,
             "predicted_mac_saving": 0.25, "measured_saving": 0.1234},
        ]
        table = cli.format_report(rows)
        assert "5,098(+13.14%)" in table
        assert "70.16(+1.25)" in table
        # The baseline row has no measured saving, as in older result files.
        header, _, base, skip = table.splitlines()[1:]
        assert header.endswith("MAC saving  measured saving")
        assert base.split()[-2:] == ["0.0000", "-"]
        assert skip.split()[-2:] == ["0.2500", "0.1234"]

    def test_row_without_mode_is_not_the_baseline(self):
        # A bench row as older versions wrote it: no mode, top-1 or MAC saving.
        rows = [{"schedule": "skip 55%@3->5", "samples_per_sec": 120.0,
                 "measured_saving": 0.1},
                {"schedule": "baseline", "mode": "none",
                 "samples_per_sec": 100.0, "top1": 10.0,
                 "predicted_mac_saving": 0.0}]
        old, base = cli.format_report(rows).splitlines()[3:]
        assert old.split()[2:] == ["120(+20.00%)", "-", "-", "0.1000"]
        assert "100(+0.00%)" in base

    def test_baseline_only(self):
        rows = [{"schedule": "baseline", "mode": "none",
                 "samples_per_sec": 100.0, "top1": 10.0,
                 "predicted_mac_saving": 0.0}]
        table = cli.format_report(rows)
        assert "100(+0.00%)" in table
        assert "10.00(+0.00)" in table
