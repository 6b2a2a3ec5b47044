"""Flat key=value configuration parsing and resolution tests."""

import pytest

from tokenskip import config as C
from tokenskip.tokendrop import MODE_FUSE, MODE_NONE, MODE_SKIP


class TestParseText:
    def test_basic_lines(self):
        items = C.parse_text("model.depth = 6\n# comment\n\nseed=3  # tail\n")
        assert items == {"model.depth": "6", "seed": "3"}

    def test_missing_equals(self):
        with pytest.raises(C.ConfigError, match="line 2"):
            C.parse_text("seed = 1\nmodel.depth 6\n")

    def test_later_lines_win(self):
        assert C.parse_text("seed = 1\nseed = 2\n")["seed"] == "2"


class TestBuild:
    def test_defaults_are_desk_baseline(self):
        cfg = C.build({})
        assert cfg.model.depth == 6 and cfg.model.embed_dim == 128
        assert cfg.schedule.mode == MODE_NONE
        assert cfg.dataset.source == "synthetic"
        assert cfg.seed == 0

    def test_preset_with_overrides(self):
        cfg = C.build({"model.preset": "tiny", "model.depth": "4",
                       "train.epochs": "7", "seed": "9"})
        assert cfg.model.depth == 4 and cfg.model.embed_dim == 8
        assert cfg.train.epochs == 7
        assert cfg.train.seed == 9

    def test_skip_schedule(self):
        cfg = C.build({"schedule.mode": "skip", "schedule.drop_layers": "3",
                       "schedule.drop_ratios": "0.55",
                       "schedule.skip_target": "5",
                       "schedule.warmup_epochs": "5"})
        assert cfg.schedule.mode == MODE_SKIP
        assert cfg.schedule.stages == ((3, 0.55),)
        assert cfg.schedule.skip_target == 5
        assert cfg.schedule.warmup_epochs == 5

    def test_two_stage_schedule(self):
        cfg = C.build({"schedule.mode": "skip",
                       "schedule.drop_layers": "2,3",
                       "schedule.drop_ratios": "0.3,0.3",
                       "schedule.skip_target": "5"})
        assert cfg.schedule.stages == ((2, 0.3), (3, 0.3))

    def test_fuse_schedule(self):
        cfg = C.build({"schedule.mode": "fuse", "schedule.drop_layers": "3",
                       "schedule.drop_ratios": "0.45"})
        assert cfg.schedule.mode == MODE_FUSE
        assert cfg.schedule.skip_target is None

    def test_unknown_key(self):
        with pytest.raises(C.ConfigError, match="model.width"):
            C.build({"model.width": "64"})

    def test_unknown_preset(self):
        with pytest.raises(C.ConfigError, match="unknown preset"):
            C.build({"model.preset": "gigantic"})

    def test_bad_number(self):
        with pytest.raises(C.ConfigError, match="model.depth"):
            C.build({"model.depth": "six"})

    def test_mismatched_stage_arrays(self):
        with pytest.raises(C.ConfigError, match="drop_ratios"):
            C.build({"schedule.mode": "skip", "schedule.drop_layers": "2,3",
                     "schedule.drop_ratios": "0.5",
                     "schedule.skip_target": "5"})

    def test_invalid_schedule_rejected_at_build(self):
        with pytest.raises(ValueError):
            C.build({"schedule.mode": "skip", "schedule.drop_layers": "0",
                     "schedule.drop_ratios": "0.5",
                     "schedule.skip_target": "5"})

    def test_overrides_helper(self):
        items = C.apply_overrides({"seed": "1"}, ["seed=4", "model.depth=3"])
        assert items == {"seed": "4", "model.depth": "3"}
        with pytest.raises(C.ConfigError, match="key=value"):
            C.apply_overrides({}, ["seed"])


SKIP = {"schedule.mode": "skip", "schedule.drop_layers": "3",
        "schedule.drop_ratios": "0.55", "schedule.skip_target": "5"}
# One value other than the default for each settable key.
NON_DEFAULT = {
    "seed": "7",
    "model.depth": "8", "model.heads": "8", "model.embed_dim": "64",
    "model.patch_size": "8", "model.image_size": "64", "model.num_classes": "5",
    "train.batch_size": "16", "train.epochs": "3", "train.weight_decay": "0.1",
    "train.learning_rate": "0.002", "train.warmup_lr": "1e-05",
    "train.lr_warmup_epochs": "2",
    "dataset.source": "cifar10", "dataset.root": "data/cifar",
    "dataset.train_n": "100", "dataset.val_n": "10",
    "schedule.mode": "fuse", "schedule.drop_layers": "2",
    "schedule.drop_ratios": "0.3", "schedule.skip_target": "4",
    "schedule.warmup_epochs": "2",
}
SETTABLE = C.KNOWN_KEYS - {"model.preset", "train.preset"}


def items_setting(key: str) -> dict:
    """Items that set ``key`` to its NON_DEFAULT value in a valid config."""
    if key == "schedule.mode":
        base = {"schedule.drop_layers": "3", "schedule.drop_ratios": "0.45"}
    else:
        base = SKIP if key.startswith("schedule.") else {}
    return {**base, key: NON_DEFAULT[key]}


class TestResolvedRoundTrip:
    def test_every_settable_key_has_a_value(self):
        assert set(NON_DEFAULT) == SETTABLE

    @pytest.mark.parametrize("key", sorted(NON_DEFAULT))
    def test_each_key_round_trips(self, tmp_path, key):
        cfg = C.build(items_setting(key))
        default = C.resolved_items(C.build({}))
        assert C.resolved_items(cfg)[key] != default[key]
        path = tmp_path / "resolved.txt"
        C.write_resolved(cfg, path)
        items = C.load_file(path)
        assert set(items) == SETTABLE
        assert C.build(items) == cfg

    def test_round_trip_is_identity(self, tmp_path):
        cfg = C.build({"model.preset": "desk", "schedule.mode": "skip",
                       "schedule.drop_layers": "3",
                       "schedule.drop_ratios": "0.55",
                       "schedule.skip_target": "5", "seed": "7",
                       "train.epochs": "2"})
        path = tmp_path / "resolved.txt"
        C.write_resolved(cfg, path)
        again = C.build(C.load_file(path))
        assert again == cfg

    def test_resolved_file_is_sorted_text(self, tmp_path):
        C.write_resolved(C.build({}), tmp_path / "r.txt")
        lines = (tmp_path / "r.txt").read_text().splitlines()
        assert lines == sorted(lines)
        assert all(" = " in line for line in lines)


class TestSweep:
    ITEMS = {
        "model.preset": "tiny",
        "train.epochs": "1",
        "sweep.arms": "base,skip",
        "sweep.skip.schedule.mode": "skip",
        "sweep.skip.schedule.drop_layers": "1",
        "sweep.skip.schedule.drop_ratios": "0.5",
        "sweep.skip.schedule.skip_target": "3",
        "sweep.skip.model.depth": "4",
    }

    def test_arms_inherit_and_override(self):
        arms = dict(C.sweep_arms(self.ITEMS))
        assert set(arms) == {"base", "skip"}
        assert arms["base"].schedule.mode == MODE_NONE
        assert arms["base"].model.depth == 2
        assert arms["skip"].schedule.stages == ((1, 0.5),)
        assert arms["skip"].model.depth == 4
        assert arms["skip"].train.epochs == 1

    def test_arm_schedule_replaces_shared_schedule(self):
        items = dict(self.ITEMS)
        items.update({"schedule.mode": "fuse", "schedule.drop_layers": "1",
                      "schedule.drop_ratios": "0.4", "model.depth": "4",
                      "sweep.arms": "fuse_arm,skip",
                      "sweep.fuse_arm.train.epochs": "2"})
        del items["model.preset"]
        arms = dict(C.sweep_arms(items))
        # The fuse arm keeps the shared fuse schedule, the skip arm's own
        # schedule keys cleared it before applying their values.
        assert arms["fuse_arm"].schedule.mode == MODE_FUSE
        assert arms["skip"].schedule.mode == MODE_SKIP
        assert arms["skip"].schedule.stages == ((1, 0.5),)

    @pytest.mark.parametrize("key", ["sweep.skpi.schedule.mode",
                                     "sweep.other", "sweep.base"])
    def test_sweep_key_of_no_listed_arm_is_unknown(self, key):
        with pytest.raises(C.ConfigError, match=f"unknown config key '{key}'"):
            C.sweep_arms({**self.ITEMS, key: "skip"})

    def test_build_rejects_sweep_keys(self):
        with pytest.raises(C.ConfigError, match="unknown config key 'sweep.arms'"):
            C.build({"sweep.arms": "base"})

    def test_missing_arms_key(self):
        with pytest.raises(C.ConfigError, match="sweep.arms"):
            C.sweep_arms({"model.preset": "tiny"})

    def test_duplicate_arm_names(self):
        with pytest.raises(C.ConfigError, match="duplicate"):
            C.sweep_arms({"sweep.arms": "a,a"})
