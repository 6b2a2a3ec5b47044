import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tokenskip import data, flops, tensor as T, trainer
from tokenskip.optim import AdamW
from tokenskip.tensor import Tensor
from tokenskip import tokendrop as td
from tokenskip.vit import MODEL_PRESETS, ModelConfig, TokenBatch, ViT


def scores_from(scores):
    return Tensor(np.asarray(scores, dtype=np.float64))


def batch_from(emb):
    return TokenBatch(Tensor(np.asarray(emb, dtype=np.float64)))


class TestClsImportance:
    def test_uniform_rows(self):
        scores = np.full((1, 2, 5, 5), 0.2)
        imp = td.cls_importance(scores_from(scores))
        np.testing.assert_allclose(imp.data, [[0.2] * 4])

    def test_single_head_drops_cls_column(self):
        scores = np.zeros((1, 1, 4, 4))
        scores[0, 0, 0] = [0.4, 0.3, 0.2, 0.1]
        imp = td.cls_importance(scores_from(scores))
        np.testing.assert_allclose(imp.data, [[0.3, 0.2, 0.1]])

    def test_two_head_mean(self):
        scores = np.zeros((1, 2, 3, 3))
        scores[0, 0, 0] = [0.5, 0.5, 0.0]
        scores[0, 1, 0] = [0.5, 0.0, 0.5]
        imp = td.cls_importance(scores_from(scores))
        np.testing.assert_allclose(imp.data, [[0.25, 0.25]])

    def test_too_few_tokens(self):
        with pytest.raises(ValueError):
            td.cls_importance(scores_from(np.ones((1, 1, 1, 1))))


class TestSelectTopk:
    def test_half_ratio(self):
        imp = np.array([[0.4, 0.1, 0.3, 0.2]])
        keep, drop = td.select_topk(imp, 0.5)
        np.testing.assert_array_equal(keep, [[1, 3]])
        np.testing.assert_array_equal(drop, [[2, 4]])

    def test_ratio_zero_keeps_everything(self):
        imp = np.array([[0.4, 0.1, 0.3]])
        keep, drop = td.select_topk(imp, 0.0)
        np.testing.assert_array_equal(keep, [[1, 2, 3]])
        assert drop.shape == (1, 0)

    def test_paper_shape_keep_count(self):
        rng = np.random.default_rng(0)
        imp = rng.uniform(size=(1, 196))
        keep, drop = td.select_topk(imp, 0.55)
        assert keep.shape[1] == 89
        assert drop.shape[1] == 107

    def test_tie_break_by_position(self):
        imp = np.full((1, 4), 0.25)
        keep, drop = td.select_topk(imp, 0.5)
        np.testing.assert_array_equal(keep, [[1, 2]])
        np.testing.assert_array_equal(drop, [[3, 4]])

    def test_per_sample_selection(self):
        imp = np.array([[0.9, 0.1], [0.1, 0.9]])
        keep, drop = td.select_topk(imp, 0.5)
        np.testing.assert_array_equal(keep, [[1], [2]])
        np.testing.assert_array_equal(drop, [[2], [1]])

    @pytest.mark.parametrize("ratio", [-0.1, 1.0])
    def test_ratio_outside_unit_interval_rejected(self, ratio):
        with pytest.raises(ValueError, match=r"ratio must be in \[0, 1\)"):
            td.select_topk(np.zeros((1, 4)), ratio)


class TestSplitReinsert:
    def test_empty_drop_is_identity(self):
        batch = batch_from(np.arange(12.0).reshape(1, 4, 3))
        stash = []
        out = td.split(batch, np.array([[1, 2, 3]]), np.empty((1, 0), dtype=int),
                       stash)
        assert out is batch
        assert not stash

    def test_split_partitions_positions(self):
        batch = batch_from(np.arange(15.0).reshape(1, 5, 3))
        stash = []
        out = td.split(batch, np.array([[1, 3]]), np.array([[2, 4]]), stash)
        np.testing.assert_array_equal(out.embeddings.data,
                                      batch.embeddings.data[:, [0, 1, 3]])
        (base, rows), = stash
        assert base is batch.embeddings
        np.testing.assert_array_equal(rows, [[0, 1, 3]])

    def test_partition_violation_rejected(self):
        batch = batch_from(np.zeros((1, 5, 3)))
        with pytest.raises(ValueError, match="partition"):
            td.split(batch, np.array([[1, 2]]), np.array([[2, 4]]), [])

    def test_reinsert_empty_stash_identity(self):
        batch = batch_from(np.zeros((1, 3, 2)))
        assert td.reinsert(batch, []) is batch

    def test_reinsert_restores_rows_bit_exact(self):
        emb = np.arange(15.0).reshape(1, 5, 3)
        batch = batch_from(emb)
        stash = []
        live = td.split(batch, np.array([[1, 3]]), np.array([[2, 4]]), stash)
        merged = td.reinsert(live, stash)
        assert (merged.embeddings.data == emb).all()
        assert not stash

    def test_wrong_live_row_count_rejected(self):
        # Two live rows cannot go back to the three rows a stage kept.
        batch = batch_from(np.zeros((1, 2, 2)))
        stash = [(Tensor(np.zeros((1, 4, 2))), np.array([[0, 1, 3]]))]
        with pytest.raises(ValueError, match=r"rows \[1, 2, 2\] do not fit "
                                             r"index \[1, 3\]"):
            td.reinsert(batch, stash)

    def test_two_stage_partition(self):
        emb = Tensor(np.arange(15.0).reshape(1, 5, 3), requires_grad=True)
        batch = TokenBatch(emb)
        stash = []
        first = td.split(batch, np.array([[1, 3]]), np.array([[2, 4]]), stash)
        live = td.split(first, np.array([[1]]), np.array([[2]]), stash)
        # Each stage stashes the batch it cut from and the rows it kept:
        # rows 2, 4 of the input, then row 2 of the first live batch (input
        # row 3), stay behind.
        assert stash[0][0] is emb and stash[1][0] is first.embeddings
        np.testing.assert_array_equal(stash[0][1], [[0, 1, 3]])
        np.testing.assert_array_equal(stash[1][1], [[0, 1]])
        np.testing.assert_array_equal(live.embeddings.data, emb.data[:, [0, 1]])
        merged = td.reinsert(live, stash)
        assert (merged.embeddings.data == emb.data).all()
        assert not stash
        # A distinct gradient per row: each pre-split row gets back its own,
        # through the live path (rows 0, 1) and both stash entries (2-4).
        upstream = np.arange(1.0, 16.0).reshape(1, 5, 3)
        T.tensor_sum(T.mul(merged.embeddings, Tensor(upstream))).backward()
        np.testing.assert_array_equal(emb.grad, upstream)

    def test_gradients_flow_through_both_paths(self):
        emb = Tensor(np.arange(15.0).reshape(1, 5, 3), requires_grad=True)
        batch = TokenBatch(emb)
        stash = []
        live = td.split(batch, np.array([[1, 3]]), np.array([[2, 4]]), stash)
        merged = td.reinsert(live, stash)
        T.tensor_sum(merged.embeddings).backward()
        np.testing.assert_array_equal(emb.grad, np.ones((1, 5, 3)))


class TestFuse:
    def test_singleton(self):
        emb = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
        out = td.fuse(emb, Tensor(np.array([[0.7]])))
        np.testing.assert_allclose(out.data, emb.data)

    def test_equal_importance_is_mean(self):
        emb = Tensor(np.array([[[2.0, 0.0], [0.0, 4.0]]]))
        out = td.fuse(emb, Tensor(np.array([[0.2, 0.2]])))
        np.testing.assert_allclose(out.data, [[[1.0, 2.0]]])

    def test_weighted_average_hand(self):
        emb = Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        out = td.fuse(emb, Tensor(np.array([[0.3, 0.1]])))
        np.testing.assert_allclose(out.data, [[[0.75, 0.25]]])

    def test_zero_importance_falls_back_to_uniform(self, caplog):
        emb = Tensor(np.array([[[2.0, 0.0], [0.0, 4.0]]]))
        with caplog.at_level("WARNING"):
            out = td.fuse(emb, Tensor(np.zeros((1, 2))))
        np.testing.assert_allclose(out.data, [[[1.0, 2.0]]])
        assert "uniform" in caplog.text

    def test_zero_importance_sample_leaves_the_others_alone(self, caplog):
        emb = np.array([[[2.0, 0.0], [0.0, 4.0]], [[1.0, 0.0], [0.0, 1.0]]])
        imp = np.array([[0.0, 0.0], [0.9, 0.1]])
        with caplog.at_level("WARNING"):
            out = td.fuse(Tensor(emb), Tensor(imp))
        alone = td.fuse(Tensor(emb[1:]), Tensor(imp[1:]))
        np.testing.assert_array_equal(out.data[1:], alone.data)
        np.testing.assert_allclose(out.data, [[[1.0, 2.0]], [[0.9, 0.1]]])
        assert "uniform" in caplog.text

    def test_zero_importance_sample_passes_no_gradient(self):
        imp = Tensor(np.array([[0.0, 0.0], [0.9, 0.1]]), requires_grad=True)
        emb = Tensor(np.arange(8.0).reshape(2, 2, 2))
        T.tensor_sum(td.fuse(emb, imp)).backward()
        np.testing.assert_array_equal(imp.grad[0], [0.0, 0.0])
        assert (imp.grad[1] != 0).all()

    def test_no_dropped_token_rejected(self):
        with pytest.raises(ValueError, match="at least one dropped token"):
            td.fuse(Tensor(np.zeros((1, 0, 2))), Tensor(np.zeros((1, 0))))

    def test_convex_hull_weights(self):
        rng = np.random.default_rng(4)
        emb = rng.normal(size=(2, 5, 3))
        imp = rng.uniform(0.01, 1.0, size=(2, 5))
        out = td.fuse(Tensor(emb), Tensor(imp))
        w = imp / imp.sum(axis=1, keepdims=True)
        expect = np.einsum("bk,bkd->bd", w, emb)[:, None, :]
        np.testing.assert_allclose(out.data, expect, rtol=1e-12)
        assert (w >= 0).all() and np.allclose(w.sum(axis=1), 1.0)


class TestValidate:
    CFG = ModelConfig(depth=12, heads=2, embed_dim=16, patch_size=4,
                      image_size=32, num_classes=10)

    def test_paper_best_single_stage(self):
        td.validate(td.DropSchedule(stages=((6, 0.55),), skip_target=11,
                                    mode=td.MODE_SKIP), self.CFG)

    def test_two_stage(self):
        sched = td.DropSchedule(stages=((4, 0.3), (7, 0.3)), skip_target=10,
                                mode="skip")
        td.validate(sched, self.CFG)

    def test_target_before_drop_rejected(self):
        with pytest.raises(ValueError, match="skip_target"):
            td.validate(td.DropSchedule(stages=((7, 0.3),), skip_target=6,
                                        mode=td.MODE_SKIP), self.CFG)

    def test_drop_layer_zero_rejected(self):
        for layer in (0, -1):
            with pytest.raises(ValueError, match="drop_layers"):
                td.validate(td.DropSchedule(stages=((layer, 0.3),),
                                            skip_target=5, mode=td.MODE_SKIP),
                            self.CFG)

    def test_drop_at_final_layer_rejected(self):
        sched = td.DropSchedule(stages=((11, 0.3),), skip_target=None, mode="fuse")
        with pytest.raises(ValueError, match="drop_layers"):
            td.validate(sched, self.CFG)

    def test_fuse_requires_no_skip_target(self):
        sched = td.DropSchedule(stages=((6, 0.3),), skip_target=10, mode="fuse")
        with pytest.raises(ValueError, match="skip_target"):
            td.validate(sched, self.CFG)

    def test_nondecreasing_layers_rejected(self):
        sched = td.DropSchedule(stages=((7, 0.3), (4, 0.3)), skip_target=10,
                                mode="skip")
        with pytest.raises(ValueError, match="increasing"):
            td.validate(sched, self.CFG)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="none/skip/fuse"):
            td.validate(td.DropSchedule(mode="drop"), self.CFG)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup_epochs"):
            td.validate(td.DropSchedule(warmup_epochs=-1), self.CFG)

    def test_fuse_takes_one_stage(self):
        sched = td.DropSchedule(stages=((4, 0.3), (7, 0.3)), mode="fuse")
        with pytest.raises(ValueError, match="single drop stage"):
            td.validate(sched, self.CFG)

    def test_skip_requires_a_target(self):
        sched = td.DropSchedule(stages=((6, 0.3),), mode="skip")
        with pytest.raises(ValueError, match="skip_target: required"):
            td.validate(sched, self.CFG)

    @pytest.mark.parametrize("target", [12, 13])
    def test_skip_target_beyond_depth_rejected(self, target):
        sched = td.DropSchedule(stages=((6, 0.3),), skip_target=target,
                                mode="skip")
        with pytest.raises(ValueError, match=f"skip_target {target} >= depth 12"):
            td.validate(sched, self.CFG)

    def test_ratio_one_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            td.validate(td.DropSchedule(stages=((6, 1.0),), skip_target=11,
                                        mode=td.MODE_SKIP), self.CFG)

    def test_none_mode_always_valid(self):
        td.validate(td.DropSchedule(), self.CFG)


def _plan_matrix(depth, warmup):
    """Criterion 4's schedules: dense, single, two-stage, fuse."""
    mid, last = depth // 2, depth - 1
    yield td.DropSchedule(warmup_epochs=warmup)
    yield td.DropSchedule(stages=((mid, 0.55),), skip_target=last,
                          mode=td.MODE_SKIP, warmup_epochs=warmup)
    yield td.DropSchedule(stages=((max(1, mid - 2), 0.3), (mid, 0.3)),
                          skip_target=last, mode=td.MODE_SKIP,
                          warmup_epochs=warmup)
    yield td.DropSchedule(stages=((mid, 0.45),), mode=td.MODE_FUSE,
                          warmup_epochs=warmup)


class TestPlan:
    CFG = ModelConfig(depth=6, heads=2, embed_dim=8,
                      patch_size=2, image_size=8, num_classes=3)

    def test_plan_matches_observed_forward(self, monkeypatch):
        """Every planned count equals what the forward pass actually runs on."""
        model = ViT(self.CFG, seed=0)
        images = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
        seen = {}
        attention_block, ffn_block = ViT.attention_block, ViT.ffn_block
        fuse_into, reinsert = td.fuse_into, td.reinsert

        def attn(self, tokens, layer):
            seen["attn"].append(layer)
            return attention_block(self, tokens, layer)

        def ffn(self, tokens, layer):
            seen["ffn"].append(tokens.num_tokens)
            return ffn_block(self, tokens, layer)

        def fuse(tokens, importance, keep_pos, drop_pos):
            # Fusion follows the attention sublayer of its own layer.
            seen["fused"][seen["attn"][-1]] = drop_pos.shape[1]
            return fuse_into(tokens, importance, keep_pos, drop_pos)

        def merge(tokens, stash):
            # Reinsertion precedes the attention sublayer of its layer.
            seen["reinsert"].append(len(seen["attn"]))
            return reinsert(tokens, stash)

        monkeypatch.setattr(ViT, "attention_block", attn)
        monkeypatch.setattr(ViT, "ffn_block", ffn)
        monkeypatch.setattr(td, "fuse_into", fuse)
        monkeypatch.setattr(td, "reinsert", merge)
        checked = 0
        for schedule in _plan_matrix(self.CFG.depth, warmup=2):
            for epoch in (1, 2):
                seen.update(attn=[], ffn=[], fused={}, reinsert=[])
                _, diag = model.forward(images, schedule, epoch=epoch)
                steps = td.plan(schedule, self.CFG, epoch)
                assert [s.attn_tokens for s in steps] == diag.attn_tokens
                assert [s.ffn_tokens for s in steps] == seen["ffn"]
                assert {i: td.keep_count_for(s.attn_tokens - 1, s.ratio)
                        for i, s in enumerate(steps)
                        if s.ratio is not None} == diag.kept_patches
                # The kept-patch count the benchmark's token check derives
                # from the plan: the FFN runs on CLS, the kept patches and
                # the fused token, if any.
                assert {i: s.ffn_tokens - 1 - (1 if s.fused else 0)
                        for i, s in enumerate(steps)
                        if s.ratio is not None} == diag.kept_patches
                assert {i: s.fused for i, s in enumerate(steps)
                        if s.fused} == seen["fused"]
                assert [i for i, s in enumerate(steps)
                        if s.reinsert] == seen["reinsert"]
                # Dense before warm-up; afterwards every stage drops.
                dense = td.plan(td.DropSchedule(), self.CFG)
                hot = epoch >= schedule.warmup_epochs and bool(schedule.stages)
                assert (steps != dense) == hot
                assert set(diag.kept_patches) == (
                    {layer for layer, _ in schedule.stages} if hot else set())
                checked += 1
        assert checked == 8

    def test_default_epoch_is_past_warmup(self):
        sched = td.DropSchedule(stages=((3, 0.55),), skip_target=5,
                                mode=td.MODE_SKIP, warmup_epochs=7)
        steps = td.plan(sched, self.CFG)
        assert [s.attn_tokens for s in steps] == [17, 17, 17, 17, 9, 17]
        assert [s.ffn_tokens for s in steps] == [17, 17, 17, 9, 9, 17]

    def test_ratio_zero_stage_plans_no_reinsert(self):
        sched = td.DropSchedule(stages=((2, 0.0),), skip_target=4,
                                mode=td.MODE_SKIP)
        steps = td.plan(sched, self.CFG)
        assert steps[2].ratio == 0.0
        assert not any(s.reinsert for s in steps)
        assert all(s.attn_tokens == s.ffn_tokens == 17 for s in steps)

    def test_layer_zero_drop_is_rejected(self):
        config = ModelConfig(depth=2, heads=2, embed_dim=8,
                             patch_size=2, image_size=4, num_classes=3)
        sched = td.DropSchedule(stages=((0, 0.5),), skip_target=1,
                                mode=td.MODE_SKIP, warmup_epochs=3)
        for epoch in (0, td.PAST_WARMUP):  # during warm-up too
            with pytest.raises(ValueError, match="layer 0"):
                td.plan(sched, config, epoch)


DESK = MODEL_PRESETS["desk"]

# Schedules validate rejects on desk. Executed as planned without the check,
# the first three drop 32 patches at layer 3 and never return them, and the
# fourth drops at the final layer.
REJECTED_ON_DESK = {
    "bogus_mode": td.DropSchedule(stages=((3, 0.5),), mode="bogus"),
    "skip_without_target": td.DropSchedule(stages=((3, 0.5),),
                                           mode=td.MODE_SKIP),
    "skip_target_9": td.DropSchedule(stages=((3, 0.5),), skip_target=9,
                                     mode=td.MODE_SKIP),
    "fuse_at_5": td.DropSchedule(stages=((5, 0.5),), mode=td.MODE_FUSE),
}

_IMAGES = np.random.default_rng(0).normal(
    size=(2, 3, DESK.image_size, DESK.image_size)).astype(np.float32)
_LABELS = np.array([0, 1])

# Everything that runs or prices a schedule, given the desk model.
ENTRY_POINTS = {
    "plan": lambda model, s: td.plan(s, model.config),
    "forward": lambda model, s: model.forward(_IMAGES, s),
    "token_counts": lambda model, s: flops.token_counts(model.config, s),
    "estimate_flops": lambda model, s: flops.estimate_flops(model.config, s),
    "measure_forward_macs": flops.measure_forward_macs,
    "train_step": lambda model, s: trainer._train_step(
        model, s, AdamW(model.params), _IMAGES, _LABELS, 0, 0, 0.0),
    "evaluate": lambda model, s: trainer.evaluate(
        model, data.Split(_IMAGES, _LABELS), s),
    "benchmark": lambda model, s: trainer.benchmark(
        model, s, trainer.TrainConfig(batch_size=2)),
}


@pytest.fixture(scope="module")
def desk_model():
    return ViT(DESK, seed=0)


@pytest.mark.parametrize("schedule", REJECTED_ON_DESK.values(),
                         ids=REJECTED_ON_DESK)
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_every_entry_point_rejects_what_validate_rejects(desk_model, entry,
                                                         schedule):
    with pytest.raises(ValueError) as rejected:
        td.validate(schedule, DESK)
    with pytest.raises(ValueError, match=re.escape(str(rejected.value))):
        entry(desk_model, schedule)


class TestKeepCount:
    def test_paper_single_stage(self):
        assert td.keep_count_for(196, 0.55) == 89

    def test_paper_two_stage_compounds(self):
        first = td.keep_count_for(196, 0.30)
        assert first == 138
        assert td.keep_count_for(first, 0.30) == 97


# Randomized property suite over the drop/stash machinery.

@st.composite
def drop_case(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    batch = draw(st.integers(min_value=1, max_value=3))
    scores = draw(st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                 min_size=n, max_size=n),
        min_size=batch, max_size=batch))
    ratio = draw(st.floats(min_value=0.0, max_value=0.95))
    return n, batch, np.array(scores), ratio


@given(drop_case())
@settings(max_examples=200, deadline=None)
def test_partition_invariant_single_stage(case):
    n, batch, scores, ratio = case
    keep, drop = td.select_topk(scores, ratio)
    all_pos = np.sort(np.concatenate(
        [np.zeros((batch, 1), dtype=int), keep, drop], axis=1), axis=1)
    np.testing.assert_array_equal(all_pos, np.tile(np.arange(n + 1), (batch, 1)))
    assert not (keep == 0).any() and not (drop == 0).any()


@given(drop_case(), st.floats(min_value=0.0, max_value=0.9))
@settings(max_examples=200, deadline=None)
def test_two_stage_partition_and_roundtrip(case, ratio2):
    n, batch, scores, ratio = case
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(batch, n + 1, 4))
    tokens = TokenBatch(Tensor(emb))
    stash = []
    # The input row of each live row, and of each dropped row, per stage.
    rows, dropped = np.tile(np.arange(n + 1), (batch, 1)), []

    for stage_ratio in (ratio, ratio2):
        keep, drop = td.select_topk(scores, stage_ratio)
        tokens = td.split(tokens, keep, drop, stash)
        dropped.append(np.take_along_axis(rows, drop, axis=1))
        rows = np.take_along_axis(rows, np.concatenate(
            [np.zeros((batch, 1), dtype=keep.dtype), keep], axis=1), axis=1)
        np.testing.assert_array_equal(tokens.embeddings.data,
                                      emb[np.arange(batch)[:, None], rows])
        np.testing.assert_array_equal(
            np.sort(np.concatenate([rows] + dropped, axis=1), axis=1),
            np.tile(np.arange(n + 1), (batch, 1)))
        scores = rng.uniform(size=(batch, tokens.num_tokens - 1))

    merged = td.reinsert(tokens, stash)
    assert (merged.embeddings.data == emb).all()
    assert not stash


def reference_split(emb, positions, keep, drop, stash):
    """Split as it was when each token carried its sequence position: the
    dropped rows are stashed with their positions as the return address."""
    if drop.shape[1] == 0:
        return emb, positions
    live_rows = np.concatenate([np.zeros_like(keep[:, :1]), keep], axis=1)
    live = T.gather_rows(emb, live_rows)
    stash.append((np.take_along_axis(positions, drop, axis=1),
                  T.gather_rows(emb, drop)))
    return live, np.take_along_axis(positions, live_rows, axis=1)


def reference_reinsert(emb, positions, stash):
    """Concatenate live and stashed rows and gather them in position order."""
    if not stash:
        return emb, positions
    positions = np.concatenate([positions] + [pos for pos, _ in stash], axis=1)
    order = np.argsort(positions, axis=1)
    rows = T.concat([emb] + [dropped for _, dropped in stash], axis=1)
    stash.clear()
    return T.gather_rows(rows, order), np.take_along_axis(positions, order,
                                                          axis=1)


@st.composite
def stage_case(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    batch = draw(st.integers(min_value=1, max_value=3))
    stages = draw(st.integers(min_value=1, max_value=2))
    ratios = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
                           min_size=stages, max_size=stages))
    # Scores on a four-level grid, so that ties are common.
    levels = draw(st.lists(st.integers(min_value=0, max_value=3),
                           min_size=stages * batch * n,
                           max_size=stages * batch * n))
    return n, batch, ratios, np.array(levels).reshape(stages, batch, n) / 3.0


def bits(t: Tensor):
    return t.shape, t.dtype, t.data.tobytes()


@given(stage_case())
@settings(max_examples=200, deadline=None)
def test_row_stash_matches_position_stash_bitwise(case):
    n, batch, ratios, scores = case
    data = np.random.default_rng(n).normal(size=(batch, n + 1, 3))
    emb = Tensor(data, requires_grad=True)
    ref_emb = Tensor(data, requires_grad=True)
    x, ref = emb, ref_emb
    positions = np.tile(np.arange(n + 1), (batch, 1))
    stash, ref_stash = [], []
    for ratio, stage_scores in zip(ratios, scores):
        # A block between stages, so the stashed rows are not the input's.
        x, ref = T.gelu(x), T.gelu(ref)
        keep, drop = td.select_topk(stage_scores[:, :x.shape[1] - 1], ratio)
        x = td.split(TokenBatch(x), keep, drop, stash).embeddings
        ref, positions = reference_split(ref, positions, keep, drop, ref_stash)
        assert bits(x) == bits(ref)
    x, ref = T.gelu(x), T.gelu(ref)
    merged = td.reinsert(TokenBatch(x), stash).embeddings
    ref, positions = reference_reinsert(ref, positions, ref_stash)
    np.testing.assert_array_equal(positions,
                                  np.tile(np.arange(n + 1), (batch, 1)))
    assert bits(merged) == bits(ref)
    # A distinct upstream gradient for every entry of every row.
    upstream = Tensor(np.arange(1.0, data.size + 1).reshape(data.shape))
    T.tensor_sum(T.mul(merged, upstream)).backward()
    T.tensor_sum(T.mul(ref, upstream)).backward()
    assert emb.grad.tobytes() == ref_emb.grad.tobytes()


@given(drop_case(), st.integers(min_value=-8, max_value=8))
@example(case=(2, 1, np.array([[0.0, 5e-324]]), 0.5), log2_scale=-1)
@settings(max_examples=200, deadline=None)
def test_selection_invariant_under_positive_scaling(case, log2_scale):
    n, batch, scores, ratio = case
    keep_a, drop_a = td.select_topk(scores, ratio)
    scaled = scores * float(2.0 ** log2_scale)
    keep_b, drop_b = td.select_topk(scaled, ratio)
    # Scaled down, a subnormal can round onto a neighbour; the new tie breaks
    # toward the lower position, so only a scaling that adds no tie must agree.
    if all(np.unique(a).size == np.unique(b).size
           for a, b in zip(scores, scaled)):
        np.testing.assert_array_equal(keep_a, keep_b)
        np.testing.assert_array_equal(drop_a, drop_b)


@given(drop_case())
@settings(max_examples=200, deadline=None)
def test_selection_deterministic(case):
    n, batch, scores, ratio = case
    first = td.select_topk(scores, ratio)
    second = td.select_topk(scores, ratio)
    np.testing.assert_array_equal(first[0], second[0])
    np.testing.assert_array_equal(first[1], second[1])
