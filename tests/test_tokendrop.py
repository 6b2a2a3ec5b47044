import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenskip import tensor as T
from tokenskip.tensor import Tensor
from tokenskip import tokendrop as td
from tokenskip.vit import AttentionRecord, ModelConfig, TokenBatch, ViT


def record_from(scores, layer=0):
    return AttentionRecord(Tensor(np.asarray(scores, dtype=np.float64)), layer)


def batch_from(emb, positions=None, layer=0):
    emb = np.asarray(emb, dtype=np.float64)
    if positions is None:
        positions = np.tile(np.arange(emb.shape[1]), (emb.shape[0], 1))
    return TokenBatch(Tensor(emb), np.asarray(positions), layer)


class TestClsImportance:
    def test_uniform_rows(self):
        scores = np.full((1, 2, 5, 5), 0.2)
        imp = td.cls_importance(record_from(scores))
        np.testing.assert_allclose(imp.scores.data, [[0.2] * 4])

    def test_single_head_drops_cls_column(self):
        scores = np.zeros((1, 1, 4, 4))
        scores[0, 0, 0] = [0.4, 0.3, 0.2, 0.1]
        imp = td.cls_importance(record_from(scores))
        np.testing.assert_allclose(imp.scores.data, [[0.3, 0.2, 0.1]])

    def test_two_head_mean(self):
        scores = np.zeros((1, 2, 3, 3))
        scores[0, 0, 0] = [0.5, 0.5, 0.0]
        scores[0, 1, 0] = [0.5, 0.0, 0.5]
        imp = td.cls_importance(record_from(scores))
        np.testing.assert_allclose(imp.scores.data, [[0.25, 0.25]])

    def test_too_few_tokens(self):
        with pytest.raises(ValueError):
            td.cls_importance(record_from(np.ones((1, 1, 1, 1))))


class TestSelectTopk:
    def test_half_ratio(self):
        imp = td.ImportanceVector(Tensor(np.array([[0.4, 0.1, 0.3, 0.2]])), 0)
        keep, drop = td.select_topk(imp, 0.5, np.array([[1, 2, 3, 4]]))
        np.testing.assert_array_equal(keep, [[1, 3]])
        np.testing.assert_array_equal(drop, [[2, 4]])

    def test_ratio_zero_keeps_everything(self):
        imp = td.ImportanceVector(Tensor(np.array([[0.4, 0.1, 0.3]])), 0)
        keep, drop = td.select_topk(imp, 0.0, np.array([[1, 2, 3]]))
        np.testing.assert_array_equal(keep, [[1, 2, 3]])
        assert drop.shape == (1, 0)

    def test_paper_shape_keep_count(self):
        rng = np.random.default_rng(0)
        imp = td.ImportanceVector(Tensor(rng.uniform(size=(1, 196))), 0)
        keep, drop = td.select_topk(imp, 0.55, np.arange(1, 197)[None, :])
        assert keep.shape[1] == 89
        assert drop.shape[1] == 107

    def test_tie_break_by_position(self):
        imp = td.ImportanceVector(Tensor(np.full((1, 4), 0.25)), 0)
        keep, drop = td.select_topk(imp, 0.5, np.array([[1, 2, 3, 4]]))
        np.testing.assert_array_equal(keep, [[1, 2]])
        np.testing.assert_array_equal(drop, [[3, 4]])

    def test_per_sample_selection(self):
        imp = td.ImportanceVector(
            Tensor(np.array([[0.9, 0.1], [0.1, 0.9]])), 0)
        keep, drop = td.select_topk(imp, 0.5, np.array([[1, 2], [1, 2]]))
        np.testing.assert_array_equal(keep, [[1], [2]])
        np.testing.assert_array_equal(drop, [[2], [1]])


class TestSplitReinsert:
    def test_empty_drop_is_identity(self):
        batch = batch_from(np.arange(12.0).reshape(1, 4, 3))
        stash = td.TokenStash()
        out = td.split(batch, np.array([[1, 2, 3]]), np.empty((1, 0), dtype=int),
                       stash, layer=1)
        assert out is batch
        assert not stash.entries

    def test_split_partitions_positions(self):
        batch = batch_from(np.arange(15.0).reshape(1, 5, 3))
        stash = td.TokenStash()
        out = td.split(batch, np.array([[1, 3]]), np.array([[2, 4]]), stash, 2)
        np.testing.assert_array_equal(out.positions, [[0, 1, 3]])
        np.testing.assert_array_equal(stash.entries[0].positions, [[2, 4]])

    def test_partition_violation_rejected(self):
        batch = batch_from(np.zeros((1, 5, 3)))
        with pytest.raises(ValueError, match="partition"):
            td.split(batch, np.array([[1, 2]]), np.array([[2, 4]]),
                     td.TokenStash(), 1)

    def test_reinsert_empty_stash_identity(self):
        batch = batch_from(np.zeros((1, 3, 2)))
        assert td.reinsert(batch, td.TokenStash()) is batch

    def test_reinsert_restores_rows_bit_exact(self):
        emb = np.arange(15.0).reshape(1, 5, 3)
        batch = batch_from(emb)
        stash = td.TokenStash()
        live = td.split(batch, np.array([[1, 3]]), np.array([[2, 4]]), stash, 2)
        merged = td.reinsert(live, stash)
        np.testing.assert_array_equal(merged.positions, [[0, 1, 2, 3, 4]])
        assert (merged.embeddings.data == emb).all()
        assert not stash.entries

    def test_duplicate_positions_rejected(self):
        batch = batch_from(np.zeros((1, 3, 2)), positions=np.array([[0, 1, 2]]))
        stash = td.TokenStash()
        stash.entries.append(td.StashEntry(1, Tensor(np.zeros((1, 1, 2))),
                                           np.array([[2]])))
        with pytest.raises(ValueError, match="positions"):
            td.reinsert(batch, stash)

    def test_two_stage_partition(self):
        emb = np.arange(15.0).reshape(1, 5, 3)
        batch = batch_from(emb)
        stash = td.TokenStash()
        live = td.split(batch, np.array([[1, 3]]), np.array([[2, 4]]), stash, 1)
        live = td.split(live, np.array([[1]]), np.array([[3]]), stash, 2)
        stashed = np.sort(stash.total_positions(), axis=1)
        np.testing.assert_array_equal(stashed, [[2, 3, 4]])
        merged = td.reinsert(live, stash)
        assert (merged.embeddings.data == emb).all()

    def test_gradients_flow_through_both_paths(self):
        emb = Tensor(np.arange(15.0).reshape(1, 5, 3), requires_grad=True)
        batch = TokenBatch(emb, np.arange(5)[None, :], 0)
        stash = td.TokenStash()
        live = td.split(batch, np.array([[1, 3]]), np.array([[2, 4]]), stash, 1)
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
        td.validate(td.DropSchedule.single(6, 0.55, 11), self.CFG)

    def test_two_stage(self):
        sched = td.DropSchedule(stages=((4, 0.3), (7, 0.3)), skip_target=10,
                                mode="skip")
        td.validate(sched, self.CFG)

    def test_target_before_drop_rejected(self):
        with pytest.raises(ValueError, match="skip_target"):
            td.validate(td.DropSchedule.single(7, 0.3, 6), self.CFG)

    def test_drop_layer_zero_rejected(self):
        with pytest.raises(ValueError, match="drop_layers"):
            td.validate(td.DropSchedule.single(0, 0.3, 5), self.CFG)

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

    def test_ratio_one_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            td.validate(td.DropSchedule.single(6, 1.0, 11), self.CFG)

    def test_none_mode_always_valid(self):
        td.validate(td.DropSchedule.none(), self.CFG)


def _plan_matrix(depth, warmup):
    """Criterion 4's schedules: dense, single, two-stage, fuse, both placements."""
    mid, last = depth // 2, depth - 1
    for after_ffn in (False, True):
        common = dict(warmup_epochs=warmup, drop_after_ffn=after_ffn)
        yield td.DropSchedule(**common)
        yield td.DropSchedule(stages=((mid, 0.55),), skip_target=last,
                              mode=td.MODE_SKIP, **common)
        yield td.DropSchedule(stages=((max(1, mid - 2), 0.3), (mid, 0.3)),
                              skip_target=last, mode=td.MODE_SKIP, **common)
        yield td.DropSchedule(stages=((mid, 0.45),), mode=td.MODE_FUSE, **common)


class TestPlan:
    CFG = ModelConfig(depth=6, heads=2, embed_dim=8, ffn_ratio=2,
                      patch_size=2, image_size=8, num_classes=3)

    def test_plan_matches_observed_forward(self, monkeypatch):
        """Every planned count equals what the forward pass actually runs on."""
        model = ViT(self.CFG, seed=0)
        images = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
        seen = {}
        ffn_block, fuse_into, reinsert = ViT.ffn_block, td.fuse_into, td.reinsert

        def ffn(self, tokens, layer):
            seen["ffn"].append(tokens.num_tokens)
            return ffn_block(self, tokens, layer)

        def fuse(tokens, importance, keep_pos, drop_pos, layer):
            seen["fused"][layer] = drop_pos.shape[1]
            return fuse_into(tokens, importance, keep_pos, drop_pos, layer)

        def merge(tokens, stash):
            # The batch still carries the index of the layer before.
            seen["reinsert"].append(tokens.layer_index + 1)
            return reinsert(tokens, stash)

        monkeypatch.setattr(ViT, "ffn_block", ffn)
        monkeypatch.setattr(td, "fuse_into", fuse)
        monkeypatch.setattr(td, "reinsert", merge)
        checked = 0
        for schedule in _plan_matrix(self.CFG.depth, warmup=2):
            for epoch in (1, 2):
                seen.update(ffn=[], fused={}, reinsert=[])
                _, diag = model.forward(images, schedule, epoch=epoch)
                steps = td.plan(schedule, self.CFG, epoch)
                assert [s.attn_tokens for s in steps] == diag.attn_tokens
                assert [s.ffn_tokens for s in steps] == seen["ffn"]
                assert {i: td.keep_count_for(s.attn_tokens - 1, s.ratio)
                        for i, s in enumerate(steps)
                        if s.ratio is not None} == diag.kept_patches
                assert {i: s.fused for i, s in enumerate(steps)
                        if s.fused} == seen["fused"]
                assert [i for i, s in enumerate(steps)
                        if s.reinsert] == seen["reinsert"]
                # Dense before warm-up; afterwards every stage drops.
                dense = td.plan(td.DropSchedule.none(), self.CFG)
                hot = epoch >= schedule.warmup_epochs and bool(schedule.stages)
                assert (steps != dense) == hot
                assert set(diag.kept_patches) == (
                    {layer for layer, _ in schedule.stages} if hot else set())
                checked += 1
        assert checked == 16

    def test_default_epoch_is_past_warmup(self):
        sched = td.DropSchedule.single(3, 0.55, 5, warmup_epochs=7)
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

    def test_layer_zero_drop_is_planned_without_validation(self):
        config = ModelConfig(depth=2, heads=2, embed_dim=8, ffn_ratio=2,
                             patch_size=2, image_size=4, num_classes=3)
        sched = td.DropSchedule(stages=((0, 0.5),), skip_target=1,
                                mode=td.MODE_SKIP)
        with pytest.raises(ValueError, match="layer 0"):
            td.validate(sched, config)
        assert td.plan(sched, config) == [
            td.LayerPlan(5, 3, 0.5), td.LayerPlan(5, 5, reinsert=True)]


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
    positions = np.tile(np.arange(1, n + 1), (batch, 1))
    imp = td.ImportanceVector(Tensor(scores), 0)
    keep, drop = td.select_topk(imp, ratio, positions)
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
    tokens = TokenBatch(Tensor(emb), np.tile(np.arange(n + 1), (batch, 1)), 0)
    stash = td.TokenStash()

    imp = td.ImportanceVector(Tensor(scores), 0)
    keep, drop = td.select_topk(imp, ratio, tokens.positions[:, 1:])
    tokens = td.split(tokens, keep, drop, stash, 1)

    live_patches = tokens.positions.shape[1] - 1
    if live_patches >= 1:
        scores2 = rng.uniform(size=(batch, live_patches))
        imp2 = td.ImportanceVector(Tensor(scores2), 1)
        keep2, drop2 = td.select_topk(imp2, ratio2, tokens.positions[:, 1:])
        tokens = td.split(tokens, keep2, drop2, stash, 2)

    stashed = stash.total_positions()
    combined = tokens.positions if stashed is None else \
        np.concatenate([tokens.positions, stashed], axis=1)
    np.testing.assert_array_equal(np.sort(combined, axis=1),
                                  np.tile(np.arange(n + 1), (batch, 1)))

    merged = td.reinsert(tokens, stash)
    np.testing.assert_array_equal(merged.positions,
                                  np.tile(np.arange(n + 1), (batch, 1)))
    assert (merged.embeddings.data == emb).all()


@given(drop_case(), st.integers(min_value=-8, max_value=8))
@settings(max_examples=200, deadline=None)
def test_selection_invariant_under_positive_scaling(case, log2_scale):
    n, batch, scores, ratio = case
    positions = np.tile(np.arange(1, n + 1), (batch, 1))
    keep_a, drop_a = td.select_topk(td.ImportanceVector(Tensor(scores), 0),
                                    ratio, positions)
    scaled = scores * float(2.0 ** log2_scale)
    keep_b, drop_b = td.select_topk(td.ImportanceVector(Tensor(scaled), 0),
                                    ratio, positions)
    np.testing.assert_array_equal(keep_a, keep_b)
    np.testing.assert_array_equal(drop_a, drop_b)


@given(drop_case())
@settings(max_examples=200, deadline=None)
def test_selection_deterministic(case):
    n, batch, scores, ratio = case
    positions = np.tile(np.arange(1, n + 1), (batch, 1))
    imp = td.ImportanceVector(Tensor(scores), 0)
    first = td.select_topk(imp, ratio, positions)
    second = td.select_topk(imp, ratio, positions)
    np.testing.assert_array_equal(first[0], second[0])
    np.testing.assert_array_equal(first[1], second[1])
