import dataclasses
import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from tokenskip import tensor as T, tokendrop, trainer, vit
from tokenskip.data import CHANNELS
from tokenskip.tensor import Tensor
from tokenskip.tokendrop import DropSchedule, MODE_FUSE, MODE_SKIP
from tokenskip.vit import MODEL_PRESETS, ModelConfig, TokenBatch, ViT

from gradcheck import finite_difference, float64_model, relative_error

SMALL = ModelConfig(depth=6, heads=2, embed_dim=16, patch_size=4,
                    image_size=32, num_classes=10)
TINY = MODEL_PRESETS["tiny"]


def images_for(config, batch=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, CHANNELS, config.image_size,
                            config.image_size)).astype(np.float32)


class TestConfig:
    def test_embed_dim_must_divide(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(depth=1, heads=5, embed_dim=16, patch_size=4,
                        image_size=32, num_classes=2)

    def test_image_patch_mismatch(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(depth=1, heads=2, embed_dim=16, patch_size=5,
                        image_size=32, num_classes=2)

    def test_paper_shape_preset(self):
        cfg = MODEL_PRESETS["paper-vit-small"]
        assert cfg.num_patches == 196
        assert cfg.num_tokens == 197
        assert cfg.head_dim == 64

    def test_every_field_varies_across_presets(self):
        # A field with one value in every preset is a constant, not a knob.
        for f in dataclasses.fields(ModelConfig):
            values = {getattr(cfg, f.name) for cfg in MODEL_PRESETS.values()}
            assert len(values) >= 2, f.name

    def test_fields_have_no_defaults(self):
        # The presets are the one spelling of each model.
        with pytest.raises(TypeError):
            ModelConfig()


class TestInit:
    # Initial weights of each preset and seed, pinned so that the way the
    # parameters are declared and drawn cannot change their bits unnoticed.
    DIGESTS = {
        ("tiny", 0): "7375b92f7f16f58fb9b500a6114c4b20fce9c7daac7e4112d609259e3c64d4c6",
        ("tiny", 7): "5fedb5a2199ce96e12fcf578bc30823e1dd459a6724bddac9f85ef861d916f36",
        ("desk", 0): "8b5f0d3c0558a38ab7c6798d80c1212221beef90b6a3b5195642698a57da16e1",
        ("desk", 7): "12d16c527aaddc8440c1288c12f86f871f7ce0e2fe751878411f4443c2ab0722",
    }

    @pytest.mark.parametrize("preset,seed", sorted(DIGESTS))
    def test_init_bytes_are_pinned(self, preset, seed):
        model = ViT(MODEL_PRESETS[preset], seed=seed)
        digest = hashlib.sha256(
            b"".join(p.data.tobytes() for p in model.params.values())).hexdigest()
        assert digest == self.DIGESTS[preset, seed]

    @pytest.mark.parametrize("preset", ["tiny", "desk"])
    def test_params_follow_the_param_table(self, preset):
        config = MODEL_PRESETS[preset]
        table = vit.param_table(config)
        model = ViT(config, seed=0)
        assert list(model.params) == list(table)
        assert [p.shape for p in model.params.values()] == [
            shape for shape, _ in table.values()]

    def test_paper_table_is_vit_small_size(self):
        # ViT-S/16 at 224px with a 1000-class head has 22,050,664 parameters;
        # the table gives it without allocating the model.
        table = vit.param_table(MODEL_PRESETS["paper-vit-small"])
        assert sum(int(np.prod(shape)) for shape, _ in table.values()) == 22_050_664


class TestPatchify:
    def test_desk_token_count(self):
        model = ViT(SMALL, seed=0)
        out = model.patchify(images_for(SMALL))
        assert out.num_tokens == 65

    def test_paper_geometry_token_count(self):
        cfg = ModelConfig(depth=1, heads=2, embed_dim=16, patch_size=16,
                          image_size=224, num_classes=10)
        model = ViT(cfg, seed=0)
        out = model.patchify(images_for(cfg, batch=1))
        assert out.num_tokens == 197

    def test_positions_are_identity(self):
        # Row 0 is CLS and row i the i-th patch in raster order, each plus
        # its positional embedding: a token's row is its sequence position.
        model = ViT(SMALL, seed=0)
        imgs = images_for(SMALL)
        out = model.patchify(imgs)
        p, g = SMALL.patch_size, SMALL.image_size // SMALL.patch_size
        patches = imgs.reshape(2, CHANNELS, g, p, g, p).transpose(
            0, 2, 4, 1, 3, 5).reshape(2, g * g, CHANNELS * p * p)
        w = {name: t.data for name, t in model.params.items()}
        cls = np.broadcast_to(w["cls"], (2, 1, SMALL.embed_dim))
        expect = np.concatenate(
            [cls, patches @ w["patch.w"] + w["patch.b"]], axis=1) + w["pos"]
        np.testing.assert_allclose(out.embeddings.data, expect,
                                   rtol=1e-5, atol=1e-6)

    def test_size_mismatch(self):
        model = ViT(SMALL, seed=0)
        with pytest.raises(ValueError, match="expected images"):
            model.patchify(np.zeros((1, 3, 16, 16), dtype=np.float32))


class TestAttentionBlock:
    def test_record_rows_sum_to_one(self):
        model = ViT(SMALL, seed=1)
        tokens = model.patchify(images_for(SMALL))
        _, scores = model.attention_block(tokens, 0)
        sums = scores.data.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-5)
        assert (scores.data >= 0).all() and (scores.data <= 1).all()

    def test_uniform_attention_mixes_to_mean(self):
        # Zero Q/K projections force uniform scores; identity V and output
        # projections make each output row the token-mean of the normalized
        # values plus the residual.
        cfg = ModelConfig(depth=1, heads=1, embed_dim=4, patch_size=2,
                          image_size=4, num_classes=2)
        model = ViT(cfg, seed=2)
        eye = np.eye(4, dtype=np.float32)
        for name in ("attn.wq", "attn.wk"):
            model.params[f"blocks.0.{name}"].data[:] = 0.0
        model.params["blocks.0.attn.wv"].data[:] = eye
        model.params["blocks.0.attn.wo"].data[:] = eye
        tokens = model.patchify(images_for(cfg, batch=1))
        out, scores = model.attention_block(tokens, 0)
        np.testing.assert_allclose(scores.data, 1.0 / 5, atol=1e-6)
        x = tokens.embeddings.data
        normed = T.layernorm(tokens.embeddings,
                             model.params["blocks.0.ln1.g"],
                             model.params["blocks.0.ln1.b"]).data
        expect = x + normed.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(out.embeddings.data, expect, atol=1e-5)

    def test_scaling_factor_divides_by_sqrt_head_dim(self):
        cfg = ModelConfig(depth=1, heads=1, embed_dim=64, patch_size=16,
                          image_size=32, num_classes=2)
        assert cfg.head_dim == 64
        # With d = 64 the pre-softmax logits are divided by 8: feeding
        # constant-logit tokens through softmax is invariant, so instead
        # check the scale op arithmetic directly at the block's factor.
        logits = Tensor(np.full((1, 1, 5, 5), 16.0))
        scaled = T.scale(logits, 1.0 / np.sqrt(cfg.head_dim))
        np.testing.assert_allclose(scaled.data, 2.0)

    def test_positions_pass_through(self):
        # Attention mixes tokens but keeps each on its row: permuting the
        # input rows permutes the output rows alike.
        model = ViT(SMALL, seed=1)
        tokens = model.patchify(images_for(SMALL))
        perm = np.random.default_rng(0).permutation(tokens.num_tokens)
        out, _ = model.attention_block(tokens, 3)
        shuffled, _ = model.attention_block(
            TokenBatch(T.gather_rows(tokens.embeddings, perm)), 3)
        np.testing.assert_allclose(shuffled.embeddings.data,
                                   out.embeddings.data[:, perm],
                                   rtol=1e-5, atol=1e-6)


class TestFfnBlock:
    def test_zero_weights_identity(self):
        model = ViT(SMALL, seed=3)
        for name in ("ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2"):
            model.params[f"blocks.0.{name}"].data[:] = 0.0
        tokens = model.patchify(images_for(SMALL))
        out = model.ffn_block(tokens, 0)
        np.testing.assert_array_equal(out.embeddings.data, tokens.embeddings.data)

    def test_shape_preserved(self):
        model = ViT(SMALL, seed=3)
        tokens = model.patchify(images_for(SMALL))
        out = model.ffn_block(tokens, 1)
        assert out.embeddings.shape == tokens.embeddings.shape

    def test_gradient_matches_finite_differences(self):
        model = float64_model(TINY, seed=4)
        imgs = images_for(TINY, batch=1, seed=4).astype(np.float64)
        w1 = model.params["blocks.0.ffn.w1"]

        def loss():
            tokens = model.patchify(imgs)
            return float(model.ffn_block(tokens, 0).embeddings.data.sum())

        tokens = model.patchify(imgs)
        T.tensor_sum(model.ffn_block(tokens, 0).embeddings).backward()
        numeric = finite_difference(loss, w1.data)
        assert relative_error(w1.grad, numeric) < 1e-4


class TestClassify:
    def test_zero_head_gives_zero_logits(self):
        model = ViT(SMALL, seed=5)
        model.params["head.w"].data[:] = 0.0
        tokens = model.patchify(images_for(SMALL))
        logits = model.classify(tokens)
        np.testing.assert_array_equal(logits.data, np.zeros((2, 10)))

    def test_logit_shape(self):
        model = ViT(SMALL, seed=5)
        logits = model.classify(model.patchify(images_for(SMALL)))
        assert logits.shape == (2, 10)

    def test_softmax_of_logits_normalized(self):
        model = ViT(SMALL, seed=5)
        logits = model.classify(model.patchify(images_for(SMALL)))
        probs = T.softmax(logits, axis=1).data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def spy_on(monkeypatch, name: str) -> list:
    """Record (arguments, result) of each ``tokendrop.<name>`` call; the
    stash, which ``reinsert`` clears, is recorded as a copy."""
    seen = []
    op = getattr(tokendrop, name)

    def spy(*args):
        record = [list(a) if isinstance(a, list) else a for a in args]
        out = op(*args)
        seen.append((record, out))
        return out

    monkeypatch.setattr(tokendrop, name, spy)
    return seen


class TestForward:
    def test_schedule_none_matches_empty_schedule(self):
        model = ViT(SMALL, seed=6)
        imgs = images_for(SMALL)
        plain, _ = model.forward(imgs)
        explicit, _ = model.forward(imgs, DropSchedule())
        assert (plain.data == explicit.data).all()

    def test_ratio_zero_bit_identical(self):
        model = ViT(SMALL, seed=6)
        imgs = images_for(SMALL)
        plain, _ = model.forward(imgs)
        zeroed = DropSchedule(stages=((2, 0.0), (3, 0.0)), skip_target=5,
                              mode="skip")
        dropped, _ = model.forward(imgs, zeroed, epoch=10)
        assert (plain.data == dropped.data).all()

    def test_warmup_epoch_bit_identical(self):
        model = ViT(SMALL, seed=6)
        imgs = images_for(SMALL)
        plain, _ = model.forward(imgs)
        sched = DropSchedule(stages=((3, 0.55),), skip_target=5,
                             mode=MODE_SKIP, warmup_epochs=5)
        warm, _ = model.forward(imgs, sched, epoch=4)
        assert (plain.data == warm.data).all()
        hot, _ = model.forward(imgs, sched, epoch=5)
        assert not (plain.data == hot.data).all()

    def test_default_epoch_is_past_warmup(self):
        model = ViT(SMALL, seed=7)
        sched = DropSchedule(stages=((3, 0.55),), skip_target=5,
                             mode=MODE_SKIP, warmup_epochs=5)
        _, diag = model.forward(images_for(SMALL), sched)
        assert diag.attn_tokens == [65, 65, 65, 65, 30, 65]
        assert diag.kept_patches == {3: 29}

    def test_keep_count_through_layers(self):
        model = ViT(SMALL, seed=7)
        imgs = images_for(SMALL)
        sched = DropSchedule(stages=((3, 0.55),), skip_target=5,
                             mode=MODE_SKIP)
        _, diag = model.forward(imgs, sched, epoch=0)
        # 65 tokens in, drop at 3: layer 4 runs on ceil(64*0.45)+1 = 30 tokens,
        # reinsert restores the full count at the target layer.
        assert diag.attn_tokens == [65, 65, 65, 65, 30, 65]
        assert diag.kept_patches == {3: 29}

    def test_classified_positions_restored_under_skip(self, monkeypatch):
        reinserted = spy_on(monkeypatch, "reinsert")
        model = ViT(SMALL, seed=7)
        sched = DropSchedule(stages=((2, 0.3), (3, 0.3)), skip_target=5,
                             mode="skip")
        model.forward(images_for(SMALL), sched, epoch=0)
        ((live, stash), merged), = reinserted
        assert len(stash) == 2
        out, b = merged.embeddings.data, np.arange(2)[:, None]
        rows, dropped = np.tile(np.arange(65), (2, 1)), []
        for base, kept in stash:
            # Each row a stage dropped comes back bit-equal from the batch
            # it was cut from; ``rows`` maps that batch's rows to merged ones.
            cut = np.ones(base.shape[:2], dtype=bool)
            cut[b, kept] = False
            dropped.append(rows[cut].reshape(2, -1))
            np.testing.assert_array_equal(
                out[b, dropped[-1]],
                base.data[cut].reshape(2, -1, SMALL.embed_dim))
            rows = np.take_along_axis(rows, kept, axis=1)
        np.testing.assert_array_equal(out[b, rows], live.embeddings.data)
        assert (rows[:, 0] == 0).all(), "CLS is row 0 throughout"
        np.testing.assert_array_equal(
            np.sort(np.concatenate([rows] + dropped, axis=1), axis=1),
            np.tile(np.arange(65), (2, 1)))

    def test_attention_rows_normalized_at_every_layer_with_drops(
            self, monkeypatch):
        seen = []
        attention_block = ViT.attention_block

        def attn(self, tokens, layer):
            out, scores = attention_block(self, tokens, layer)
            seen.append(scores)
            return out, scores

        monkeypatch.setattr(ViT, "attention_block", attn)
        model = ViT(SMALL, seed=8)
        sched = DropSchedule(stages=((2, 0.5),), skip_target=4, mode=MODE_SKIP)
        model.forward(images_for(SMALL), sched, epoch=0)
        assert len(seen) == SMALL.depth
        for scores in seen:
            sums = scores.data.sum(axis=-1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-5)

    def test_fuse_mode_appends_single_token(self, monkeypatch):
        fused = spy_on(monkeypatch, "fuse_into")
        model = ViT(SMALL, seed=9)
        sched = DropSchedule(stages=((2, 0.45),), mode=MODE_FUSE)
        _, diag = model.forward(images_for(SMALL), sched, epoch=0)
        # ceil(64*0.55) = 36 kept patches + CLS + fused token = 38.
        assert diag.attn_tokens == [65, 65, 65, 38, 38, 38]
        ((tokens, importance, keep, drop), out), = fused
        x, b = tokens.embeddings.data, np.arange(2)[:, None]
        # CLS, then the kept rows in order, then the fused token last.
        np.testing.assert_array_equal(out.embeddings.data[:, 0], x[:, 0])
        np.testing.assert_array_equal(out.embeddings.data[:, 1:-1], x[b, keep])
        expect = tokendrop.fuse(Tensor(x[b, drop]),
                                Tensor(importance.data[b, drop - 1]))
        np.testing.assert_array_equal(out.embeddings.data[:, -1:], expect.data)


class TestGraphMemory:
    # A desk train-forward graph at batch 8 keeps 12.6 / 10.7 / 10.2 MiB
    # (dense / skip / fuse): the arrays its backward closures read, with each
    # layernorm output, the q, k and v projections, the attention context
    # and the GELU output remade in backward from the layernorm's xhat, the
    # weights, the scores and the GELU input. The bounds sit about 10%
    # above, and below the 18.7 / 15.7 / 15.1 MiB of a graph whose GELU kept
    # its output and derivative; one that also kept q, k, v and the context
    # held 24.7 / 21.1 / 20.2 MiB, one whose matmuls also kept each
    # layernorm output 27.7 / 23.7 / 22.7 MiB, and one that kept every node
    # output 52.9 / 46.0 / 43.5 MiB.
    @pytest.mark.parametrize("schedule, bound_mib", [
        (DropSchedule(), 13.9),
        (DropSchedule(stages=((3, 0.55),), skip_target=5, mode=MODE_SKIP), 11.8),
        (DropSchedule(stages=((3, 0.45),), mode=MODE_FUSE), 11.2),
    ], ids=["dense", "skip", "fuse"])
    def test_train_forward_graph_keeps_only_what_backward_reads(
            self, schedule, bound_mib):
        config = MODEL_PRESETS["desk"]
        model = ViT(config, seed=0)
        imgs = images_for(config, batch=8)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            logits, _ = model.forward(imgs, schedule)
            loss = T.cross_entropy(logits, np.arange(8) % 10)
            del logits
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert loss.requires_grad
        assert kept < bound_mib * 2 ** 20, f"{kept / 2 ** 20:.1f} MiB"

    @staticmethod
    def _traced_backward(schedule):
        """Backward's traced peak above the end-of-forward holding, and what
        is held after backward beyond the leaf gradients, with loss alive."""
        config = MODEL_PRESETS["desk"]
        model = ViT(config, seed=0)
        imgs = images_for(config, batch=8)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            logits, _ = model.forward(imgs, schedule)
            loss = T.cross_entropy(logits, np.arange(8) % 10)
            del logits
            gc.collect()
            forward_end = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert loss.requires_grad
        grads = sum(p.grad.nbytes for p in model.params.values())
        return peak - forward_end, after - before - grads

    SCHEDULES = pytest.mark.parametrize("schedule", [
        DropSchedule(),
        DropSchedule(stages=((3, 0.55),), skip_target=5, mode=MODE_SKIP),
        DropSchedule(stages=((3, 0.45),), mode=MODE_FUSE),
    ], ids=["dense", "skip", "fuse"])

    # Backward frees each closure's arrays as it passes them, so its peak
    # above the graph is one layer's transients: 2.92 / 2.92 / 1.97 MiB
    # (dense / skip / fuse), set in the last block's GELU backward, which
    # holds the incoming gradient, the input gradient it makes and three row
    # blocks of scratch while the graph still holds the GELU input; a
    # derivative rebuilt whole rather than a block at a time would not fit.
    # A GELU that kept its output and derivative peaked at 1.56 / 1.56 /
    # 1.02. Holding the whole graph to the end, it was 6.34.
    @SCHEDULES
    def test_backward_peaks_at_the_graph_plus_one_layer(self, schedule):
        above, _ = self._traced_backward(schedule)
        assert above < 3 * 2 ** 20, f"{above / 2 ** 20:.2f} MiB"

    # A spent graph holds the leaf gradients and about 0.02 MiB more; one
    # that kept its closures held the whole graph, 12.6 / 10.7 / 10.2 MiB.
    @SCHEDULES
    def test_spent_graph_holds_only_leaf_gradients(self, schedule):
        _, held = self._traced_backward(schedule)
        assert held < 0.1 * 2 ** 20, f"{held / 2 ** 20:.2f} MiB"

    # Backward walks op nodes only: the desk model's 104 parameters, the
    # leaves, are not on the tape.
    @pytest.mark.parametrize("schedule, nodes", [
        (DropSchedule(), 153),
        (DropSchedule(stages=((3, 0.55),), skip_target=5, mode=MODE_SKIP), 155),
    ], ids=["dense", "skip"])
    def test_every_tape_node_has_a_closure(self, schedule, nodes):
        model = ViT(MODEL_PRESETS["desk"], seed=0)
        logits, _ = model.forward(images_for(model.config, batch=8), schedule)
        tape = T.ComputeTape(T.cross_entropy(logits, np.arange(8) % 10))
        assert all(node.backward_fn is not None for node in tape.nodes)
        assert len(tape.nodes) == nodes


class TestTrainStep:
    # The loss and every parameter gradient of one desk batch-8 step, pinned
    # so that what backward keeps or remakes cannot change their bits
    # unnoticed. Taken with one BLAS thread: at this batch OpenBLAS sums the
    # weight-gradient products differently on two.
    DIGESTS = {
        "dense": ("8bc3628d8b4442d9eae58f492d95796a62833ec40cb71e54e548754aeb6c5ebe",
                  "5f2593122e2c1d4ae4c37e0d300771e012b146db553fe4f1f8a8b86bac57c6cb"),
        "skip": ("f348885ebf382c1861d03a267d41ec033c52c95829000dd6af97426ae47f7770",
                 "0a55f7e2741c879cf356f496438d772f925a3970e2a1ba882548406d3dc432aa"),
        "fuse": ("d48890a3a5b112eeec68067e35008ca311c3d2772c5deb6d9e2b7beeda2a923e",
                 "299598f2f42f1a223c364fa5f5bff6ec7672976617f24cfc238a61f017a2ca14"),
    }

    @pytest.mark.parametrize("name, schedule", [
        ("dense", DropSchedule()),
        ("skip", DropSchedule(stages=((3, 0.55),), skip_target=5, mode=MODE_SKIP)),
        ("fuse", DropSchedule(stages=((3, 0.45),), mode=MODE_FUSE)),
    ], ids=["dense", "skip", "fuse"])
    def test_step_bytes_are_pinned(self, name, schedule):
        controls = trainer._openblas_threads()
        if controls is None:
            pytest.skip("no OpenBLAS thread controls found")
        get, set_ = controls
        config = MODEL_PRESETS["desk"]
        model = ViT(config, seed=0)
        saved = get()
        set_(1)
        try:
            logits, _ = model.forward(images_for(config, batch=8), schedule)
            loss = T.cross_entropy(logits, np.arange(8) % 10)
            loss.backward()
        finally:
            set_(saved)
        grads = b"".join(p.grad.tobytes() for p in model.params.values())
        assert (hashlib.sha256(loss.data.tobytes()).hexdigest(),
                hashlib.sha256(grads).hexdigest()) == self.DIGESTS[name]


class TestEndToEndGradient:
    def test_tiny_model_gradients_match_finite_differences(self):
        # Tiny one layer deeper: the shallowest model with a valid drop layer.
        model = float64_model(dataclasses.replace(TINY, depth=3), seed=10)
        rng = np.random.default_rng(10)
        imgs = rng.normal(size=(2, 3, 4, 4))
        labels = np.array([0, 2])
        sched = DropSchedule(stages=((1, 0.5),), skip_target=2, mode="skip")

        def loss_fn():
            logits, _ = model.forward(imgs, sched, epoch=0)
            return float(T.cross_entropy(logits, labels).data)

        logits, _ = model.forward(imgs, sched, epoch=0)
        T.cross_entropy(logits, labels).backward()
        checked = 0
        for name in ("patch.w", "cls", "pos", "blocks.0.attn.wq",
                     "blocks.1.ffn.w1", "head.w", "ln_f.g"):
            p = model.params[name]
            numeric = finite_difference(loss_fn, p.data, eps=1e-6)
            assert relative_error(p.grad, numeric) < 1e-3, name
            checked += 1
        assert checked == 7
