"""Optimizer tests: hand-traced AdamW updates and the LR schedule."""

import math

import numpy as np
import pytest

from tokenskip.optim import AdamW, lr_at
from tokenskip.tensor import Tensor


def _param(value):
    return Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)


class TestAdamW:
    def test_first_step_moves_by_signed_lr(self):
        # With zero bias after correction, m_hat = g and v_hat = g*g, so the
        # first update is lr * g / (|g| + eps), essentially lr * sign(g).
        p = _param([0.0, 0.0])
        p.grad = np.array([1.0, -3.0])
        opt = AdamW({"p": p})
        opt.step(1e-3)
        np.testing.assert_allclose(p.data, [-1e-3, 1e-3], rtol=1e-7)

    def test_two_steps_match_hand_trace(self):
        p = _param([0.5])
        lr, wd, (b1, b2), eps = 2e-2, 0.1, (0.9, 0.999), 1e-8
        opt = AdamW({"p": p}, weight_decay=wd)
        ref = np.array([0.5])
        m = np.zeros(1)
        v = np.zeros(1)
        for t, g in enumerate([np.array([0.3]), np.array([-0.7])], start=1):
            p.grad = g.copy()
            opt.step(lr)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            ref = ref - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * ref)
            np.testing.assert_allclose(p.data, ref, rtol=1e-12)

    def test_decay_is_decoupled(self):
        # With no gradient signal the parameter shrinks geometrically by
        # (1 - lr * wd) per step, independent of the Adam moments.
        p = _param([2.0, -4.0])
        lr, wd = 1e-2, 0.5
        opt = AdamW({"p": p}, weight_decay=wd)
        for t in range(1, 6):
            opt.step(lr)
            np.testing.assert_allclose(p.data,
                                       np.array([2.0, -4.0]) * (1 - lr * wd) ** t,
                                       rtol=1e-12)

    def test_missing_grad_treated_as_zero(self):
        p = _param([1.0])
        q = _param([1.0])
        q.grad = np.array([1.0])
        opt = AdamW({"p": p, "q": q})
        opt.step(1e-3)
        np.testing.assert_allclose(p.data, [1.0])
        assert q.data[0] < 1.0

    def test_nan_gradient_names_parameter(self):
        p = _param([1.0])
        p.grad = np.array([np.nan])
        opt = AdamW({"blocks.0.ffn.w1": p})
        with pytest.raises(FloatingPointError, match="blocks.0.ffn.w1"):
            opt.step(1e-3)

    def test_inf_gradient_fails_before_the_update(self):
        p = _param([1.0, 1.0, 1.0])
        p.grad = np.array([1.0, np.inf, 1.0])
        opt = AdamW({"blocks.0.ffn.w1": p})
        with pytest.raises(FloatingPointError,
                           match="non-finite gradient in parameter "
                                 "'blocks.0.ffn.w1'"):
            opt.step(1e-3)
        np.testing.assert_array_equal(p.data, [1.0, 1.0, 1.0])

    def test_a_later_non_finite_gradient_fails_before_any_update(self):
        # The first parameter's gradient is finite, the second's is not:
        # neither parameter, no moment and not the step count may change.
        a, b = _param([1.0, 2.0]), _param([3.0])
        a.grad, b.grad = np.array([0.5, -0.5]), np.array([np.inf])
        opt = AdamW({"a": a, "b": b}, weight_decay=0.1)
        with pytest.raises(FloatingPointError, match="parameter 'b'"):
            opt.step(1e-3)
        np.testing.assert_array_equal(a.data, [1.0, 2.0])
        np.testing.assert_array_equal(b.data, [3.0])
        for moments in (opt.state.m, opt.state.v):
            assert not any(m.any() for m in moments.values())
        assert opt.state.step == 0

    def test_zero_lr_leaves_parameters(self):
        p = _param([0.0])
        p.grad = np.array([1.0])
        opt = AdamW({"p": p})
        opt.step(0.0)
        np.testing.assert_allclose(p.data, [0.0])

    def test_zero_grad(self):
        p = _param([1.0])
        p.grad = np.array([5.0])
        opt = AdamW({"p": p})
        opt.zero_grad()
        assert p.grad is None or not p.grad.any()


def _adamw_reference(p, g, m, v, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """The textbook AdamW step the in-place update must reproduce bit for bit."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    p = p - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * p)
    return p, m, v


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("wd", [0.0, 0.05])
def test_adamw_matches_textbook_step_bitwise(dtype, wd):
    rng = np.random.default_rng(4)
    shapes = {"w": (7, 5), "b": (5,)}
    params = {n: Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
              for n, s in shapes.items()}
    ref = {n: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
           for n, p in params.items()}
    opt = AdamW(params, weight_decay=wd)
    for t, lr in enumerate([1e-3, 2.5e-3, 7e-4], start=1):
        for n, p in params.items():
            p.grad = rng.normal(size=shapes[n]).astype(dtype)
            rp, rm, rv = ref[n]
            ref[n] = _adamw_reference(rp, p.grad, rm, rv, t, lr, wd)
        opt.step(lr)
        for n, p in params.items():
            rp, rm, rv = ref[n]
            assert p.data.dtype == dtype
            assert np.array_equal(p.data, rp)
            assert np.array_equal(opt.state.m[n], rm)
            assert np.array_equal(opt.state.v[n], rv)


class TestLRSchedule:
    KW = dict(learning_rate=1e-3, warmup_lr=1e-6, lr_warmup_epochs=2,
              epochs=10)

    def test_warmup_endpoints(self):
        assert lr_at(0, 0, 50, **self.KW) == pytest.approx(1e-6)
        assert lr_at(2, 0, 50, **self.KW) == pytest.approx(1e-3)

    def test_warmup_is_linear(self):
        mid = lr_at(1, 0, 50, **self.KW)
        assert mid == pytest.approx(0.5 * (1e-6 + 1e-3), rel=1e-6)

    def test_final_step_returns_warmup_lr(self):
        assert lr_at(9, 49, 50, **self.KW) == pytest.approx(1e-6)

    def test_cosine_midpoint(self):
        # Halfway through decay the cosine sits at the average of the ends.
        warmup_steps, last = 100, 499
        gs = warmup_steps + (last - warmup_steps) // 2
        phase = (gs - warmup_steps) / (last - warmup_steps)
        expected = 1e-6 + 0.5 * (1e-3 - 1e-6) * (1 + math.cos(math.pi * phase))
        assert lr_at(gs // 50, gs % 50, 50, **self.KW) == pytest.approx(expected)

    def test_monotone_decay_after_warmup(self):
        values = [lr_at(e, s, 50, **self.KW)
                  for e in range(2, 10) for s in range(50)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_degenerate_all_warmup(self):
        kw = dict(learning_rate=1e-3, warmup_lr=1e-6, lr_warmup_epochs=5,
                  epochs=5)
        assert lr_at(4, 49, 50, **kw) < 1e-3
        kw["lr_warmup_epochs"] = 0
        assert lr_at(0, 0, 1, epochs=1, learning_rate=1e-3, warmup_lr=1e-6,
                     lr_warmup_epochs=0) == pytest.approx(1e-3)
