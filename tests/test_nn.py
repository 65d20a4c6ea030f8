import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bso import nn
from bso.model import MaskSet
from gradcheck import max_relative_error, numerical_grad
from oracles import (reference_dropout_masks, reference_lstm_cell_backward,
                     reference_lstm_cell_forward)


def rand(rng, *shape):
    return rng.uniform(-0.5, 0.5, size=shape)


class TestLstmCell:
    def test_all_zero_inputs_give_zero_state(self):
        d_in, h = 3, 4
        x = np.zeros((1, d_in))
        hp = np.zeros((1, h))
        cp = np.zeros((1, h))
        wx = np.zeros((d_in, 4 * h))
        wh = np.zeros((h, 4 * h))
        b = np.zeros(4 * h)
        out_h, out_c, _ = nn.lstm_cell_forward(x, hp, cp, wx, wh, b)
        # gates sit at 0.5 and the candidate at 0, so nothing flows
        assert np.allclose(out_h, 0.0)
        assert np.allclose(out_c, 0.0)

    def test_one_unit_cell_hand_computed(self):
        # x=1, h_prev=0.5, c_prev=-1; all weights 1, biases 0:
        # every pre-activation is 1.5
        x = np.array([[1.0]])
        hp = np.array([[0.5]])
        cp = np.array([[-1.0]])
        wx = np.ones((1, 4))
        wh = np.ones((1, 4))
        b = np.zeros(4)
        s = 1.0 / (1.0 + math.exp(-1.5))
        g = math.tanh(1.5)
        c_expect = s * (-1.0) + s * g
        h_expect = s * math.tanh(c_expect)
        out_h, out_c, _ = nn.lstm_cell_forward(x, hp, cp, wx, wh, b)
        assert out_c[0, 0] == pytest.approx(c_expect, rel=1e-12)
        assert out_h[0, 0] == pytest.approx(h_expect, rel=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(nn.DimensionError):
            nn.lstm_cell_forward(np.zeros((1, 3)), np.zeros((1, 4)),
                                 np.zeros((1, 4)), np.zeros((2, 16)),
                                 np.zeros((4, 16)), np.zeros(16))

    def test_backward_zero_upstream_gives_zero(self):
        rng = np.random.default_rng(0)
        d_in, h = 3, 4
        args = (rand(rng, 2, d_in), rand(rng, 2, h), rand(rng, 2, h))
        wx, wh, b = rand(rng, d_in, 4 * h), rand(rng, h, 4 * h), rand(rng, 4 * h)
        _, _, cache = nn.lstm_cell_forward(*args, wx, wh, b)
        gwx, gwh, gb = np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(b)
        dx, dhp, dcp = nn.lstm_cell_backward(cache, np.zeros((2, h)),
                                             np.zeros((2, h)), *args, wx, wh, gwx, gwh, gb)
        for arr in (dx, dhp, dcp, gwx, gwh, gb):
            assert np.allclose(arr, 0.0)

    def test_backward_linear_in_upstream(self):
        rng = np.random.default_rng(1)
        d_in, h = 3, 4
        args = (rand(rng, 1, d_in), rand(rng, 1, h), rand(rng, 1, h))
        wx, wh, b = rand(rng, d_in, 4 * h), rand(rng, h, 4 * h), rand(rng, 4 * h)
        _, _, cache = nn.lstm_cell_forward(*args, wx, wh, b)
        dh = rand(rng, 1, h)
        out1 = nn.lstm_cell_backward(cache, dh, np.zeros((1, h)), *args, wx, wh,
                                     np.zeros_like(wx), np.zeros_like(wh),
                                     np.zeros_like(b))
        out2 = nn.lstm_cell_backward(cache, 2 * dh, np.zeros((1, h)), *args, wx, wh,
                                     np.zeros_like(wx), np.zeros_like(wh),
                                     np.zeros_like(b))
        for a, b_ in zip(out1, out2):
            assert np.allclose(2 * a, b_, rtol=1e-12)

    @pytest.mark.parametrize("h", [3, 4])
    def test_gradients_match_finite_differences(self, h):
        rng = np.random.default_rng(2)
        d_in = 3
        x = rand(rng, 2, d_in)
        hp = rand(rng, 2, h)
        cp = rand(rng, 2, h)
        wx, wh, b = rand(rng, d_in, 4 * h), rand(rng, h, 4 * h), rand(rng, 4 * h)

        def loss():
            out_h, _, _ = nn.lstm_cell_forward(x, hp, cp, wx, wh, b)
            return float(out_h.sum())

        _, _, cache = nn.lstm_cell_forward(x, hp, cp, wx, wh, b)
        gwx, gwh, gb = np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(b)
        dh = np.ones((2, h))
        dx, dhp, dcp = nn.lstm_cell_backward(cache, dh, np.zeros((2, h)),
                                             x, hp, cp, wx, wh, gwx, gwh, gb)
        for analytic, arr in [(gwx, wx), (gwh, wh), (gb, b), (dx, x),
                              (dhp, hp), (dcp, cp)]:
            num = numerical_grad(loss, arr)
            assert max_relative_error(analytic, num) < 1e-4


class TestLstmCellMatchesReference:
    """The one-array cell reproduces the three-sigmoid reference bit for
    bit: states, input gradients and weight gradients."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 5, 32])
    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e4])
    def test_forward_and_backward_bit_identical(self, dtype, batch, scale):
        rng = np.random.default_rng(batch)
        d_in, h = 7, 6
        # pre-activations reach about +-scale: the sigmoids saturate at 1e4
        x, hp, cp = (rng.uniform(-1, 1, size=(batch, n)).astype(dtype) for n in (d_in, h, h))
        wx = (rng.uniform(-1, 1, size=(d_in, 4 * h)) * scale / d_in).astype(dtype)
        wh = (rng.uniform(-1, 1, size=(h, 4 * h)) * scale / h).astype(dtype)
        b = rng.uniform(-1, 1, size=4 * h).astype(dtype)
        dh, dc = (rng.uniform(-1, 1, size=(batch, h)).astype(dtype) for _ in range(2))
        outs = []
        for forward, backward in ((nn.lstm_cell_forward, nn.lstm_cell_backward),
                                  (reference_lstm_cell_forward, reference_lstm_cell_backward)):
            h_new, c_new, cache = forward(x, hp, cp, wx, wh, b)
            grads = [np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(b)]
            dx, dhp, dcp = backward(cache, dh, dc, x, hp, cp, wx, wh, *grads)
            outs.append([h_new, c_new, dx, dhp, dcp, *grads])
        pre = x @ wx + hp @ wh + b
        assert np.abs(pre).max() > scale / 10
        for got, want in zip(*outs):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_one_sigmoid_call_per_step(self, monkeypatch):
        calls = []
        sigmoid = nn.sigmoid
        monkeypatch.setattr(nn, "sigmoid", lambda z: calls.append(z.shape) or sigmoid(z))
        nn.lstm_cell_forward(np.zeros((3, 2)), np.zeros((3, 4)), np.zeros((3, 4)),
                             np.zeros((2, 16)), np.zeros((4, 16)), np.zeros(16))
        assert calls == [(3, 16)]


class TestScatterAdd:
    @settings(max_examples=200)
    @given(st.integers(1, 6), st.lists(st.integers(0, 5), max_size=14),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
    def test_equals_add_at_byte_for_byte(self, n_out, rows, dtype, seed):
        rows = np.array([r % n_out for r in rows], dtype=np.int64)
        rng = np.random.default_rng(seed)
        # magnitudes far apart, so that the order of the additions shows
        values = (rng.standard_normal((len(rows), 2, 3))
                  * 10.0 ** rng.integers(-8, 9, size=(len(rows), 1, 1))).astype(dtype)
        base = rng.standard_normal((n_out, 2, 3)).astype(dtype)
        want = base.copy()
        np.add.at(want, rows, values)
        got = base.copy()
        nn.scatter_add(got, rows, values)
        assert got.tobytes() == want.tobytes()

    def test_repeats_sum_in_the_order_given(self):
        # row 2 sums ((0 + 1e16) - 1e16) + 1 = 1; adding the 1 before the -1e16 gives 0
        rows = np.array([2, 0, 2, 2, 1, 0])
        values = np.array([1e16, 1.0, -1e16, 1.0, 3.0, 2.0])[:, None]
        got = np.zeros((3, 1))
        nn.scatter_add(got, rows, values)
        assert got[:, 0].tolist() == [3.0, 3.0, 1.0]

    def test_no_rows(self):
        out = np.ones((2, 3))
        nn.scatter_add(out, np.zeros(0, dtype=np.int64), np.zeros((0, 3)))
        assert np.array_equal(out, np.ones((2, 3)))


class TestAffine:
    def test_identity(self):
        x = np.array([[1.0, -2.0, 3.0]])
        assert np.array_equal(nn.affine_forward(x, np.eye(3), np.zeros(3)), x)

    def test_zero_input_returns_bias(self):
        b = np.array([0.5, -1.5])
        out = nn.affine_forward(np.zeros((2, 3)), np.zeros((3, 2)), b)
        assert np.allclose(out, b)

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        x, w, b = rand(rng, 2, 3), rand(rng, 3, 4), rand(rng, 4)
        d_out = rand(rng, 2, 4)

        def loss():
            return float((nn.affine_forward(x, w, b) * d_out).sum())

        gw, gb = np.zeros_like(w), np.zeros_like(b)
        dx = nn.affine_backward(x, w, d_out, gw, gb)
        for analytic, arr in [(gw, w), (gb, b), (dx, x)]:
            assert max_relative_error(analytic, numerical_grad(loss, arr)) < 1e-4


def log_softmax_backward(logp, d_logp):
    """d_scores given logp = log_softmax(scores) and upstream d_logp."""
    p = np.exp(logp)
    return d_logp - p * d_logp.sum(axis=-1, keepdims=True)


class TestLogSoftmax:
    def test_uniform_input(self):
        out = nn.log_softmax(np.full((1, 5), 3.7))
        assert np.allclose(out, -math.log(5), atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        x = rand(rng, 2, 6)
        assert np.allclose(nn.log_softmax(x), nn.log_softmax(x + 123.0), atol=1e-7)

    def test_value_against_high_precision_oracle(self):
        # expected values computed at high precision from the definition
        x = np.array([[1.0, 2.0, 3.0]])
        z = math.log(math.exp(1.0) + math.exp(2.0) + math.exp(3.0))
        expected = np.array([1.0 - z, 2.0 - z, 3.0 - z])
        assert np.allclose(nn.log_softmax(x)[0], expected, atol=1e-12)

    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=12),
           st.floats(min_value=-1e4, max_value=1e4))
    @settings(max_examples=100, deadline=None)
    def test_exp_sums_to_one(self, values, shift):
        x = np.array([values]) + shift
        total = np.exp(nn.log_softmax(x)).sum()
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rand(rng, 1, 5)
        d_up = rand(rng, 1, 5)

        def loss():
            return float((nn.log_softmax(x) * d_up).sum())

        dx = log_softmax_backward(nn.log_softmax(x), d_up)
        assert max_relative_error(dx, numerical_grad(loss, x)) < 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_gives_the_same_bits(self, dtype):
        x = (np.random.default_rng(6).standard_normal((7, 300)) * 20).astype(dtype)
        want = nn.log_softmax(x)
        into = np.empty_like(x)
        assert nn.log_softmax(x, out=into) is into
        got = x.copy()
        assert nn.log_softmax(got, out=got) is got
        for arr in (into, got):
            assert arr.dtype == want.dtype and arr.tobytes() == want.tobytes()

    def test_in_place_holds_one_array_of_the_input_size(self):
        """At a vocabulary of the paper's machine-translation size, working
        in place on the input allocates the exponentials and nothing else
        of [B, V] size (the out-of-place form holds two such arrays)."""
        x = np.random.default_rng(7).standard_normal((16, 25000))
        tracemalloc.start()
        try:
            nn.log_softmax(x, out=x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.nbytes <= peak < 1.5 * x.nbytes


def two_branch_sigmoid(x):
    """The masked two-branch logistic formula the kernel replaced."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    GRID = np.concatenate([[-1e4, -1e3, -100.0, -89.0, -30.0, 30.0, 89.0, 100.0, 1e3, 1e4],
                           np.linspace(-40.0, 40.0, 4001), [-0.0, 0.0, 1e-30, -1e-30]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_two_branch_formula_within_ulps(self, dtype):
        x = self.GRID.astype(dtype)
        want = two_branch_sigmoid(x)
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise",
                                                    divide="raise"):
            warnings.simplefilter("error")
            got = nn.sigmoid(x)
        assert got.dtype == dtype
        ulps = np.abs(got - want) / np.spacing(np.maximum(np.abs(want), np.finfo(dtype).tiny))
        assert ulps.max() <= 2.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturates_without_warnings(self, dtype):
        x = np.array([[-1e4, 1e4], [-np.inf, np.inf]], dtype=dtype)
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise",
                                                    divide="raise"):
            warnings.simplefilter("error")
            got = nn.sigmoid(x)
        assert np.array_equal(got, np.array([[0.0, 1.0], [0.0, 1.0]], dtype=dtype))

    def test_strided_gate_slice(self):
        # the LSTM passes column slices of its pre-activation
        pre = rand(np.random.default_rng(3), 4, 12) * 20
        assert np.array_equal(nn.sigmoid(pre[:, 3:6]), two_branch_sigmoid(pre[:, 3:6]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_byte_equal_to_the_masked_select(self, dtype):
        # the numerator max(e, x >= 0) is where(x >= 0, 1, e), bit for bit
        def masked(x):
            e = np.exp(-np.abs(x))
            return np.where(x >= 0, 1.0, e) / (1.0 + e)

        x = np.concatenate([self.GRID, [np.nan, -np.nan, np.inf, -np.inf]]).astype(dtype)
        pre = (rand(np.random.default_rng(4), 6, 16) * 50).astype(dtype)
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise",
                                                    divide="raise"):
            warnings.simplefilter("error")
            for arg in (x, pre[:, 4:8], pre[::2, 1::3]):
                got, want = nn.sigmoid(arg), masked(arg)
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes()


def slots_from(arrs):
    out = []
    for i, a in enumerate(arrs):
        s = nn.ParamSlot(f"p{i}", np.zeros_like(a))
        s.grad[...] = a
        out.append(s)
    return out


class TestClipGlobalNorm:
    def test_under_threshold_unchanged(self):
        slots = slots_from([np.array([1.0, 1.0]), np.array([1.0, 1.0])])
        nn.clip_global_norm(slots, 5.0)
        assert np.allclose(slots[0].grad, [1.0, 1.0])

    def test_scaling(self):
        slots = slots_from([np.array([6.0, 8.0])])
        nn.clip_global_norm(slots, 5.0)
        assert np.allclose(slots[0].grad, [3.0, 4.0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_norm_leaves_grads_untouched(self, bad):
        # scaling by max_norm / inf would turn every gradient into NaN
        slots = slots_from([np.array([6.0, 8.0]), np.array([bad, 1.0])])
        with warnings.catch_warnings(), np.errstate(invalid="raise"):
            warnings.simplefilter("error")
            norm = nn.clip_global_norm(slots, 5.0)
        assert not np.isfinite(norm)
        assert np.array_equal(slots[0].grad, [6.0, 8.0])
        assert np.array_equal(slots[1].grad, [bad, 1.0], equal_nan=True)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_resulting_norm(self, values):
        slots = slots_from([np.array(values)])
        before = nn.global_grad_norm(slots)
        nn.clip_global_norm(slots, 5.0)
        assert nn.global_grad_norm(slots) == pytest.approx(min(before, 5.0), abs=1e-6)

    def test_idempotent(self):
        slots = slots_from([np.array([10.0, -3.0, 4.0])])
        nn.clip_global_norm(slots, 5.0)
        once = slots[0].grad.copy()
        nn.clip_global_norm(slots, 5.0)
        assert np.allclose(slots[0].grad, once, rtol=1e-12)


class TestAdagrad:
    def test_zero_grad_no_change(self):
        s = nn.ParamSlot("w", np.array([1.0, 2.0]))
        nn.adagrad_step(s, 0.1)
        assert np.allclose(s.value, [1.0, 2.0])
        assert np.allclose(s.adagrad_accum, 0.0)

    def test_first_step_is_signed_lr(self):
        s = nn.ParamSlot("w", np.array([1.0]))
        s.grad[...] = np.array([0.25])
        nn.adagrad_step(s, 0.1)
        assert s.value[0] == pytest.approx(1.0 - 0.1, rel=1e-6)
        assert np.allclose(s.grad, 0.0)

    def test_second_identical_step_smaller(self):
        s = nn.ParamSlot("w", np.array([0.0]))
        s.grad[...] = np.array([0.5])
        nn.adagrad_step(s, 0.1)
        first = abs(s.value[0])
        s.grad[...] = np.array([0.5])
        nn.adagrad_step(s, 0.1)
        second = abs(s.value[0]) - first
        assert second < first

    def test_accum_monotone_and_finite(self):
        rng = np.random.default_rng(6)
        s = nn.ParamSlot("w", rng.normal(size=8))
        prev = s.adagrad_accum.copy()
        for _ in range(20):
            s.grad[...] = rng.normal(size=8)
            nn.adagrad_step(s, 0.5)
            assert np.all(s.adagrad_accum >= prev)
            assert np.all(np.isfinite(s.value))
            prev = s.adagrad_accum.copy()


class TestDropoutMasks:
    """MaskSet.build's ``layers`` counts layers: there are layers - 1
    boundaries that take a mask."""

    def test_rate_zero_all_ones(self):
        masks = MaskSet.build(0.0, 3, 1, 2, np.random.default_rng(0), 5).masks
        assert masks.shape == (3, 2, 5)
        assert np.all(masks == 1.0)

    def test_deterministic_given_seed(self):
        a = MaskSet.build(0.3, 3, 2, 2, np.random.default_rng(42), 6).masks
        b = MaskSet.build(0.3, 3, 2, 2, np.random.default_rng(42), 6).masks
        assert np.array_equal(a, b)

    def test_two_valued_and_scaled(self):
        masks = MaskSet.build(0.25, 2, 1, 0, np.random.default_rng(1), 1000).masks
        values = set(np.unique(masks))
        assert values <= {0.0, np.float32(1.0 / 0.75)}

    def test_keep_fraction(self):
        rate = 0.2
        masks = MaskSet.build(rate, 2, 50, 50, np.random.default_rng(7), 1000).masks
        keep = float((masks > 0).mean())
        assert abs(keep - (1 - rate)) < 0.01

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_one_draw_gives_the_per_step_masks(self, dtype, rate):
        """One draw of the whole array gives, bit for bit, the masks drawn
        one (step, boundary) at a time, the two encoder steps and then the
        three decoder steps, and leaves the generator where the per-step
        draws leave it."""
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        masks = MaskSet.build(rate, 3, 2, 3, rng, 7, dtype=dtype)
        want = reference_dropout_masks(rate, 2, 5, ref_rng, 7, dtype=dtype)
        for (t, l), m in want.items():
            got = (masks.get("enc", t) if t < 2 else masks.get("dec", t - 2))[l]
            assert got.dtype == m.dtype
            assert got.tobytes() == m.tobytes()
        assert rng.random() == ref_rng.random()

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MaskSet.build(1.0, 2, 2, 2, np.random.default_rng(0), 3)
