import gc
import io
import json
import os
import struct
import tempfile
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bso import nn, training
from bso.beam import PermutationConstraint, beam_search
from bso.model import (CheckpointError, InputError, MaskSet, ModelConfig, Seq2SeqModel,
                       StateGrad, param_shapes)
from bso.tasks import pad_ids
from gradcheck import max_relative_error, numerical_grad

BOS = 2


def score_g(model, state):
    """Log-probabilities [B, V]: log-softmax over score_f."""
    return nn.log_softmax(model.score_f(state))


def toy_model(src_vocab=7, tgt_vocab=9, d_emb=4, d_h=5, layers=1, seed=0,
              dtype=np.float64):
    cfg = ModelConfig(src_vocab=src_vocab, tgt_vocab=tgt_vocab, d_emb=d_emb,
                      d_h=d_h, layers=layers)
    return Seq2SeqModel(cfg, rng=np.random.default_rng(seed), dtype=dtype)


class TestEncode:
    def test_single_token_gives_one_annotation(self):
        m = toy_model()
        enc = m.encode(np.array([[3]]))
        assert enc.annotations.shape == (1, 1, 5)

    def test_deterministic(self):
        m = toy_model()
        src = np.array([[1, 2, 3]])
        a = m.encode(src)
        b = m.encode(src)
        assert np.array_equal(a.annotations, b.annotations)
        assert np.array_equal(a.init_state.h[0], b.init_state.h[0])

    def test_out_of_vocab_rejected(self):
        m = toy_model(src_vocab=7)
        with pytest.raises(InputError):
            m.encode(np.array([[7]]))
        with pytest.raises(InputError):
            m.encode(np.array([], dtype=np.int64).reshape(1, 0))

    @pytest.mark.parametrize("lengths", [[3, 0], [3, 7]])
    def test_length_outside_the_row_rejected(self, lengths):
        # either length leaves its row a zero final state: the encoder never
        # reaches the row's last step; a zero length also leaves it nothing
        # but padding to attend to
        m = toy_model()
        with pytest.raises(InputError, match=r"each in 1\.\.3"):
            m.encode(np.array([[1, 2, 3], [4, 5, 6]]), lengths=lengths)

    def test_lengths_not_one_per_row_rejected(self):
        m = toy_model()
        with pytest.raises(InputError, match="one per row"):
            m.encode(np.array([[1, 2, 3], [4, 5, 6]]), lengths=[3])

    def test_variable_lengths_match_unpadded(self):
        m = toy_model()
        full = m.encode(np.array([[1, 2]]))
        padded = m.encode(np.array([[1, 2, 0], [1, 2, 3]]), lengths=np.array([2, 3]))
        assert np.allclose(padded.annotations[0, :2], full.annotations[0])
        assert np.allclose(padded.init_state.h[0][0], full.init_state.h[0][0])
        assert padded.attn_bias is not None
        assert padded.attn_bias[0, 2] < -1e8


class TestDecodeStep:
    def test_single_source_token_attention_is_one(self):
        m = toy_model()
        enc = m.encode(np.array([[4]]))
        _, cache = m.decode_step(enc.init_state, [BOS], enc)
        assert cache["attn"].shape == (1, 1)
        assert cache["attn"][0, 0] == pytest.approx(1.0)

    def test_attention_normalized(self):
        m = toy_model()
        enc = m.encode(np.array([[1, 2, 3, 4]]))
        _, cache = m.decode_step(enc.init_state, [BOS], enc)
        assert np.all(cache["attn"] >= 0)
        assert cache["attn"].sum() == pytest.approx(1.0, abs=1e-6)

    def test_deterministic(self):
        m = toy_model()
        enc = m.encode(np.array([[1, 2]]))
        a, _ = m.decode_step(enc.init_state, [5], enc)
        b, _ = m.decode_step(enc.init_state, [5], enc)
        assert np.array_equal(a.input_feed, b.input_feed)

    def test_input_feed_carries_attn_hidden(self):
        m = toy_model()
        enc = m.encode(np.array([[1, 2]]))
        state, cache = m.decode_step(enc.init_state, [BOS], enc)
        assert np.array_equal(state.input_feed, cache["attn_hidden"])

    def test_rows_attend_to_their_own_source(self):
        # rows of one step may come from different sentences of a padded batch
        m = toy_model()
        srcs = [np.array([1, 2]), np.array([3, 4, 5, 6])]
        enc = m.encode(np.array([[1, 2, 0, 0], [3, 4, 5, 6]]), lengths=np.array([2, 4]))
        rows = [1, 0, 0, 1, 1]
        words = [5, 2, 6, 2, 7]
        state, cache = m.decode_step(enc.init_state.select(rows), words, enc)
        assert list(state.src) == rows
        for i, (b, w) in enumerate(zip(rows, words)):
            one = m.encode(srcs[b][None, :])
            ref, ref_cache = m.decode_step(one.init_state, [w], one)
            assert np.allclose(cache["attn"][i, :len(srcs[b])], ref_cache["attn"][0], atol=1e-12)
            assert np.all(cache["attn"][i, len(srcs[b]):] == 0.0)
            assert np.allclose(state.input_feed[i], ref.input_feed[0], atol=1e-12)

    def test_missing_dropout_mask_is_usage_error(self):
        m = toy_model(layers=2)
        masks = MaskSet.build(0.5, 2, 2, 3, np.random.default_rng(0), 5, dtype=np.float64)
        enc = m.encode(np.array([[1, 2]]), masks=masks)
        state = enc.init_state.select([0])
        state.step = 3
        with pytest.raises(LookupError):
            m.decode_step(state, [BOS], enc)


class TestScores:
    def test_g_is_log_softmax_of_f(self):
        m = toy_model()
        enc = m.encode(np.array([[1, 2]]))
        state, _ = m.decode_step(enc.init_state, [BOS], enc)
        f = m.score_f(state)
        g = score_g(m, state)
        assert np.allclose(g, nn.log_softmax(f), atol=1e-12)
        assert np.exp(g).sum() == pytest.approx(1.0, abs=1e-6)
        assert np.argmax(f) == np.argmax(g)

    def test_bias_shift_moves_f_not_g(self):
        m = toy_model()
        enc = m.encode(np.array([[1, 2]]))
        state, _ = m.decode_step(enc.init_state, [BOS], enc)
        f0, g0 = m.score_f(state), score_g(m, state)
        m.params["out.b"].value += 3.0
        f1, g1 = m.score_f(state), score_g(m, state)
        assert np.allclose(f1, f0 + 3.0, atol=1e-9)
        assert np.allclose(g1, g0, atol=1e-9)


class TestScoreBackward:
    """score_f_backward is the adjoint of score_f."""

    def step(self, m):
        enc = m.encode(np.array([[1, 2, 3], [4, 5, 6], [2, 2, 1]]))
        return m.decode_step(enc.init_state, [BOS, 4, 6], enc)

    def test_matches_the_affine_products(self):
        m = toy_model()
        state, _ = self.step(m)
        ah = state.input_feed
        d_f = np.random.default_rng(1).normal(size=(3, 9))
        m.zero_grads()
        d_ah = m.score_f_backward(ah, d_f)
        assert np.allclose(m.params["out.w"].grad, ah.T @ d_f, rtol=1e-12, atol=1e-15)
        assert np.allclose(m.params["out.b"].grad, d_f.sum(0), rtol=1e-12, atol=1e-15)
        assert np.allclose(d_ah, d_f @ m.params["out.w"].value.T, rtol=1e-12, atol=1e-15)
        # gradients accumulate across calls
        m.score_f_backward(ah, d_f)
        assert np.allclose(m.params["out.b"].grad, 2 * d_f.sum(0), rtol=1e-12, atol=1e-15)

    def test_matches_finite_differences(self):
        m = toy_model(dtype=np.float64)
        state, _ = self.step(m)
        weights = np.random.default_rng(2).normal(size=(3, 9))

        def loss():
            return float(np.sum(m.score_f(state) * weights))

        m.zero_grads()
        d_ah = m.score_f_backward(state.input_feed, weights)
        for name in ("out.w", "out.b"):
            num = numerical_grad(loss, m.params[name].value, step=1e-4)
            assert max_relative_error(m.params[name].grad, num) < 1e-7
        num = numerical_grad(loss, state.input_feed, step=1e-4)
        assert max_relative_error(d_ah, num) < 1e-7


class TestSelectStates:
    def make_state(self, m):
        enc = m.encode(np.array([[1, 2], [3, 4], [5, 6]]))
        return enc.init_state

    def test_identity(self):
        m = toy_model()
        s = self.make_state(m)
        t = s.select([0, 1, 2])
        assert np.array_equal(t.h[0], s.h[0])

    def test_duplication_isolated(self):
        m = toy_model()
        s = self.make_state(m)
        t = s.select([1, 1])
        t.h[0][0] += 100.0
        assert not np.array_equal(t.h[0][0], t.h[0][1])
        assert np.array_equal(s.h[0][1], t.h[0][1])

    def test_out_of_range(self):
        m = toy_model()
        s = self.make_state(m)
        with pytest.raises(IndexError):
            s.select([3])

    def test_scatter_is_the_adjoint_of_select(self):
        # <g, select(x)> == <scatter(g), x>, with repeated rows summed
        m = toy_model()
        rng = np.random.default_rng(1)
        x = self.make_state(m)
        rows = [2, 0, 2, 2]
        g = StateGrad([rng.normal(size=(4, 5))], [rng.normal(size=(4, 5))],
                      rng.normal(size=(4, 5)))
        back = g.scatter(rows, x.batch)
        y = x.select(rows)
        for a, b, c, d in ((g.h[0], y.h[0], back.h[0], x.h[0]),
                           (g.c[0], y.c[0], back.c[0], x.c[0]),
                           (g.input_feed, y.input_feed, back.input_feed, x.input_feed)):
            assert c.shape == d.shape
            assert np.sum(a * b) == pytest.approx(np.sum(c * d), rel=1e-12)
        assert np.array_equal(back.h[0][1], np.zeros(5))
        assert np.allclose(back.h[0][2], g.h[0][0] + g.h[0][2] + g.h[0][3])


class TestEndToEndGradients:
    """Cross-entropy gradient through encode + T decode steps vs finite
    differences (toy sizes, float64)."""

    @pytest.mark.parametrize("layers,dropout", [(1, 0.0), (2, 0.0), (2, 0.4)])
    def test_xent_grad_matches_fd(self, layers, dropout):
        m = toy_model(src_vocab=6, tgt_vocab=8, d_emb=3, d_h=4, layers=layers,
                      seed=3, dtype=np.float64)
        src = np.array([[1, 4, 2]])
        tgt = np.array([[5, 1, 7, 3]])
        masks = None
        if dropout > 0:
            masks = MaskSet.build(dropout, layers, 3, 4, np.random.default_rng(9), 4,
                                  dtype=np.float64)

        lengths = np.array([tgt.shape[1]])

        # each loss encodes, so finite differences move the encoder's
        # parameters too
        def loss_and_backward():
            m.zero_grads()
            return training.xent_loss(m, m.encode(src, masks=masks), tgt, lengths, BOS)

        loss_and_backward()
        analytic = {s.name: s.grad.copy() for s in m.slots()}

        def loss_only():
            return training.xent_loss(m, m.encode(src, masks=masks), tgt, lengths, BOS,
                                      backward=False)

        worst = 0.0
        for s in m.slots():
            num = numerical_grad(loss_only, s.value, step=1e-4)
            worst = max(worst, max_relative_error(analytic[s.name], num))
        assert worst < 1e-4

    def test_padded_positions_contribute_nothing(self):
        m = toy_model(dtype=np.float64)
        src = np.array([[1, 4, 2]])
        tgt_full = np.array([[5, 1, 7]])
        tgt_padded = np.array([[5, 1, 7, 0, 0]])
        m.zero_grads()
        l1 = training.xent_loss(m, m.encode(src), tgt_full, np.array([3]), BOS)
        g1 = {s.name: s.grad.copy() for s in m.slots()}
        m.zero_grads()
        l2 = training.xent_loss(m, m.encode(src), tgt_padded, np.array([3]), BOS)
        assert l1 == pytest.approx(l2, rel=1e-12)
        for s in m.slots():
            assert np.allclose(g1[s.name], s.grad, atol=1e-12)


class TestXentMemory:
    def test_nothing_of_vocabulary_size_is_kept_across_steps(self):
        """The traced peak of one encode and xent_loss grows with the number
        of target steps by far less than one [B, V] float32 array per step."""
        B, V = 8, 3000
        rng = np.random.default_rng(0)
        m = toy_model(src_vocab=7, tgt_vocab=V, d_emb=4, d_h=8, dtype=np.float32)
        src = rng.integers(3, 7, size=(B, 5))
        tgts = {T: rng.integers(3, V, size=(B, T)) for T in (10, 40)}
        peaks = {}
        for T, tgt in tgts.items():
            # each traced loss makes the gradient buffers afresh
            m.zero_grads()
            tracemalloc.start()
            try:
                training.xent_loss(m, m.encode(src), tgt, np.full(B, T), BOS)
                peaks[T] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[40] - peaks[10] < 0.5 * 30 * B * V * 4

    @pytest.mark.parametrize("layers, dropout", [(1, 0.0), (2, 0.3)])
    def test_a_step_keeps_only_what_the_backward_cannot_rebuild(self, layers, dropout):
        """Per extra target step and row, xent_loss keeps per layer the
        cell state and the output (H each), plus the attention weights (S),
        the attention hidden state and its gradient (H each): 2LH + 2H + S
        floats. The layer inputs, the gates (4H), tanh(c) and the attention
        context are rebuilt by the backward. E and H outweigh V here, so
        caching any of those would break the bound."""
        B, E, H, V, S = 32, 64, 32, 10, 4
        rng = np.random.default_rng(0)
        m = toy_model(src_vocab=7, tgt_vocab=V, d_emb=E, d_h=H, layers=layers,
                      dtype=np.float32)
        src = rng.integers(3, 7, size=(B, S))
        peaks = {}
        for T in (10, 40):
            tgt = rng.integers(3, V, size=(B, T))
            masks = (MaskSet.build(dropout, layers, S, T, np.random.default_rng(1), H)
                     if dropout else None)
            m.zero_grads()
            tracemalloc.start()
            try:
                training.xent_loss(m, m.encode(src, masks=masks), tgt, np.full(B, T), BOS)
                peaks[T] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        per_step = (peaks[40] - peaks[10]) / 30
        # 4 KiB per step for the Python objects of a step: dicts, lists,
        # array headers and the int64 words
        assert per_step < B * (2 * layers * H + 2 * H + S) * 4 + 4096

    def test_the_sweep_makes_each_gradient_at_its_first_write(self, monkeypatch):
        """Beyond what the forward leaves, the reverse sweep's traced peak
        holds the annotation gradient, the gradients of the attention layer
        and of decoder layer 0, and what one step's backward holds alone
        with every gradient made. The [V, E] target-embedding gradient is
        made after the decoder steps, and a layer's gradients after the
        first step has rebuilt and freed its gates. The shape is that of
        the xent-b32 benchmark: the embedding gradient outweighs one step's
        cache, and a layer's gradients outweigh what the first step frees,
        so making either one earlier breaks the bound."""
        B, E, H, V, S, T = 32, 32, 48, 304, 8, 10
        rng = np.random.default_rng(0)
        m = toy_model(src_vocab=7, tgt_vocab=V, d_emb=E, d_h=H, dtype=np.float32)
        src, tgt = rng.integers(3, 7, size=(B, S)), rng.integers(3, V, size=(B, T))
        sweep, held = training._reverse_sweep, []

        def traced_sweep(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return sweep(*args)
        monkeypatch.setattr(training, "_reverse_sweep", traced_sweep)
        # measured at the second call: the first also fills numpy's caches
        for _ in range(2):
            held.clear()
            m.zero_grads()
            tracemalloc.start()
            try:
                training.xent_loss(m, m.encode(src), tgt, np.full(B, T), BOS)
                rise = tracemalloc.get_traced_memory()[1] - held[0]
            finally:
                tracemalloc.stop()
        # the last step's backward alone, every gradient buffer made
        enc = m.encode(src)
        state = enc.init_state
        for t in range(T):
            prev = state
            state, cache = m.decode_step(prev, tgt[:, t - 1] if t else np.full(B, BOS), enc)
        d_state = StateGrad([np.ones((B, H), np.float32)], [np.zeros((B, H), np.float32)],
                            np.ones((B, H), np.float32))
        d_ann = np.zeros_like(enc.annotations)
        tracemalloc.start()
        try:
            m.decode_step_backward(cache, d_state, d_ann, prev)
            one_step = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grads = sum(m.params[n].value.nbytes
                    for n in ("attn.w", "attn.b", "dec0.wx", "dec0.wh", "dec0.b"))
        # 8 KiB for the Python objects of the sweep and its first step's
        # state gradient
        assert rise < d_ann.nbytes + grads + one_step + 8192


class TestEncoderMemory:
    @pytest.mark.parametrize("layers, dropout", [(1, 0.0), (2, 0.3)])
    def test_a_step_keeps_no_layer_input(self, layers, dropout):
        """Per extra source step and row, an EncodedSource keeps per layer
        the cell state and the output (H each): 2LH floats. The top layer's
        outputs are the annotations. The layer inputs, the embedded words
        among them, and the gates (4H per layer) are rebuilt by
        encode_backward; E outweighs 2LH here, so keeping either would
        break the bound."""
        B, E, H = 32, 64, 8
        rng = np.random.default_rng(0)
        m = toy_model(src_vocab=7, d_emb=E, d_h=H, layers=layers, dtype=np.float32)
        kept = {}
        for S in (10, 40):
            src = rng.integers(3, 7, size=(B, S))
            masks = (MaskSet.build(dropout, layers, S, 0, np.random.default_rng(1), H)
                     if dropout else None)
            tracemalloc.start()
            try:
                enc = m.encode(src, masks=masks)
                kept[S] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            del enc
        per_step = (kept[40] - kept[10]) / 30
        # 4 KiB per step for the Python objects of a step: dicts, lists and
        # array headers
        assert per_step < B * 2 * layers * H * 4 + 4096


class TestDecodeStepBackwardMemory:
    def test_holds_one_annotation_sized_array(self):
        """One step's backward gathers its rows' annotations [rows, S, H]
        and turns that buffer into their gradient, adding one product a
        block of rows at a time: one such array and a quarter of one,
        besides arrays of rows x (S + H) floats. The rows come from one
        source, as a beam's hypotheses do, so the scatter into the
        encoder's gradient adds one row at a time; rows of distinct sources
        would add its fancy-indexed copy of the whole gradient."""
        rows, E, H, S = 32, 16, 64, 40
        rng = np.random.default_rng(0)
        m = toy_model(src_vocab=9, d_emb=E, d_h=H, dtype=np.float32)
        enc = m.encode(rng.integers(3, 9, size=(1, S)))
        state = enc.init_state.select(np.zeros(rows, dtype=np.int64))
        _, cache = m.decode_step(state, rng.integers(3, 9, size=rows), enc)
        g = [rng.standard_normal((rows, H)).astype(np.float32) for _ in range(3)]
        d_state = StateGrad([g[0]], [g[1]], g[2])
        d_ann = np.zeros_like(enc.annotations)
        # the gradient buffers exist before the traced call
        m.decode_step_backward(cache, d_state, d_ann, state)
        tracemalloc.start()
        try:
            m.decode_step_backward(cache, d_state, d_ann, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * rows * S * H * 4 + rows * (8 * H + 4 * S) * 4


class TestAttentionWeights:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_the_softmax_formula(self, dtype):
        # attention weights are exp(s - max) / sum over each row's scores s,
        # with padded positions under the ATTN_NEG bias: pinned byte for byte
        m = toy_model(src_vocab=9, d_emb=8, d_h=16, dtype=dtype)
        for slot in m.slots():
            slot.value *= 20        # scores of a few units, not of a few hundredths
        enc = m.encode(np.array([[1, 2, 3, 4, 5], [6, 7, 0, 0, 0], [8, 1, 4, 2, 0]]),
                       lengths=[5, 2, 4])
        assert enc.attn_bias is not None
        rows = np.array([2, 0, 1, 1, 2])
        state, cache = m.decode_step(enc.init_state.select(rows), [BOS, 4, 5, 6, 7], enc)
        ann = enc.annotations[rows]
        s = np.einsum("bsh,bh->bs", ann, state.h[-1]) + enc.attn_bias[rows]
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        assert np.ptp(s[enc.attn_bias[rows] == 0]) > 1.0
        attn = cache["attn"]
        assert attn.dtype == dtype
        assert attn.tobytes() == want.tobytes()
        assert not attn[enc.attn_bias[rows] != 0].any()
        context = np.einsum("bs,bsh->bh", want, ann)
        hidden = np.tanh(np.concatenate([context, state.h[-1]], axis=1)
                         @ m.params["attn.w"].value + m.params["attn.b"].value)
        assert state.input_feed.tobytes() == hidden.tobytes()


class TestAstype:
    def test_a_copy_trains_on_as_its_original(self):
        # the copy keeps the Adagrad accumulators: trained further, it
        # takes the steps its original takes
        m = toy_model(dtype=np.float32)
        rng = np.random.default_rng(3)
        pairs = [(rng.integers(1, 7, size=int(rng.integers(2, 6))),
                  np.append(rng.integers(4, 9, size=int(rng.integers(1, 5))), 3))
                 for _ in range(12)]
        cfg = training.TrainConfig(batch_size=4, lr_main=0.1, lr_out=0.2)
        for _ in range(2):
            training.train_xent_epoch(m, pairs, cfg, rng, BOS)
        copy = m.astype(m.dtype)
        assert all(s.adagrad_accum.any() for s in m.slots())
        for model in (m, copy):
            rng = np.random.default_rng(4)
            for _ in range(2):
                training.train_xent_epoch(model, pairs, cfg, rng, BOS)
        for name, slot in m.params.items():
            assert copy.params[name].value.tobytes() == slot.value.tobytes()
            assert copy.params[name].adagrad_accum.tobytes() == slot.adagrad_accum.tobytes()

    def test_the_copy_shares_no_array(self):
        m = toy_model()
        copy = m.astype(m.dtype)
        for name, slot in copy.params.items():
            for field in ("value", "grad", "adagrad_accum"):
                assert not np.shares_memory(getattr(slot, field),
                                            getattr(m.params[name], field))


def held_bytes(fn):
    """fn's result and the traced bytes allocated during the call and still
    held after it."""
    tracemalloc.start()
    try:
        out = fn()
        gc.collect()
        return out, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestGradientLifetime:
    """A gradient buffer lives from the first write of a backward pass to
    the update that consumes it. The model's parameters outweigh the few
    KiB of Python objects a model, a copy or a search keeps, so one more
    parameter-sized buffer breaks each bound."""

    def model(self):
        return toy_model(src_vocab=30, tgt_vocab=40, d_emb=16, d_h=24, dtype=np.float32)

    @staticmethod
    def param_bytes(m):
        return sum(s.value.nbytes for s in m.slots())

    def test_built_copied_or_loaded_holds_values_and_accumulators(self, tmp_path):
        m = self.model()
        size = self.param_bytes(m)
        m.save(tmp_path / "m.bso")
        for make in (self.model, lambda: m.astype(m.dtype),
                     lambda: Seq2SeqModel.load(tmp_path / "m.bso")[0]):
            # measured at the second call: the first load also keeps the
            # state of the modules it is the first to use
            make()
            _, held = held_bytes(make)
            # 8 KiB for the Python objects of the model and its slots
            assert 2 * size <= held <= 2 * size + 8192

    def test_the_update_releases_the_gradients(self):
        m = self.model()
        rng = np.random.default_rng(0)
        src, tgt = rng.integers(3, 30, size=(4, 5)), rng.integers(3, 40, size=(4, 6))
        tracemalloc.start()
        try:
            training.xent_loss(m, m.encode(src), tgt, np.full(4, 6), BOS)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            training.optimizer_step(m, training.TrainConfig())
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert before - after >= self.param_bytes(m)
        for s in m.slots():
            assert s.grad.shape == s.value.shape and not s.grad.any()

    def test_search_leaves_no_gradient_buffer(self):
        m = self.model()
        rng = np.random.default_rng(1)
        srcs = [[int(w) for w in rng.integers(4, 30, size=n)] for n in (3, 5, 4)]
        src, lengths = pad_ids(srcs)
        golds = [tuple(rng.permutation(s).tolist()) + (3,) for s in srcs]

        def search():
            copy = m.astype(m.dtype)
            enc = copy.encode(src, lengths)
            constraints = [PermutationConstraint(40, s, 3) for s in srcs]
            training.bso_forward(copy, enc, golds, 4, constraints, training.delta_01, BOS)
            beam_search(copy, enc, 4, constraints, [len(s) + 1 for s in srcs], BOS, 3)
            return copy
        _, held = held_bytes(search)
        assert held <= 2 * self.param_bytes(m) + 8192


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        m = toy_model(dtype=np.float32)
        m.params["out.w"].adagrad_accum += 0.5
        path = tmp_path / "model.bso"
        m.save(path, extra={"note": ["a", "b"]})
        loaded, extra = Seq2SeqModel.load(path)
        assert extra == {"note": ["a", "b"]}
        assert loaded.config.to_dict() == m.config.to_dict()
        for name, slot in m.params.items():
            assert np.array_equal(loaded.params[name].value, slot.value)
            assert np.array_equal(loaded.params[name].adagrad_accum,
                                  slot.adagrad_accum)

    def test_same_outputs_after_reload(self, tmp_path):
        m = toy_model(dtype=np.float32)
        path = tmp_path / "model.bso"
        m.save(path)
        loaded, _ = Seq2SeqModel.load(path)
        src = np.array([[1, 2, 3]])
        a = m.encode(src)
        b = loaded.encode(src)
        state_a, _ = m.decode_step(a.init_state, [BOS], a)
        state_b, _ = loaded.decode_step(b.init_state, [BOS], b)
        assert np.array_equal(m.score_f(state_a), loaded.score_f(state_b))

    def test_old_bsoc_format_rejected(self, tmp_path):
        # the format before the zip archive: b"BSOC", the header, then a
        # b"BSO1" fragment of named tensors
        m = toy_model(dtype=np.float32)
        header = json.dumps({"config": m.config.to_dict(), "extra": {}}).encode("utf-8")
        path = tmp_path / "old.bso"
        with open(path, "wb") as fh:
            fh.write(b"BSOC" + struct.pack("<I", len(header)) + header)
            fh.write(b"BSO1" + struct.pack("<I", 2 * len(m.params)))
            for name, slot in m.params.items():
                for member, arr in ((name, slot.value), (name + ".accum", slot.adagrad_accum)):
                    fh.write(struct.pack("<I", len(member)) + member.encode("utf-8"))
                    fh.write(struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape))
                    fh.write(arr.astype("<f4").tobytes())
        with pytest.raises(CheckpointError, match="old BSOC format; write it again"):
            Seq2SeqModel.load(path)

    def test_members_are_stored_in_order_with_a_fixed_date(self, tmp_path):
        m = toy_model(dtype=np.float32)
        m.save(tmp_path / "a.bso")
        m.save(tmp_path / "b.bso")
        assert (tmp_path / "a.bso").read_bytes() == (tmp_path / "b.bso").read_bytes()
        with zipfile.ZipFile(tmp_path / "a.bso") as zf:
            infos = zf.infolist()
        assert [i.filename for i in infos] == ["header.json"] + [
            n for name in m.params for n in (name, name + ".accum")]
        for info in infos:
            assert info.compress_type == zipfile.ZIP_STORED
            assert info.date_time == (1980, 1, 1, 0, 0, 0)


def load_bytes(data):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.bso")
        with open(path, "wb") as fh:
            fh.write(data)
        return Seq2SeqModel.load(path)[0]


class TestCheckpointRobustness:
    @pytest.fixture(scope="class")
    def saved(self):
        """A small model with non-zero accumulators."""
        m = toy_model(src_vocab=5, tgt_vocab=6, d_emb=2, d_h=3, dtype=np.float32)
        rng = np.random.default_rng(1)
        for slot in m.params.values():
            slot.adagrad_accum += rng.random(slot.value.shape, dtype=np.float32)
        return m

    @pytest.fixture(scope="class")
    def data(self, saved, tmp_path_factory):
        """The bytes of the small model's checkpoint."""
        path = tmp_path_factory.mktemp("ckpt") / "model.bso"
        saved.save(path, extra={"note": "x"})
        return path.read_bytes()

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=200)
    def test_truncations_raise_checkpoint_error(self, data, cut):
        with pytest.raises(CheckpointError):
            load_bytes(data[:cut % len(data)])

    @given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 255)),
                    min_size=1, max_size=3))
    @settings(max_examples=300)
    def test_byte_flips_load_consistently_or_raise_checkpoint_error(self, saved, data, flips):
        blob = bytearray(data)
        for pos, bits in flips:
            blob[pos % len(blob)] ^= bits
        try:
            model = load_bytes(bytes(blob))
        except CheckpointError:
            return
        # a copy that loads was flipped where no reader looks: it holds the saved model
        assert list(model.params) == list(param_shapes(saved.config))
        for name, slot in model.params.items():
            assert slot.value.tobytes() == saved.params[name].value.tobytes()
            assert slot.adagrad_accum.tobytes() == saved.params[name].adagrad_accum.tobytes()

    def test_a_flip_in_tensor_data_fails_its_crc(self, data):
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            info = zf.getinfo("out.w")
        # the local header: 30 fixed bytes, the name, then the member's data
        blob = bytearray(data)
        blob[info.header_offset + 30 + len(info.filename) + 5] ^= 0x01
        with pytest.raises(CheckpointError, match="CRC-32 for file 'out.w'"):
            load_bytes(bytes(blob))

    def test_truncated_file_is_a_checkpoint_error_not_a_buffer_error(self, data):
        with pytest.raises(CheckpointError, match="truncated"):
            load_bytes(data[:-3])

    def test_trailing_bytes_rejected(self, data):
        with pytest.raises(CheckpointError, match="bytes after its zip end record"):
            load_bytes(data + b"\0")

    def write(self, path, config, tensors):
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("header.json", json.dumps({"config": config, "extra": {}}))
            for name, arr in tensors.items():
                zf.writestr(name, np.asarray(arr, dtype="<f4").tobytes())

    def tensors(self, m):
        out = {}
        for name, slot in m.params.items():
            out[name] = slot.value
            out[name + ".accum"] = slot.adagrad_accum
        return out

    def test_shape_mismatch_rejected(self, tmp_path):
        m = toy_model(dtype=np.float32)
        config = dict(m.config.to_dict(), d_h=m.config.d_h + 1)
        self.write(tmp_path / "m.bso", config, self.tensors(m))
        with pytest.raises(CheckpointError, match="shape"):
            Seq2SeqModel.load(tmp_path / "m.bso")

    def test_parameter_set_mismatch_rejected(self, tmp_path):
        m = toy_model(dtype=np.float32)
        tensors = self.tensors(m)
        del tensors["attn.b.accum"]
        tensors["extra.w"] = np.zeros(2)
        self.write(tmp_path / "m.bso", m.config.to_dict(), tensors)
        with pytest.raises(CheckpointError, match="missing .'attn.b.accum'., "
                                                  "unexpected .'extra.w'."):
            Seq2SeqModel.load(tmp_path / "m.bso")

    @pytest.mark.parametrize("change", ["missing_field", "zero_size", "not_a_mapping"])
    def test_bad_header_rejected(self, tmp_path, change):
        m = toy_model(dtype=np.float32)
        config = m.config.to_dict()
        if change == "missing_field":
            del config["d_emb"]
        elif change == "zero_size":
            config["d_h"] = 0
        else:
            config = list(config.values())
        self.write(tmp_path / "m.bso", config, self.tensors(m))
        with pytest.raises(CheckpointError, match="header|configuration"):
            Seq2SeqModel.load(tmp_path / "m.bso")


class TestAtomicSave:
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        old = toy_model(seed=1, dtype=np.float32)
        path = tmp_path / "model.bso"
        old.save(path)

        writestr = zipfile.ZipFile.writestr

        def broken(zf, info, data):
            writestr(zf, info, data[:3])
            raise OSError("disk full")

        monkeypatch.setattr(zipfile.ZipFile, "writestr", broken)
        with pytest.raises(OSError, match="disk full"):
            toy_model(seed=2, dtype=np.float32).save(path)
        loaded, _ = Seq2SeqModel.load(path)
        for name, slot in old.params.items():
            assert np.array_equal(loaded.params[name].value, slot.value)
        assert [p.name for p in tmp_path.iterdir()] == ["model.bso"]

    def test_save_replaces_existing_file(self, tmp_path):
        path = tmp_path / "model.bso"
        toy_model(seed=1, dtype=np.float32).save(path)
        new = toy_model(seed=2, dtype=np.float32)
        new.save(path)
        loaded, _ = Seq2SeqModel.load(path)
        assert np.array_equal(loaded.params["out.w"].value, new.params["out.w"].value)
        assert [p.name for p in tmp_path.iterdir()] == ["model.bso"]
