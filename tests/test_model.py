import json
import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bso import nn, training
from bso.model import (CheckpointError, InputError, MaskSet, ModelConfig, Seq2SeqModel,
                       StateGrad, param_shapes)
from gradcheck import max_relative_error, numerical_grad

BOS = 2


def score_g(model, out):
    """Log-probabilities [B, V]: log-softmax over score_f."""
    return nn.log_softmax(model.score_f(out))


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
        out, _ = m.decode_step(m.init_state(enc), [BOS], enc)
        assert out.attn_weights.shape == (1, 1)
        assert out.attn_weights[0, 0] == pytest.approx(1.0)

    def test_attention_normalized(self):
        m = toy_model()
        enc = m.encode(np.array([[1, 2, 3, 4]]))
        out, _ = m.decode_step(m.init_state(enc), [BOS], enc)
        assert np.all(out.attn_weights >= 0)
        assert out.attn_weights.sum() == pytest.approx(1.0, abs=1e-6)

    def test_deterministic(self):
        m = toy_model()
        enc = m.encode(np.array([[1, 2]]))
        a, _ = m.decode_step(m.init_state(enc), [5], enc)
        b, _ = m.decode_step(m.init_state(enc), [5], enc)
        assert np.array_equal(a.attn_hidden, b.attn_hidden)

    def test_input_feed_carries_attn_hidden(self):
        m = toy_model()
        enc = m.encode(np.array([[1, 2]]))
        out, _ = m.decode_step(m.init_state(enc), [BOS], enc)
        assert np.array_equal(out.state.input_feed, out.attn_hidden)

    def test_rows_attend_to_their_own_source(self):
        # rows of one step may come from different sentences of a padded batch
        m = toy_model()
        srcs = [np.array([1, 2]), np.array([3, 4, 5, 6])]
        enc = m.encode(np.array([[1, 2, 0, 0], [3, 4, 5, 6]]), lengths=np.array([2, 4]))
        rows = [1, 0, 0, 1, 1]
        words = [5, 2, 6, 2, 7]
        out, _ = m.decode_step(m.init_state(enc).select(rows), words, enc)
        assert list(out.state.src) == rows
        for i, (b, w) in enumerate(zip(rows, words)):
            one = m.encode(srcs[b][None, :])
            ref, _ = m.decode_step(m.init_state(one), [w], one)
            assert np.allclose(out.attn_weights[i, :len(srcs[b])], ref.attn_weights[0], atol=1e-12)
            assert np.all(out.attn_weights[i, len(srcs[b]):] == 0.0)
            assert np.allclose(out.attn_hidden[i], ref.attn_hidden[0], atol=1e-12)

    def test_missing_dropout_mask_is_usage_error(self):
        m = toy_model(layers=2)
        enc_masks = MaskSet.build(0.5, 2, 2, np.random.default_rng(0), 5,
                                  dtype=np.float64)
        enc = m.encode(np.array([[1, 2]]), masks=enc_masks)
        with pytest.raises(LookupError):
            m.decode_step(m.init_state(enc), [BOS], enc, step=3, masks=enc_masks)


class TestScores:
    def test_g_is_log_softmax_of_f(self):
        m = toy_model()
        enc = m.encode(np.array([[1, 2]]))
        out, _ = m.decode_step(m.init_state(enc), [BOS], enc)
        f = m.score_f(out)
        g = score_g(m, out)
        assert np.allclose(g, nn.log_softmax(f), atol=1e-12)
        assert np.exp(g).sum() == pytest.approx(1.0, abs=1e-6)
        assert np.argmax(f) == np.argmax(g)

    def test_bias_shift_moves_f_not_g(self):
        m = toy_model()
        enc = m.encode(np.array([[1, 2]]))
        out, _ = m.decode_step(m.init_state(enc), [BOS], enc)
        f0, g0 = m.score_f(out), score_g(m, out)
        m.params["out.b"].value += 3.0
        f1, g1 = m.score_f(out), score_g(m, out)
        assert np.allclose(f1, f0 + 3.0, atol=1e-9)
        assert np.allclose(g1, g0, atol=1e-9)


class TestScoreBackward:
    """score_f_backward is the adjoint of score_f."""

    def step(self, m):
        enc = m.encode(np.array([[1, 2, 3], [4, 5, 6], [2, 2, 1]]))
        return m.decode_step(m.init_state(enc), [BOS, 4, 6], enc)

    def test_matches_the_affine_products(self):
        m = toy_model()
        out, _ = self.step(m)
        ah = out.attn_hidden
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
        out, _ = self.step(m)
        weights = np.random.default_rng(2).normal(size=(3, 9))

        def loss():
            return float(np.sum(m.score_f(out) * weights))

        m.zero_grads()
        d_ah = m.score_f_backward(out.attn_hidden, weights)
        for name in ("out.w", "out.b"):
            num = numerical_grad(loss, m.params[name].value, step=1e-4)
            assert max_relative_error(m.params[name].grad, num) < 1e-7
        num = numerical_grad(loss, out.attn_hidden, step=1e-4)
        assert max_relative_error(d_ah, num) < 1e-7

    def test_decode_step_backward_adds_d_hidden_to_the_input_feed_gradient(self):
        m = toy_model()
        _, cache = self.step(m)
        d_state = m.state_grad_zeros(3)
        d_state.input_feed[...] = np.random.default_rng(3).normal(size=(3, 5))
        d_hidden = np.random.default_rng(4).normal(size=(3, 5))
        m.zero_grads()
        a = m.decode_step_backward(cache, d_state, d_hidden)
        ga = {n: s.grad.copy() for n, s in m.params.items()}
        merged = m.state_grad_zeros(3)
        merged.input_feed[...] = d_state.input_feed + d_hidden
        m.zero_grads()
        b = m.decode_step_backward(cache, merged)
        assert np.array_equal(a.input_feed, b.input_feed)
        assert np.array_equal(a.h[0], b.h[0]) and np.array_equal(a.c[0], b.c[0])
        for n, s in m.params.items():
            assert np.array_equal(ga[n], s.grad)


class TestSelectStates:
    def make_state(self, m):
        enc = m.encode(np.array([[1, 2], [3, 4], [5, 6]]))
        return m.init_state(enc)

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
            masks = MaskSet.build(dropout, layers, 6, np.random.default_rng(9), 4,
                                  dtype=np.float64)

        def loss_and_backward():
            m.zero_grads()
            loss, _ = training.xent_loss(m, src, tgt, BOS, masks=masks)
            return loss

        loss_and_backward()
        analytic = {s.name: s.grad.copy() for s in m.slots()}

        def loss_only():
            loss, _ = training.xent_loss(m, src, tgt, BOS, masks=masks,
                                         backward=False)
            return loss

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
        l1, n1 = training.xent_loss(m, src, tgt_full, BOS)
        g1 = {s.name: s.grad.copy() for s in m.slots()}
        m.zero_grads()
        l2, n2 = training.xent_loss(m, src, tgt_padded, BOS,
                                    tgt_lengths=np.array([3]))
        assert l1 == pytest.approx(l2, rel=1e-12)
        assert n1 == n2 == 3
        for s in m.slots():
            assert np.allclose(g1[s.name], s.grad, atol=1e-12)


class TestXentMemory:
    def test_nothing_of_vocabulary_size_is_kept_across_steps(self):
        """The traced peak of one xent_loss grows with the number of target
        steps by far less than one [B, V] float32 array per step."""
        B, V = 8, 3000
        rng = np.random.default_rng(0)
        m = toy_model(src_vocab=7, tgt_vocab=V, d_emb=4, d_h=8, dtype=np.float32)
        src = rng.integers(3, 7, size=(B, 5))
        tgts = {T: rng.integers(3, V, size=(B, T)) for T in (10, 40)}
        m.zero_grads()
        peaks = {}
        for T, tgt in tgts.items():
            tracemalloc.start()
            try:
                training.xent_loss(m, src, tgt, BOS)
                peaks[T] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[40] - peaks[10] < 0.5 * 30 * B * V * 4


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        m = toy_model(dtype=np.float32)
        m.params["out.w"].adagrad_accum += 0.5
        path = tmp_path / "model.bso"
        m.save(path, extra={"note": ["a", "b"]})
        loaded, extra = Seq2SeqModel.load(path, with_extra=True)
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
        loaded = Seq2SeqModel.load(path)
        src = np.array([[1, 2, 3]])
        a = m.encode(src)
        b = loaded.encode(src)
        out_a, _ = m.decode_step(m.init_state(a), [BOS], a)
        out_b, _ = loaded.decode_step(loaded.init_state(b), [BOS], b)
        assert np.array_equal(m.score_f(out_a), loaded.score_f(out_b))

    def test_loads_header_with_legacy_config_fields(self, tmp_path):
        # older checkpoints carry ModelConfig fields the model never read
        m = toy_model(dtype=np.float32)
        tensors = {}
        for name, slot in m.params.items():
            tensors[name] = slot.value
            tensors[name + ".accum"] = slot.adagrad_accum
        config = dict(m.config.to_dict(), dropout=0.3, attention="dot")
        header = json.dumps({"config": config, "extra": {"task": "parse"}}).encode("utf-8")
        path = tmp_path / "old.bso"
        with open(path, "wb") as fh:
            fh.write(b"BSOC")
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            nn.write_fragment(fh, tensors)
        loaded, extra = Seq2SeqModel.load(path, with_extra=True)
        assert extra == {"task": "parse"}
        assert loaded.config == m.config
        for name, slot in m.params.items():
            assert np.array_equal(loaded.params[name].value, slot.value)


def load_bytes(data):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.bso")
        with open(path, "wb") as fh:
            fh.write(data)
        return Seq2SeqModel.load(path)


class TestCheckpointRobustness:
    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        """The bytes of a small saved checkpoint."""
        path = tmp_path_factory.mktemp("ckpt") / "model.bso"
        toy_model(src_vocab=5, tgt_vocab=6, d_emb=2, d_h=3, dtype=np.float32).save(
            path, extra={"note": "x"})
        return path.read_bytes()

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=200)
    def test_truncations_raise_checkpoint_error(self, data, cut):
        with pytest.raises(CheckpointError):
            load_bytes(data[:cut % len(data)])

    @given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 255)),
                    min_size=1, max_size=3))
    @settings(max_examples=300)
    def test_byte_flips_load_consistently_or_raise_checkpoint_error(self, data, flips):
        blob = bytearray(data)
        for pos, bits in flips:
            blob[pos % len(blob)] ^= bits
        try:
            model = load_bytes(bytes(blob))
        except CheckpointError:
            return
        # a flip in the tensor data loads; the structure still matches
        shapes = param_shapes(model.config)
        assert list(model.params) == list(shapes)
        for name, slot in model.params.items():
            assert slot.value.shape == slot.adagrad_accum.shape == shapes[name]

    def test_truncated_file_is_a_checkpoint_error_not_a_buffer_error(self, data):
        with pytest.raises(CheckpointError, match="truncated"):
            load_bytes(data[:-3])

    def test_trailing_bytes_rejected(self, data):
        with pytest.raises(CheckpointError, match="after the last tensor"):
            load_bytes(data + b"\0")

    def write(self, path, config, tensors):
        header = json.dumps({"config": config, "extra": {}}).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(b"BSOC")
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            nn.write_fragment(fh, tensors)

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

        def broken(fh, tensors):
            fh.write(b"BSO1partial")
            raise OSError("disk full")

        monkeypatch.setattr(nn, "write_fragment", broken)
        with pytest.raises(OSError, match="disk full"):
            toy_model(seed=2, dtype=np.float32).save(path)
        loaded = Seq2SeqModel.load(path)
        for name, slot in old.params.items():
            assert np.array_equal(loaded.params[name].value, slot.value)
        assert [p.name for p in tmp_path.iterdir()] == ["model.bso"]

    def test_save_replaces_existing_file(self, tmp_path):
        path = tmp_path / "model.bso"
        toy_model(seed=1, dtype=np.float32).save(path)
        new = toy_model(seed=2, dtype=np.float32)
        new.save(path)
        loaded = Seq2SeqModel.load(path)
        assert np.array_equal(loaded.params["out.w"].value, new.params["out.w"].value)
        assert [p.name for p in tmp_path.iterdir()] == ["model.bso"]
