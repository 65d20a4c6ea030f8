"""Encoder-decoder with global (dot-product) attention and input feeding.

The model's one scoring head, ``score_f``, is an affine output without
normalization: the sequence scorer of beam-search training and decoding.
Cross-entropy pretraining (``training.xent_loss``) takes the log-softmax
of the same scores.

All forward functions keep caches so the matching hand-derived backward
passes can be replayed later. States and caches are batched along the first
axis. A decoder step's cache holds arrays of hidden or source size only: the
output layer keeps none. Its backward, ``score_f_backward``, turns a step's
[B, V] score gradient into a [B, H] one at once, which is what
``decode_step_backward`` takes. Decoder rows need not map one to one onto
encoded sources: each state row carries the index of the source it attends
to, so the rows of many hypotheses of many sentences can share one decoder
step.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import nn
from .nn import CheckpointError, ParamSlot

ATTN_NEG = -1e9

# ModelConfig fields that older checkpoint headers carry and nothing read
LEGACY_CONFIG_KEYS = ("dropout", "attention")


class InputError(ValueError):
    """Bad model input (out-of-vocabulary ids, empty sequences)."""


@dataclass
class ModelConfig:
    src_vocab: int
    tgt_vocab: int
    d_emb: int = 64
    d_h: int = 64
    layers: int = 1

    def to_dict(self):
        return {"src_vocab": self.src_vocab, "tgt_vocab": self.tgt_vocab,
                "d_emb": self.d_emb, "d_h": self.d_h, "layers": self.layers}


@dataclass
class DecoderState:
    """Per-hypothesis recurrent state: (h, c) per layer plus input feed.

    ``src`` holds, for each row, the index of its source in the encoded
    batch.
    """

    h: list
    c: list
    input_feed: np.ndarray
    src: np.ndarray

    @property
    def batch(self):
        return self.input_feed.shape[0]

    def select(self, indices):
        """Gather rows; fancy indexing copies, so the result is isolated."""
        idx = np.asarray(indices)
        if idx.size and (idx.min() < 0 or idx.max() >= self.batch):
            raise IndexError("state row index out of range")
        return DecoderState([h[idx] for h in self.h], [c[idx] for c in self.c],
                            self.input_feed[idx], self.src[idx])


@dataclass
class StateGrad:
    """Gradient w.r.t. a DecoderState (one BRNN stream)."""

    h: list
    c: list
    input_feed: np.ndarray

    @classmethod
    def zeros(cls, layers, batch, d_h, dtype):
        return cls([np.zeros((batch, d_h), dtype=dtype) for _ in range(layers)],
                   [np.zeros((batch, d_h), dtype=dtype) for _ in range(layers)],
                   np.zeros((batch, d_h), dtype=dtype))

    def scatter(self, rows, batch):
        """The adjoint of ``DecoderState.select(rows)``: the gradient w.r.t.
        the ``batch``-row state the rows were gathered from. Rows gathered
        more than once sum their gradients."""
        def back(g):
            out = np.zeros((batch,) + g.shape[1:], dtype=g.dtype)
            np.add.at(out, rows, g)
            return out
        return StateGrad([back(g) for g in self.h], [back(g) for g in self.c],
                         back(self.input_feed))


@dataclass
class EncodedSource:
    annotations: np.ndarray          # [B, S, H]
    init_state: DecoderState
    attn_bias: np.ndarray | None     # [B, S], 0 for real tokens, ATTN_NEG for pad
    cache: object = None


@dataclass
class StepOutput:
    state: DecoderState
    attn_weights: np.ndarray         # [B, S]
    attn_hidden: np.ndarray          # [B, H]


class MaskSet:
    """Pre-computed dropout masks, keyed by (time_step, layer boundary).

    The same mask is shared by every hypothesis alive at a given step and is
    reused verbatim in the backward pass.
    """

    def __init__(self, masks):
        self._by_key = {(m.time_step, m.layer): m.mask for m in masks}

    @classmethod
    def build(cls, rate, layers, steps, rng, d_h, dtype=np.float32):
        boundaries = max(layers - 1, 0)
        return cls(nn.make_dropout_masks(rate, boundaries, steps, rng, d_h, dtype=dtype))

    def get(self, step, layer):
        try:
            return self._by_key[(step, layer)]
        except KeyError:
            raise LookupError(f"no dropout mask for step {step}, layer {layer}") from None


def _softmax(x):
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def _attend(enc, src, top):
    """Attention weights [B, S] and context [B, H] of each row over the
    annotations of its own source ``src[row]``. The gathered annotations,
    the largest array of a wide decoder step, live only in here."""
    ann = enc.annotations[src]                          # [B, S, H]
    scores = np.einsum("bsh,bh->bs", ann, top)
    if enc.attn_bias is not None:
        scores += enc.attn_bias[src]
    attn = _softmax(scores)
    return attn, np.einsum("bs,bsh->bh", attn, ann)


def param_shapes(cfg):
    """Name -> shape of every parameter of a model, in creation order."""
    shapes = {"src_embed": (cfg.src_vocab, cfg.d_emb), "tgt_embed": (cfg.tgt_vocab, cfg.d_emb)}
    for l in range(cfg.layers):
        enc_in = cfg.d_emb if l == 0 else cfg.d_h
        dec_in = cfg.d_emb + cfg.d_h if l == 0 else cfg.d_h
        shapes[f"enc{l}.wx"] = (enc_in, 4 * cfg.d_h)
        shapes[f"enc{l}.wh"] = (cfg.d_h, 4 * cfg.d_h)
        shapes[f"enc{l}.b"] = (4 * cfg.d_h,)
        shapes[f"dec{l}.wx"] = (dec_in, 4 * cfg.d_h)
        shapes[f"dec{l}.wh"] = (cfg.d_h, 4 * cfg.d_h)
        shapes[f"dec{l}.b"] = (4 * cfg.d_h,)
    shapes["attn.w"] = (2 * cfg.d_h, cfg.d_h)
    shapes["attn.b"] = (cfg.d_h,)
    shapes["out.w"] = (cfg.d_h, cfg.tgt_vocab)
    shapes["out.b"] = (cfg.tgt_vocab,)
    return shapes


class Seq2SeqModel:
    """Attention encoder-decoder over a flat set of named ParamSlots."""

    def __init__(self, config, rng=None, dtype=np.float32, init=True):
        self.config = config
        self.dtype = dtype
        self.params = {}
        rng = rng if rng is not None else np.random.default_rng(0)
        if init:
            for name, shape in param_shapes(config).items():
                self.params[name] = ParamSlot.create(name, shape, rng, dtype=dtype)

    # -- parameter plumbing -------------------------------------------------

    def slots(self):
        return list(self.params.values())

    def zero_grads(self):
        for s in self.params.values():
            s.zero_grad()

    def lr_group(self, name):
        """'output' for the final word-prediction layer, 'main' otherwise."""
        return "output" if name.startswith("out.") else "main"

    def astype(self, dtype):
        """Copy of the model with parameters cast to dtype (for grad checks)."""
        other = Seq2SeqModel(self.config, dtype=dtype, init=False)
        for name, slot in self.params.items():
            other.params[name] = ParamSlot(name, slot.value.astype(dtype))
        return other

    # -- encoder ------------------------------------------------------------

    def encode(self, src, lengths=None, masks=None):
        """Run the encoder over a [B, S] batch of source token ids."""
        src = np.asarray(src)
        if src.ndim == 1:
            src = src[None, :]
        B, S = src.shape
        if S == 0:
            raise InputError("empty source sequence")
        if src.min() < 0 or src.max() >= self.config.src_vocab:
            raise InputError("source token id out of vocabulary range")
        if lengths is None:
            lengths = np.full(B, S, dtype=np.int64)
        lengths = np.asarray(lengths)
        cfg = self.config
        emb = self.params["src_embed"].value[src]           # [B, S, E]
        h = [np.zeros((B, cfg.d_h), dtype=self.dtype) for _ in range(cfg.layers)]
        c = [np.zeros((B, cfg.d_h), dtype=self.dtype) for _ in range(cfg.layers)]
        final_h = [np.zeros_like(h[0]) for _ in range(cfg.layers)]
        final_c = [np.zeros_like(c[0]) for _ in range(cfg.layers)]
        annotations = np.zeros((B, S, cfg.d_h), dtype=self.dtype)
        step_caches = []
        last_steps = set((lengths - 1).tolist())
        for t in range(S):
            x = emb[:, t]
            layer_caches = []
            for l in range(cfg.layers):
                p = self.params
                h[l], c[l], cache = nn.lstm_cell_forward(
                    x, h[l], c[l], p[f"enc{l}.wx"].value, p[f"enc{l}.wh"].value,
                    p[f"enc{l}.b"].value)
                layer_caches.append(cache)
                if l < cfg.layers - 1:
                    m = masks.get(t, l).astype(self.dtype) if masks is not None else None
                    x = h[l] * m if m is not None else h[l]
                    layer_caches[-1]["drop_mask"] = m
            annotations[:, t] = h[-1]
            if t in last_steps:
                at_end = lengths - 1 == t
                for l in range(cfg.layers):
                    final_h[l][at_end] = h[l][at_end]
                    final_c[l][at_end] = c[l][at_end]
            step_caches.append(layer_caches)
        attn_bias = None
        if (lengths < S).any():
            attn_bias = np.where(np.arange(S)[None, :] < lengths[:, None],
                                 0.0, ATTN_NEG).astype(self.dtype)
        init_state = DecoderState([a.copy() for a in final_h],
                                  [a.copy() for a in final_c],
                                  np.zeros((B, cfg.d_h), dtype=self.dtype),
                                  np.arange(B))
        cache = {"src": src, "lengths": lengths, "steps": step_caches}
        return EncodedSource(annotations, init_state, attn_bias, cache)

    def encode_backward(self, enc, d_annotations, d_init):
        """Backprop through encode; accumulates into parameter grads.

        d_init is a StateGrad for the decoder init state (its input_feed
        component is ignored: the initial feed is a constant zero).
        """
        cfg = self.config
        cache = enc.cache
        src, lengths = cache["src"], cache["lengths"]
        B, S = src.shape
        dh = [np.zeros((B, cfg.d_h), dtype=d_annotations.dtype) for _ in range(cfg.layers)]
        dc = [np.zeros_like(dh[0]) for _ in range(cfg.layers)]
        p = self.params
        last_steps = set((lengths - 1).tolist())
        for t in range(S - 1, -1, -1):
            if t in last_steps:
                at_end = lengths - 1 == t
                for l in range(cfg.layers):
                    dh[l][at_end] += d_init.h[l][at_end]
                    dc[l][at_end] += d_init.c[l][at_end]
            dh[-1] += d_annotations[:, t]
            dx_down = None
            for l in range(cfg.layers - 1, -1, -1):
                cur_dh = dh[l]
                if dx_down is not None:
                    m = cache["steps"][t][l].get("drop_mask")
                    cur_dh = cur_dh + (dx_down * m if m is not None else dx_down)
                dx, dh[l], dc[l] = nn.lstm_cell_backward(
                    cache["steps"][t][l], cur_dh, dc[l],
                    p[f"enc{l}.wx"].value, p[f"enc{l}.wh"].value,
                    p[f"enc{l}.wx"].grad, p[f"enc{l}.wh"].grad, p[f"enc{l}.b"].grad)
                dx_down = dx
            np.add.at(p["src_embed"].grad, src[:, t], dx_down)

    # -- decoder ------------------------------------------------------------

    def init_state(self, enc):
        s = enc.init_state
        return DecoderState([h.copy() for h in s.h], [c.copy() for c in s.c],
                            s.input_feed.copy(), s.src.copy())

    def decode_step(self, state, words, enc, step=0, masks=None):
        """Advance one decoder step for a batch of hypotheses.

        ``words`` are the tokens being consumed (the previous outputs); the
        returned StepOutput scores candidates for the next position via
        score_f. Row i attends to source ``state.src[i]`` of enc.
        Returns (StepOutput, cache).
        """
        words = np.atleast_1d(np.asarray(words))
        if words.min() < 0 or words.max() >= self.config.tgt_vocab:
            raise InputError("target token id out of vocabulary range")
        cfg = self.config
        p = self.params
        emb = p["tgt_embed"].value[words]                  # [B, E]
        x = np.concatenate([emb, state.input_feed], axis=1)
        new_h, new_c, layer_caches = [], [], []
        for l in range(cfg.layers):
            hl, cl, cache = nn.lstm_cell_forward(
                x, state.h[l], state.c[l], p[f"dec{l}.wx"].value,
                p[f"dec{l}.wh"].value, p[f"dec{l}.b"].value)
            new_h.append(hl)
            new_c.append(cl)
            layer_caches.append(cache)
            if l < cfg.layers - 1:
                m = masks.get(step, l).astype(self.dtype) if masks is not None else None
                x = hl * m if m is not None else hl
                layer_caches[-1]["drop_mask"] = m
        top = new_h[-1]                                     # [B, H]
        attn, context = _attend(enc, state.src, top)
        attn_in = np.concatenate([context, top], axis=1)
        attn_hidden = np.tanh(nn.affine_forward(attn_in, p["attn.w"].value, p["attn.b"].value))
        out_state = DecoderState(new_h, new_c, attn_hidden, state.src)
        cache = {"words": words, "layers": layer_caches, "top": top,
                 "attn": attn, "context": context, "attn_hidden": attn_hidden,
                 "enc": enc, "src": state.src}
        return StepOutput(out_state, attn, attn_hidden), cache

    def score_f(self, out):
        """Unnormalized next-token scores [B, V]."""
        p = self.params
        return nn.affine_forward(out.attn_hidden, p["out.w"].value, p["out.b"].value)

    def score_f_backward(self, attn_hidden, d_f):
        """The adjoint of score_f.

        ``d_f`` [B, V] is the gradient w.r.t. the scores of the step whose
        attention hidden state is ``attn_hidden`` [B, H]. Adds the out.w and
        out.b gradients in place and returns the [B, H] gradient w.r.t.
        ``attn_hidden``, for ``decode_step_backward``'s ``d_hidden``. A
        caller can take it at the step that scores, so no array of
        vocabulary size has to outlive that step.
        """
        p = self.params
        return nn.affine_backward(attn_hidden, p["out.w"].value, d_f,
                                  p["out.w"].grad, p["out.b"].grad)

    def decode_step_backward(self, cache, d_state, d_hidden=None, d_annotations=None):
        """Backprop one decoder step, up to the attention hidden state.

        d_state is the StateGrad w.r.t. the step's output state; d_hidden,
        if given, is the gradient [B, H] w.r.t. the step's attention hidden
        state from its scores, as score_f_backward returns it. It adds to
        the gradient the same state receives as the next step's input feed.
        Parameter grads accumulate in place; annotation grads accumulate
        into d_annotations (shape [enc_batch, S, H]) at each row's source.
        Returns the StateGrad w.r.t. the input state.
        """
        cfg = self.config
        p = self.params
        src = cache["src"]
        ah = cache["attn_hidden"]
        d_ah = d_state.input_feed.copy()
        if d_hidden is not None:
            d_ah += d_hidden
        d_pre = d_ah * (1.0 - ah * ah)
        attn = cache["attn"]
        top = cache["top"]
        d_attn_in = nn.affine_backward(np.concatenate([cache["context"], top], axis=1),
                                       p["attn.w"].value, d_pre,
                                       p["attn.w"].grad, p["attn.b"].grad)
        H = cfg.d_h
        d_context = d_attn_in[:, :H]
        d_top = d_attn_in[:, H:].copy()
        ann = cache["enc"].annotations[src]
        d_attn = np.einsum("bh,bsh->bs", d_context, ann)
        d_scores = attn * (d_attn - (attn * d_attn).sum(axis=-1, keepdims=True))
        d_top += np.einsum("bs,bsh->bh", d_scores, ann)
        del ann   # freed before the annotation-gradient rows, which are as large
        if d_annotations is not None:
            d_ann_rows = attn[:, :, None] * d_context[:, None, :]
            d_ann_rows += d_scores[:, :, None] * top[:, None, :]
            nn.scatter_add(d_annotations, src, d_ann_rows)
        # recurrent layers, top down
        dh_prev = [None] * cfg.layers
        dc_prev = [None] * cfg.layers
        dx_down = None
        for l in range(cfg.layers - 1, -1, -1):
            cur_dh = d_state.h[l].copy()
            if l == cfg.layers - 1:
                cur_dh += d_top
            if dx_down is not None:
                m = cache["layers"][l].get("drop_mask")
                cur_dh += dx_down * m if m is not None else dx_down
            dx, dhp, dcp = nn.lstm_cell_backward(
                cache["layers"][l], cur_dh, d_state.c[l],
                p[f"dec{l}.wx"].value, p[f"dec{l}.wh"].value,
                p[f"dec{l}.wx"].grad, p[f"dec{l}.wh"].grad, p[f"dec{l}.b"].grad)
            dh_prev[l] = dhp
            dc_prev[l] = dcp
            dx_down = dx
        E = cfg.d_emb
        d_emb = dx_down[:, :E]
        d_feed_prev = dx_down[:, E:]
        np.add.at(p["tgt_embed"].grad, cache["words"], d_emb)
        return StateGrad(dh_prev, dc_prev, d_feed_prev)

    def state_grad_zeros(self, batch):
        return StateGrad.zeros(self.config.layers, batch, self.config.d_h, self.dtype)

    # -- checkpointing ------------------------------------------------------

    def save(self, path, extra=None):
        """Write the checkpoint to a temporary file next to ``path``, then
        move it over ``path``: a failed write leaves the old file intact."""
        tensors = {}
        for name, slot in self.params.items():
            tensors[name] = slot.value
            tensors[name + ".accum"] = slot.adagrad_accum
        header = {"config": self.config.to_dict(), "extra": extra or {}}
        cfg_bytes = json.dumps(header).encode("utf-8")
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(b"BSOC")
                fh.write(struct.pack("<I", len(cfg_bytes)))
                fh.write(cfg_bytes)
                nn.write_fragment(fh, tensors)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path, dtype=np.float32, with_extra=False):
        """Read a checkpoint; raises CheckpointError unless its header, its
        parameter set and every shape agree with its ModelConfig."""
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != b"BSOC":
                raise CheckpointError(f"bad model checkpoint magic {magic!r}")
            clen = struct.unpack("<I", nn.read_exact(fh, 4, "the header length"))[0]
            try:
                header = json.loads(nn.read_exact(fh, clen, "the header").decode("utf-8"))
                cfg = ModelConfig(**{k: v for k, v in header["config"].items()
                                     if k not in LEGACY_CONFIG_KEYS})
                extra = header.get("extra", {})
            except (ValueError, TypeError, KeyError, AttributeError) as exc:
                raise CheckpointError(f"bad checkpoint header: {exc}") from None
            sizes = cfg.to_dict().values()
            if not all(type(v) is int and v > 0 for v in sizes):
                raise CheckpointError(f"bad model configuration {cfg.to_dict()}")
            tensors = nn.read_fragment(fh)
            if fh.read(1):
                raise CheckpointError("unexpected bytes after the last tensor")
        shapes = param_shapes(cfg)
        want = {n: s for name, s in shapes.items() for n in (name, name + ".accum")}
        if set(tensors) != set(want):
            missing, unexpected = sorted(set(want) - set(tensors)), sorted(set(tensors) - set(want))
            raise CheckpointError(f"checkpoint parameters do not match the model configuration: "
                                  f"missing {missing}, unexpected {unexpected}")
        for name, arr in tensors.items():
            if arr.shape != want[name]:
                raise CheckpointError(f"parameter {name} has shape {arr.shape}, "
                                      f"the configuration needs {want[name]}")
        model = cls(cfg, dtype=dtype, init=False)
        for name in shapes:
            model.params[name] = ParamSlot(name, tensors[name].astype(dtype),
                                           adagrad_accum=tensors[name + ".accum"].astype(dtype))
        if with_extra:
            return model, extra
        return model
