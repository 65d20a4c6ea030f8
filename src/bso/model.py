"""Encoder-decoder with global (dot-product) attention and input feeding.

The model's one scoring head, ``score_f``, is an affine output without
normalization: the sequence scorer of beam-search training and decoding.
Cross-entropy pretraining (``training.xent_loss``) takes the log-softmax
of the same scores.

All forward functions keep caches so the matching hand-derived backward
passes can be replayed later. States and caches are batched along the first
axis. A cache keeps only what its backward cannot rebuild exactly and
cheaply. The encoder and the decoder are the same stacked LSTM, with
dropout between layers, run one time step at a time by ``_stack_forward``
and ``_stack_backward``. A step of either side keeps, per layer, the LSTM
cell's cache (the gates and the new cell state ``c``) and the layer's
output, plus the step's dropout masks, which the ``EncodedSource`` carries
for both sides (a decoder step's are those of ``state.step``). A step keeps
nothing of the state it started from, which the step before keeps as its
output: the caller hands the backward that state. ``encode_backward`` takes
it from the previous step's cache (zeros at the first step); a decoder
step's caller passes ``decode_step_backward`` the state it passed
``decode_step``, its input feed included. The backward rebuilds bit for bit
each layer's input: the embedded source word for encoder layer 0, the
embedded word joined to the input feed for decoder layer 0, and above them
the masked output of the layer beneath. It also rebuilds tanh(c). The
encoder's top-layer outputs are views of the annotations. A decoder step
adds the attention weights, the attention hidden state and the consumed
words; its backward recomputes the attention context from the annotations
it gathers anyway.
The output layer keeps nothing: ``score_f_backward`` turns a step's [B, V]
score gradient into a [B, H] one at once, which is added to the state's
feed gradient. Decoder rows need not map one to one onto encoded sources:
each state row carries the index of the source it attends to, so the rows
of many hypotheses of many sentences can share one decoder step.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from . import nn
from .nn import ParamSlot

ATTN_NEG = -1e9
# the fewest rows per block of decode_step_backward's d_scores x top
# product: a step of B rows adds it in blocks of max(8, ceil(B / 4)) rows,
# so from 32 rows on its temporary is at most a quarter of the [B, S, H]
# annotation gradient, and no step runs more than four blocks
ROW_BLOCK = 8
HEADER = "header.json"


class CheckpointError(ValueError):
    """A checkpoint is truncated or corrupt, or does not match its model
    configuration."""


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
    batch; ``step`` is the number of decoder steps the state has taken.
    """

    h: list
    c: list
    input_feed: np.ndarray
    src: np.ndarray
    step: int

    @property
    def batch(self):
        return self.input_feed.shape[0]

    def select(self, indices):
        """Gather rows; ``take`` copies, so the result is isolated.

        Row gathers here and in the model use ``take(rows, axis=0)``: the
        copy fancy indexing makes, at half its fixed cost on a few rows.
        """
        idx = np.asarray(indices)
        if idx.size and (idx.min() < 0 or idx.max() >= self.batch):
            raise IndexError("state row index out of range")
        return DecoderState([h.take(idx, axis=0) for h in self.h],
                            [c.take(idx, axis=0) for c in self.c],
                            self.input_feed.take(idx, axis=0), self.src[idx], self.step)


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
    masks: MaskSet | None = None     # dropout masks of the encoder and decoder steps


class MaskSet:
    """Inverted-dropout masks between stacked LSTM layers: one
    [src_steps + tgt_steps, layers - 1, d_h] array, the encoder's steps
    first. Every step of either side has masks of its own, independent of
    the other side's; they are shared by every row alive at that step and
    reused verbatim in the backward pass."""

    def __init__(self, masks, src_steps):
        self.masks = masks
        self.sides = {"enc": masks[:src_steps], "dec": masks[src_steps:]}

    @classmethod
    def build(cls, rate, layers, src_steps, tgt_steps, rng, d_h, dtype=np.float32):
        """Masks drawn step by step (encoder, then decoder), boundary by boundary."""
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        shape = (src_steps + tgt_steps, max(layers - 1, 0), d_h)
        if rate == 0.0:
            return cls(np.ones(shape, dtype=dtype), src_steps)
        keep = 1.0 - rate
        return cls((rng.random(shape) < keep).astype(dtype) / dtype(keep), src_steps)

    def get(self, side, step):
        """The [layers - 1, d_h] masks of a time step of the ``side`` stack."""
        if not 0 <= step < len(self.sides[side]):
            raise LookupError(f"no {side} dropout masks for step {step}")
        return self.sides[side][step]


def _softmax(x):
    """Softmax over the last axis, in place: exp(x - max) / sum."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _attend(enc, src, top):
    """Attention weights [B, S] and context [B, H] of each row over the
    annotations of its own source ``src[row]``. The gathered annotations,
    the largest array of a wide decoder step, live only in here."""
    ann = enc.annotations.take(src, axis=0)             # [B, S, H]
    scores = np.einsum("bsh,bh->bs", ann, top)
    if enc.attn_bias is not None:
        scores += enc.attn_bias.take(src, axis=0)
    attn = _softmax(scores)
    return attn, np.einsum("bs,bsh->bh", attn, ann)


def _layer_input(cache, l, x):
    """The input of layer l at the step of a stack cache: ``x`` for layer
    0, above it the output of layer l - 1 under its dropout mask. The
    backward rebuilds every input this way, so a step caches none."""
    if l == 0:
        return x
    h, drop = cache["h"][l - 1], cache["drop"]
    return h if drop is None else h * drop[l - 1]


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
        # per side, the wx, wh and b parameter names of each layer
        self._cell_names = {side: [(f"{side}{l}.wx", f"{side}{l}.wh", f"{side}{l}.b")
                                  for l in range(config.layers)] for side in ("enc", "dec")}
        rng = rng if rng is not None else np.random.default_rng(0)
        if init:
            for name, shape in param_shapes(config).items():
                self.params[name] = ParamSlot.create(name, shape, rng, dtype=dtype)

    # -- parameter plumbing -------------------------------------------------

    def slots(self):
        return list(self.params.values())

    def zero_grads(self):
        """Drop every parameter's gradient buffer; the next backward pass
        makes each one afresh as it first writes it."""
        for s in self.params.values():
            s.zero_grad()

    def lr_group(self, name):
        """'output' for the final word-prediction layer, 'main' otherwise."""
        return "output" if name.startswith("out.") else "main"

    def astype(self, dtype):
        """Copy of the model with its parameters and Adagrad accumulators
        cast to dtype, and no gradient: in the same dtype, a copy that
        trains on as its original would."""
        other = Seq2SeqModel(self.config, dtype=dtype, init=False)
        for name, slot in self.params.items():
            other.params[name] = ParamSlot(name, slot.value.astype(dtype),
                                           adagrad_accum=slot.adagrad_accum.astype(dtype))
        return other

    # -- the stacked LSTM of either side -----------------------------------

    def _stack_forward(self, side, x, h, c, masks, step):
        """One time step of the ``side`` ("enc" or "dec") LSTM stack from
        layer 0's input ``x`` and the per-layer states ``h`` and ``c``.
        Returns the new h and c lists and the step's cache: the cell caches,
        the step's dropout masks and the layer outputs (the list ``h``)."""
        drop = None if masks is None else masks.get(side, step).astype(self.dtype, copy=False)
        new_h, new_c, cells = [], [], []
        cache = {"h": new_h, "cells": cells, "drop": drop}
        for l in range(self.config.layers):
            wx, wh, b = self._cell_params(side, l)
            hl, cl, cell = nn.lstm_cell_forward(_layer_input(cache, l, x), h[l], c[l],
                                                wx.value, wh.value, b.value)
            new_h.append(hl)
            new_c.append(cl)
            cells.append(cell)
        return new_h, new_c, cache

    def _stack_backward(self, side, cache, x, h, c, dh, dc):
        """Backprop one step of the ``side`` stack whose layer-0 input was
        ``x`` and whose per-layer input states were ``h`` and ``c``, given
        the gradients ``dh`` and ``dc`` w.r.t. each layer's output h and c
        (the top layer's dh includes what reached it from above). Adds into
        the parameter grads; returns the gradient w.r.t. ``x`` and the dh
        and dc lists w.r.t. the input states."""
        layers = self.config.layers
        dh_prev, dc_prev = [None] * layers, [None] * layers
        drop = cache["drop"]
        dx = None
        for l in range(layers - 1, -1, -1):
            cur_dh = dh[l]
            if dx is not None:
                cur_dh = cur_dh + (dx if drop is None else dx * drop[l])
            wx, wh, b = self._cell_params(side, l)
            dx, dh_prev[l], dc_prev[l] = nn.lstm_cell_backward(
                cache["cells"][l], cur_dh, dc[l], _layer_input(cache, l, x), h[l], c[l],
                wx.value, wh.value, wx.grad, wh.grad, b.grad)
        return dx, dh_prev, dc_prev

    def _cell_params(self, side, l):
        """The wx, wh and b slots of layer l of the ``side`` stack."""
        p = self.params
        wx, wh, b = self._cell_names[side][l]
        return p[wx], p[wh], p[b]

    # -- encoder ------------------------------------------------------------

    def encode(self, src, lengths=None, masks=None):
        """Run the encoder over a [B, S] batch of source token ids; row b
        holds ``lengths[b]`` tokens (all S by default), padding after them.
        InputError unless each length is in 1..S."""
        src = np.asarray(src)
        B, S = src.shape
        if S == 0:
            raise InputError("empty source sequence")
        if src.min() < 0 or src.max() >= self.config.src_vocab:
            raise InputError("source token id out of vocabulary range")
        if lengths is None:
            lengths = np.full(B, S, dtype=np.int64)
        lengths = np.asarray(lengths)
        if lengths.shape != (B,) or lengths.min() < 1 or lengths.max() > S:
            raise InputError(f"source lengths must be one per row, each in 1..{S}")
        cfg = self.config
        emb = self.params["src_embed"].value.take(src, axis=0)  # [B, S, E]; no step keeps it
        # every step makes new states: the zero start state is only read
        zero = np.zeros((B, cfg.d_h), dtype=self.dtype)
        h, c = [zero] * cfg.layers, [zero] * cfg.layers
        final_h = [np.zeros_like(zero) for _ in range(cfg.layers)]
        final_c = [np.zeros_like(zero) for _ in range(cfg.layers)]
        annotations = np.zeros((B, S, cfg.d_h), dtype=self.dtype)
        step_caches = []
        last_steps = set((lengths - 1).tolist())
        for t in range(S):
            h, c, step = self._stack_forward("enc", emb[:, t], h, c, masks, t)
            annotations[:, t] = h[-1]
            # h is the step's list of layer outputs: the step and the next
            # one's h_prev keep a view of the annotations, not a copy
            h[-1] = annotations[:, t]
            if t in last_steps:
                at_end = (lengths - 1 == t)[:, None]
                for l in range(cfg.layers):
                    np.copyto(final_h[l], h[l], where=at_end)
                    np.copyto(final_c[l], c[l], where=at_end)
            step_caches.append(step)
        attn_bias = None
        if min(last_steps) < S - 1:                        # some row is shorter than S
            attn_bias = np.where(np.arange(S)[None, :] < lengths[:, None],
                                 0.0, ATTN_NEG).astype(self.dtype)
        init_state = DecoderState(final_h, final_c, np.zeros_like(zero), np.arange(B), 0)
        cache = {"src": src, "lengths": lengths, "steps": step_caches}
        return EncodedSource(annotations, init_state, attn_bias, cache, masks)

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
        emb = self.params["src_embed"]
        steps = cache["steps"]
        zero = [np.zeros((B, cfg.d_h), dtype=self.dtype)] * cfg.layers
        last_steps = set((lengths - 1).tolist())
        for t in range(S - 1, -1, -1):
            if t in last_steps:
                at_end = lengths - 1 == t
                for l in range(cfg.layers):
                    dh[l][at_end] += d_init.h[l][at_end]
                    dc[l][at_end] += d_init.c[l][at_end]
            dh[-1] += d_annotations[:, t]
            # step t started from step t - 1's outputs, or from zeros
            h, c = (zero, zero) if t == 0 else \
                (steps[t - 1]["h"], [cell["c"] for cell in steps[t - 1]["cells"]])
            dx, dh, dc = self._stack_backward("enc", steps[t], emb.value.take(src[:, t], axis=0),
                                              h, c, dh, dc)
            np.add.at(emb.grad, src[:, t], dx)

    # -- decoder ------------------------------------------------------------

    def decode_step(self, state, words, enc):
        """Advance one decoder step for a batch of hypotheses.

        ``words`` are the tokens being consumed (the previous outputs). Row
        i attends to source ``state.src[i]`` of enc; the step is decoder
        step ``state.step``. Returns (state, cache): the new state's input
        feed is the step's attention hidden state, which score_f scores
        for the next position. No step writes into ``state``; the encoding's
        start state is shared by every search and loss that starts there.
        """
        words = np.asarray(words)
        if words.min() < 0 or words.max() >= self.config.tgt_vocab:
            raise InputError("target token id out of vocabulary range")
        p = self.params
        x = self._dec_input(words, state.input_feed)
        new_h, new_c, cache = self._stack_forward("dec", x, state.h, state.c, enc.masks, state.step)
        top = new_h[-1]                                     # [B, H]
        attn, context = _attend(enc, state.src, top)
        attn_in = np.concatenate([context, top], axis=1)
        attn_hidden = nn.affine_forward(attn_in, p["attn.w"].value, p["attn.b"].value)
        np.tanh(attn_hidden, out=attn_hidden)
        cache.update(words=words, attn=attn, attn_hidden=attn_hidden, enc=enc)
        return DecoderState(new_h, new_c, attn_hidden, state.src, state.step + 1), cache

    def _dec_input(self, words, feed):
        """Decoder layer 0's input: the embedded words joined to the input
        feed. The step's backward rebuilds it from its cache."""
        return np.concatenate([self.params["tgt_embed"].value.take(words, axis=0), feed], axis=1)

    def score_f(self, state):
        """Unnormalized next-token scores [B, V] of a state: an affine map
        of its input feed, the attention hidden state of the step that made
        it."""
        p = self.params
        return nn.affine_forward(state.input_feed, p["out.w"].value, p["out.b"].value)

    def score_f_backward(self, attn_hidden, d_f):
        """The adjoint of score_f.

        ``d_f`` [B, V] is the gradient w.r.t. the scores of the step whose
        attention hidden state is ``attn_hidden`` [B, H]. Adds the out.w and
        out.b gradients in place and returns the [B, H] gradient w.r.t.
        ``attn_hidden``, which the caller adds to the ``input_feed`` of the
        StateGrad it hands ``decode_step_backward``. A caller can take it
        at the step that scores, so no array of vocabulary size has to
        outlive that step.
        """
        p = self.params
        return nn.affine_backward(attn_hidden, p["out.w"].value, d_f,
                                  p["out.w"].grad, p["out.b"].grad)

    def decode_step_backward(self, cache, d_state, d_annotations, state):
        """Backprop one decoder step, up to the attention hidden state.

        ``state`` is the state the step started from, the one handed to
        ``decode_step``: the cache keeps nothing of it. d_state is the
        StateGrad w.r.t. the step's output state. Its
        input_feed is the whole gradient w.r.t. the attention hidden state:
        what the next step's input feed receives plus, added by the caller,
        what the step's scores give (score_f_backward). Parameter grads
        accumulate in place; annotation grads accumulate into d_annotations
        (shape [enc_batch, S, H]) at each row's source. Returns the
        StateGrad w.r.t. the input state.
        """
        cfg = self.config
        p = self.params
        src = state.src
        ah = cache["attn_hidden"]
        d_pre = d_state.input_feed * (1.0 - ah * ah)
        attn = cache["attn"]
        top = cache["h"][-1]
        ann = cache["enc"].annotations.take(src, axis=0)
        context = np.einsum("bs,bsh->bh", attn, ann)        # as _attend computed it
        d_attn_in = nn.affine_backward(np.concatenate([context, top], axis=1),
                                       p["attn.w"].value, d_pre,
                                       p["attn.w"].grad, p["attn.b"].grad)
        H = cfg.d_h
        d_context = d_attn_in[:, :H]
        d_attn = np.einsum("bh,bsh->bs", d_context, ann)
        d_scores = attn * (d_attn - (attn * d_attn).sum(axis=-1, keepdims=True))
        d_top = d_attn_in[:, H:] + np.einsum("bs,bsh->bh", d_scores, ann)
        # the gathered annotations' buffer, read for the last time above,
        # becomes their gradient: attn x d_context, plus d_scores x top added
        # a block of rows at a time, so no second [B, S, H] array is made
        d_ann_rows = np.einsum("bs,bh->bsh", attn, d_context, out=ann)
        del ann
        step = max(ROW_BLOCK, -(-len(src) // 4))
        for lo in range(0, len(src), step):
            block = slice(lo, lo + step)
            d_ann_rows[block] += np.einsum("bs,bh->bsh", d_scores[block], top[block])
        nn.scatter_add(d_annotations, src, d_ann_rows)
        # the [B, S, H] buffer goes before the LSTM backward
        del d_ann_rows
        dh = d_state.h[:-1] + [d_state.h[-1] + d_top]
        dx, dh_prev, dc_prev = self._stack_backward(
            "dec", cache, self._dec_input(cache["words"], state.input_feed), state.h, state.c,
            dh, d_state.c)
        E = cfg.d_emb
        np.add.at(p["tgt_embed"].grad, cache["words"], dx[:, :E])
        return StateGrad(dh_prev, dc_prev, dx[:, E:])

    def state_grad_zeros(self, batch):
        return StateGrad.zeros(self.config.layers, batch, self.config.d_h, self.dtype)

    # -- checkpointing ------------------------------------------------------

    def save(self, path, extra=None):
        """Write the checkpoint, a zip archive of stored members: ``header.json``
        (the config and ``extra``), then each parameter's value and its
        ``.accum`` as little-endian float32 bytes. Members carry zip's fixed
        1980 date, so equal models give equal files. The archive goes to a
        temporary file next to ``path``, which then moves over ``path``: a
        failed write leaves the old file intact."""
        header = {"config": self.config.to_dict(), "extra": extra or {}}
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                with zipfile.ZipFile(fh, "w") as zf:
                    zf.writestr(zipfile.ZipInfo(HEADER), json.dumps(header))
                    for name, slot in self.params.items():
                        for member, arr in ((name, slot.value),
                                            (name + ".accum", slot.adagrad_accum)):
                            zf.writestr(zipfile.ZipInfo(member),
                                        np.ascontiguousarray(arr, dtype="<f4").tobytes())
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path):
        """Read a checkpoint: (model, header ``extra``); raises
        CheckpointError unless it is a whole archive of stored members whose
        header, member set and sizes agree with its ModelConfig, and every
        member's CRC-32 matches its bytes."""
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic == b"BSOC":
                raise CheckpointError(f"checkpoint {path} was written in the old BSOC format; "
                                      f"write it again with this version's bso pretrain")
            if magic != b"PK\x03\x04":
                raise CheckpointError(f"bad model checkpoint magic {magic!r}")
            fh.seek(max(fh.seek(0, os.SEEK_END) - 22, 0))
            end = fh.read()
            # the end record, with no archive comment, closes the file
            if len(end) != 22 or end[:4] != b"PK\x05\x06" or end[20:] != b"\0\0":
                raise CheckpointError(f"checkpoint {path} is truncated or has bytes after "
                                      f"its zip end record")
            try:
                with zipfile.ZipFile(fh) as zf:
                    cfg, extra, tensors = _read_members(zf)
            except CheckpointError:
                raise
            # what zipfile raises on corrupt input: a bad CRC-32 or structure,
            # an encrypted or patched member, a seek to a corrupt offset
            except (zipfile.BadZipFile, EOFError, NotImplementedError, RuntimeError, OSError,
                    ValueError) as exc:
                raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from None
        model = cls(cfg, init=False)
        for name in param_shapes(cfg):
            model.params[name] = ParamSlot(name, tensors[name],
                                           adagrad_accum=tensors[name + ".accum"])
        return model, extra


def _read_members(zf):
    """(ModelConfig, header ``extra``, name -> float32 array) of an open
    checkpoint archive. Everything the central directory and the header
    decide is checked before a tensor is read, so memory stays bounded by
    the file's size."""
    infos = zf.infolist()
    packed = [i.filename for i in infos if i.compress_type != zipfile.ZIP_STORED]
    if packed:
        raise CheckpointError(f"checkpoint members {packed} are compressed; "
                              f"a checkpoint stores every member")
    try:
        header = json.loads(zf.read(HEADER))
        cfg = ModelConfig(**header["config"])
        extra = header.get("extra", {})
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise CheckpointError(f"bad checkpoint header: {exc}") from None
    if not all(type(v) is int and v > 0 for v in cfg.to_dict().values()):
        raise CheckpointError(f"bad model configuration {cfg.to_dict()}")
    want = {n: s for name, s in param_shapes(cfg).items() for n in (name, name + ".accum")}
    have, need = {i.filename for i in infos}, {HEADER, *want}
    if have != need:
        raise CheckpointError(f"checkpoint parameters do not match the model configuration: "
                              f"missing {sorted(need - have)}, unexpected {sorted(have - need)}")
    for name, shape in want.items():
        size = zf.getinfo(name).file_size
        if size != 4 * math.prod(shape):
            raise CheckpointError(f"parameter {name} holds {size} bytes, "
                                  f"the configuration needs shape {shape}")
    tensors = {name: np.frombuffer(zf.read(name), "<f4").reshape(shape).astype(np.float32)
               for name, shape in want.items()}
    return cfg, extra, tensors
