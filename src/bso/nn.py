"""Differentiable numerical primitives with hand-derived backward passes.

Everything here works on plain numpy arrays. The batch dimension is always
first. Parameters default to float32; float64 is supported throughout so
gradient checks can run at full precision.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

ADAGRAD_EPS = 1e-10
INIT_SCALE = 0.1
MAGIC = b"BSO1"


class DimensionError(ValueError):
    """Shapes passed to a primitive do not match its parameters."""


class CheckpointError(ValueError):
    """A checkpoint is truncated or corrupt, or does not match its model
    configuration."""


def assert_finite(x, what="tensor"):
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"non-finite values in {what}")


@dataclass
class ParamSlot:
    """One named parameter with its gradient and Adagrad accumulator."""

    name: str
    value: np.ndarray
    grad: np.ndarray = None
    adagrad_accum: np.ndarray = None

    def __post_init__(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        if self.adagrad_accum is None:
            self.adagrad_accum = np.zeros_like(self.value)
        if self.grad.shape != self.value.shape or self.adagrad_accum.shape != self.value.shape:
            raise DimensionError(f"slot {self.name}: value/grad/accum shapes differ")

    @classmethod
    def create(cls, name, shape, rng, dtype=np.float32, scale=INIT_SCALE):
        value = rng.uniform(-scale, scale, size=shape).astype(dtype)
        return cls(name, value)

    def zero_grad(self):
        self.grad[...] = 0


def sigmoid(x):
    """Logistic function, 1 / (1 + exp(-x)) for x >= 0 and
    exp(x) / (1 + exp(x)) below: exp never sees a positive argument, so
    it cannot overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


# ---------------------------------------------------------------------------
# LSTM cell. The four gates are one [B, 4H] array, blocks along the last
# axis [input, forget, candidate, output]: the forward pass takes one
# sigmoid over the whole pre-activation, then overwrites the candidate
# block with its tanh, and caches that array as ``gates``.


def lstm_cell_forward(x, h_prev, c_prev, w_x, w_h, b):
    """One LSTM step over a batch of rows.

    x: [B, d_in], h_prev/c_prev: [B, H]; w_x: [d_in, 4H], w_h: [H, 4H],
    b: [4H]. Returns (h, c, cache).
    """
    H = h_prev.shape[1]
    if w_x.shape != (x.shape[1], 4 * H) or w_h.shape != (H, 4 * H) or b.shape != (4 * H,):
        raise DimensionError(
            f"lstm shapes: x{x.shape} h{h_prev.shape} wx{w_x.shape} wh{w_h.shape} b{b.shape}")
    pre = x @ w_x + h_prev @ w_h + b
    gates = sigmoid(pre)
    np.tanh(pre[:, 2 * H:3 * H], out=gates[:, 2 * H:3 * H])
    i, f, g, o = gates.reshape(-1, 4, H).transpose(1, 0, 2)
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    cache = {"x": x, "h_prev": h_prev, "c_prev": c_prev, "gates": gates, "tc": tc}
    return h, c, cache


def lstm_cell_backward(cache, dh, dc, w_x, w_h, gw_x, gw_h, gb):
    """Backward of :func:`lstm_cell_forward`; adds into gw_x/gw_h/gb."""
    x, h_prev, c_prev = cache["x"], cache["h_prev"], cache["c_prev"]
    gates, tc = cache["gates"], cache["tc"]
    B, H = tc.shape
    # a gate-major copy [4, B, H]: elementwise arithmetic on whole
    # contiguous blocks is cheaper than on strided column slices
    g4 = np.ascontiguousarray(gates.reshape(B, 4, H).transpose(1, 0, 2))
    i, f, g, o = g4

    dc_full = dc + dh * o * (1.0 - tc * tc)
    dc_prev = dc_full * f
    # gradient w.r.t. each gate's value, then times the gate's derivative:
    # s * (1 - s), or 1 - g * g for the tanh candidate
    d4 = np.empty(g4.shape, dtype=dc_full.dtype)
    np.multiply(dc_full, g, out=d4[0])
    np.multiply(dc_full, c_prev, out=d4[1])
    np.multiply(dc_full, i, out=d4[2])
    np.multiply(dh, tc, out=d4[3])
    d_cand = d4[2] * (1.0 - g * g)
    d4 *= g4
    d4 *= 1.0 - g4
    d4[2] = d_cand
    dpre = d4.transpose(1, 0, 2).reshape(B, 4 * H)
    gw_x += x.T @ dpre
    gw_h += h_prev.T @ dpre
    gb += dpre.sum(axis=0)
    dx = dpre @ w_x.T
    dh_prev = dpre @ w_h.T
    return dx, dh_prev, dc_prev


# ---------------------------------------------------------------------------
# Affine layer.


def affine_forward(x, w, b):
    """out = x @ w + b, x: [B, d_in], w: [d_in, d_out]."""
    if w.shape[0] != x.shape[1] or b.shape != (w.shape[1],):
        raise DimensionError(f"affine shapes: x{x.shape} w{w.shape} b{b.shape}")
    return x @ w + b


def affine_backward(x, w, d_out, gw, gb):
    """Backward of affine_forward; adds into gw/gb, returns dx."""
    gw += x.T @ d_out
    gb += d_out.sum(axis=0)
    return d_out @ w.T


# ---------------------------------------------------------------------------
# Scatter-add.


def scatter_add(out, rows, values):
    """``out[rows[j]] += values[j]`` for each j in turn: ``np.add.at``'s
    result, bit for bit, for any rows, repeated or unsorted.

    Each round adds, with one fancy-indexed add, the next occurrence of
    every row that has one left, so every row of ``out`` sums its values
    in the order ``np.add.at`` does. Faster than ``np.add.at`` when the
    rows are large ([rows, S, H] annotation gradients); for 2-D rows of a
    few dozen columns ``np.add.at`` wins.
    """
    rows = np.asarray(rows)
    order = np.argsort(rows, kind="stable")
    ranked = rows[order]
    # occurrence number of each entry of rows, in sorted order
    nth = np.arange(len(rows)) - np.searchsorted(ranked, ranked)
    if not nth.any():
        out[rows] += values
        return
    for n in range(int(nth.max()) + 1):
        pick = order[nth == n]
        out[rows[pick]] += values[pick]


# ---------------------------------------------------------------------------
# Log-softmax (max-subtracted, rows).


def log_softmax(scores):
    assert_finite(scores, "log_softmax input")
    m = scores.max(axis=-1, keepdims=True)
    shifted = scores - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - lse


# ---------------------------------------------------------------------------
# Optimizer and gradient utilities.


def global_grad_norm(slots):
    total = 0.0
    for s in slots:
        g = s.grad.astype(np.float64, copy=False)
        total += float(np.dot(g.ravel(), g.ravel()))
    return float(np.sqrt(total))


def clip_global_norm(slots, max_norm=5.0):
    """Scale all grads so the global L2 norm does not exceed max_norm.

    Returns the norm before clipping. A non-finite norm leaves the grads as
    they are, for the caller to reject: scaling by max_norm / inf would
    turn every gradient into NaN.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = global_grad_norm(slots)
    if np.isfinite(norm) and norm > max_norm:
        scale = max_norm / norm
        for s in slots:
            s.grad *= np.asarray(scale, dtype=s.grad.dtype)
    return norm


def adagrad_step(slot, lr):
    """Adagrad update; zeroes the grad afterwards."""
    g = slot.grad
    slot.adagrad_accum += g * g
    slot.value -= (lr * g / (np.sqrt(slot.adagrad_accum) + ADAGRAD_EPS)).astype(slot.value.dtype)
    slot.zero_grad()


# ---------------------------------------------------------------------------
# Dropout.


@dataclass
class DropoutMask:
    time_step: int
    layer: int
    mask: np.ndarray


def make_dropout_masks(rate, layers, steps, rng, size, dtype=np.float32):
    """Inverted-dropout masks, one per (layer boundary, time-step).

    The same per-step mask gets reused by every partial hypothesis alive at
    that step, and again in the backward pass.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    masks = []
    keep = 1.0 - rate
    for t in range(steps):
        for l in range(layers):
            if rate == 0.0:
                m = np.ones(size, dtype=dtype)
            else:
                m = (rng.random(size) < keep).astype(dtype) / dtype(keep)
            masks.append(DropoutMask(time_step=t, layer=l, mask=m))
    return masks


# ---------------------------------------------------------------------------
# Checkpoint fragment format: MAGIC, then per tensor
#   u32 name length, name bytes (utf-8), u32 ndim, u32 dims..., f32 data (LE).


def write_fragment(fh, tensors):
    fh.write(MAGIC)
    fh.write(struct.pack("<I", len(tensors)))
    for name, arr in tensors.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        nb = name.encode("utf-8")
        fh.write(struct.pack("<I", len(nb)))
        fh.write(nb)
        fh.write(struct.pack("<I", data.ndim))
        fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
        fh.write(data.tobytes())


def read_exact(fh, n, what):
    """Read exactly n bytes, in bounded pieces, or raise CheckpointError:
    a corrupt length reads to the end of the file, not into memory."""
    chunks = []
    while n > 0:
        chunk = fh.read(min(n, 1 << 20))
        if not chunk:
            raise CheckpointError(f"checkpoint truncated in {what}")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _read_u32(fh, what):
    return struct.unpack("<I", read_exact(fh, 4, what))[0]


def read_fragment(fh):
    magic = fh.read(4)
    if magic != MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r}")
    count = _read_u32(fh, "the tensor count")
    tensors = {}
    for i in range(count):
        raw = read_exact(fh, _read_u32(fh, f"tensor {i}"), f"tensor {i}")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"tensor {i} has a name that is not UTF-8") from None
        if name in tensors:
            raise CheckpointError(f"tensor {name!r} appears twice")
        ndim = _read_u32(fh, name)
        shape = struct.unpack(f"<{ndim}I", read_exact(fh, 4 * ndim, name))
        data = np.frombuffer(read_exact(fh, 4 * math.prod(shape), name), dtype="<f4")
        try:
            tensors[name] = data.reshape(shape).copy()
        except ValueError:
            raise CheckpointError(f"tensor {name!r} has an impossible shape {shape}") from None
    return tensors
