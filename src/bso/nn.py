"""Differentiable numerical primitives with hand-derived backward passes.

Everything here works on plain numpy arrays. The batch dimension is always
first. Parameters default to float32; float64 is supported throughout so
gradient checks can run at full precision. Dropout is not here: its masks
live with the stacked LSTM that applies them (``model.MaskSet``).
"""

from __future__ import annotations

import numpy as np

ADAGRAD_EPS = 1e-10
INIT_SCALE = 0.1


class DimensionError(ValueError):
    """Shapes passed to a primitive do not match its parameters."""


def assert_finite(x, what="tensor"):
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"non-finite values in {what}")


class ParamSlot:
    """One named parameter with its Adagrad accumulator and, from the first
    write of a backward pass to the update that consumes it, its gradient.

    ``grad`` is made as zeros the first time it is read, and backward code
    adds into it in place; ``zero_grad`` drops it. A slot that is built,
    copied, loaded or only read by a search or a decode holds its value and
    accumulator alone.
    """

    def __init__(self, name, value, adagrad_accum=None):
        self.name = name
        self.value = value
        self.adagrad_accum = np.zeros_like(value) if adagrad_accum is None else adagrad_accum
        if self.adagrad_accum.shape != value.shape:
            raise DimensionError(f"slot {name}: value/accum shapes differ")
        self._grad = None

    @classmethod
    def create(cls, name, shape, rng, dtype=np.float32):
        value = rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape).astype(dtype)
        return cls(name, value)

    @property
    def grad(self):
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    def zero_grad(self):
        """Drop the gradient: the next read of ``grad`` makes a zero one."""
        self._grad = None


def sigmoid(x):
    """Logistic function, 1 / (1 + exp(-x)) for x >= 0 and
    exp(x) / (1 + exp(x)) below: exp never sees a positive argument, so
    it cannot overflow. The numerator is max(e, x >= 0): e <= 1, so it is 1
    where x >= 0 and e elsewhere (NaN stays NaN), without a masked select.
    Every step after the first writes into an array of its own making."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0)
    e += 1.0
    out /= e
    return out


# ---------------------------------------------------------------------------
# LSTM cell. The four gates are one [B, 4H] array, blocks along the last
# axis [input, forget, candidate, output]: the forward pass takes one
# sigmoid over the whole pre-activation, then overwrites the candidate
# block with its tanh, and caches that array as ``gates``. The cache holds
# ``gates`` and the new cell state ``c``, which a recurrence keeps alive
# anyway as the next step's ``c_prev``. It holds nothing the step started
# from: the caller passes the backward the input ``x`` and the states
# ``h_prev`` and ``c_prev``, which a recurrence keeps in the step before.
# Nor does it hold tanh(c), which the backward recomputes bit for bit
# from ``c``.


def lstm_cell_forward(x, h_prev, c_prev, w_x, w_h, b):
    """One LSTM step over a batch of rows.

    x: [B, d_in], h_prev/c_prev: [B, H]; w_x: [d_in, 4H], w_h: [H, 4H],
    b: [4H]. Returns (h, c, cache).
    """
    H = h_prev.shape[1]
    if w_x.shape != (x.shape[1], 4 * H) or w_h.shape != (H, 4 * H) or b.shape != (4 * H,):
        raise DimensionError(
            f"lstm shapes: x{x.shape} h{h_prev.shape} wx{w_x.shape} wh{w_h.shape} b{b.shape}")
    # the sums in place, in the order of x @ w_x + h_prev @ w_h + b
    pre = x @ w_x
    pre += h_prev @ w_h
    pre += b
    gates = sigmoid(pre)
    i, f, g, o = gates[:, :H], gates[:, H:2 * H], gates[:, 2 * H:3 * H], gates[:, 3 * H:]
    np.tanh(pre[:, 2 * H:3 * H], out=g)
    c = f * c_prev
    c += i * g
    h = np.tanh(c)
    h *= o
    return h, c, {"gates": gates, "c": c}


def lstm_cell_backward(cache, dh, dc, x, h_prev, c_prev, w_x, w_h, gw_x, gw_h, gb):
    """Backward of :func:`lstm_cell_forward`, whose inputs ``x``,
    ``h_prev`` and ``c_prev`` were the given ones; adds into
    gw_x/gw_h/gb."""
    gates = cache["gates"]
    tc = np.tanh(cache["c"])
    B, H = tc.shape
    # a gate-major copy [4, B, H]: elementwise arithmetic on whole
    # contiguous blocks is cheaper than on strided column slices. A copy
    # always, as it is written below: for one row the transpose is already
    # contiguous, and ascontiguousarray would hand back a view of the cache
    g4 = gates.reshape(B, 4, H).transpose(1, 0, 2).copy()
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
    d4 *= np.subtract(1.0, g4, out=g4)
    d4[2] = d_cand
    # the gate-major arrays go before the weight-gradient products
    del g4, i, f, g, o, d_cand
    dpre = d4.transpose(1, 0, 2).reshape(B, 4 * H)
    del d4
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
    out = x @ w
    out += b
    return out


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


def log_softmax(scores, out=None):
    """Row-wise log-softmax of ``scores``, written into ``out`` if given
    (``out=scores`` overwrites the input). Besides the result it holds one
    array of the input's size, the exponentials, at a time."""
    assert_finite(scores, "log_softmax input")
    m = scores.max(axis=-1, keepdims=True)
    shifted = np.subtract(scores, m, out=out)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    shifted -= lse
    return shifted


# ---------------------------------------------------------------------------
# Optimizer and gradient utilities.


def global_grad_norm(slots):
    """The L2 norm of all the slots' gradients together, summed in float64.
    At most one float64 copy of a gradient is alive at a time."""
    total = 0.0
    for s in slots:
        g = s.grad.astype(np.float64, copy=False).ravel()
        total += float(np.dot(g, g))
        del g
    return float(np.sqrt(total))


def clip_global_norm(slots, max_norm):
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
            g = s.grad
            g *= np.asarray(scale, dtype=g.dtype)
    return norm


def adagrad_step(slot, lr):
    """Adagrad update from the slot's gradient, which it then drops: the
    gradient's buffer takes the step lr * g / (sqrt(accum) + eps), and one
    temporary holds g * g and then the denominator."""
    g = slot.grad
    tmp = g * g
    slot.adagrad_accum += tmp
    np.sqrt(slot.adagrad_accum, out=tmp)
    tmp += ADAGRAD_EPS
    g *= lr
    g /= tmp
    del tmp
    slot.value -= g
    slot.zero_grad()
