"""Independent reference implementations used to check the BSO machinery.

These deliberately avoid the incremental bookkeeping of the real code:
the forward oracle rescores every candidate prefix from scratch at every
step, and the backward oracle runs one separate truncated BPTT per
violation record (O(T^2) per sequence). Agreement with the O(T) merged
implementations is what the tests assert. The frozen-search margin loss is
the quantity the merged backward pass is finite-differenced against. The
per-hypothesis beam step is the reference for the array beam step: one
sentence, one Hypothesis object and one constraint state per hypothesis,
whose successors it reads from a dense mask of the state's pairs.
The three-sigmoid LSTM cell, with its gates as four arrays, is the
reference for the fused one-array cell in ``bso.nn``. Dropout masks drawn
one (step, layer boundary) at a time are the reference for
``MaskSet.build``'s one draw.
"""

from dataclasses import dataclass

import numpy as np

from bso import nn


def reference_lstm_cell_forward(x, h_prev, c_prev, w_x, w_h, b):
    """One LSTM step with one sigmoid per gate; gate layout along the last
    axis of the 4H pre-activation: [input, forget, candidate, output]."""
    H = h_prev.shape[1]
    pre = x @ w_x + h_prev @ w_h + b
    i = nn.sigmoid(pre[:, :H])
    f = nn.sigmoid(pre[:, H:2 * H])
    g = np.tanh(pre[:, 2 * H:3 * H])
    o = nn.sigmoid(pre[:, 3 * H:])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    cache = {"i": i, "f": f, "g": g, "o": o, "tc": tc}
    return h, c, cache


def reference_lstm_cell_backward(cache, dh, dc, x, h_prev, c_prev, w_x, w_h, gw_x, gw_h, gb):
    """Backward of :func:`reference_lstm_cell_forward` at inputs ``x``,
    ``h_prev`` and ``c_prev``; adds into gw_x/gw_h/gb."""
    i, f, g, o, tc = (cache[k] for k in ("i", "f", "g", "o", "tc"))

    do = dh * tc
    dc_full = dc + dh * o * (1.0 - tc * tc)
    di = dc_full * g
    dg = dc_full * i
    df = dc_full * c_prev
    dc_prev = dc_full * f

    dpre = np.concatenate(
        [di * i * (1.0 - i),
         df * f * (1.0 - f),
         dg * (1.0 - g * g),
         do * o * (1.0 - o)], axis=1)
    gw_x += x.T @ dpre
    gw_h += h_prev.T @ dpre
    gb += dpre.sum(axis=0)
    dx = dpre @ w_x.T
    dh_prev = dpre @ w_h.T
    return dx, dh_prev, dc_prev


def reference_dropout_masks(rate, boundaries, steps, rng, size, dtype=np.float32):
    """Inverted-dropout masks, one per (time step, layer boundary), drawn in
    that order with one ``rng.random`` call each; {(step, boundary): mask}.
    For a MaskSet, the steps are the encoder's and then the decoder's."""
    masks = {}
    keep = 1.0 - rate
    for t in range(steps):
        for l in range(boundaries):
            if rate == 0.0:
                masks[t, l] = np.ones(size, dtype=dtype)
            else:
                masks[t, l] = (rng.random(size) < keep).astype(dtype) / dtype(keep)
    return masks


def successor_mask(state, n=1):
    """The successor pairs of an n-row constraint state as an [n, V]
    boolean mask."""
    mask = np.zeros((n, state.vocab_size), dtype=bool)
    mask[state.allowed_mask()] = True
    return mask


@dataclass
class Hypothesis:
    tokens: tuple
    score: float                 # cumulative f of the tokens search appended
    constraint: object           # a one-row constraint state
    seg_score: float = 0.0       # cumulative f since the last search reset
    last_f: float = 0.0


def reference_top_k(scores, valid, k):
    """Pick the K best (parent, word) expansions of one sentence.

    scores: [n_hyp, vocab] cumulative scores; valid: same-shape bool mask.
    Ties break toward the lower word index, then the lower parent index.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    n, v = scores.shape
    flat_valid = np.asarray(valid).ravel()
    idx = np.flatnonzero(flat_valid)
    if idx.size == 0:
        return []
    s = scores.ravel()[idx]
    words = idx % v
    parents = idx // v
    order = np.lexsort((parents, words, -s))
    take = order[:k]
    return [(int(parents[i]), int(words[i])) for i in take]


def reference_beam_step(hyps, f, k):
    """Expand one sentence's hypotheses by one token: the K best successors.

    f: [n, V] float64 f-scores, row i scoring the next word of hyps[i].
    Successors rank by segment score; each carries its parent's constraint
    advanced by its word. Returns (successors, parent row of each).
    """
    cum = f + np.array([h.seg_score for h in hyps])[:, None]
    valid = np.stack([successor_mask(h.constraint)[0] for h in hyps])
    succ, rows = [], []
    for parent, w in reference_top_k(cum, valid, k):
        h = hyps[parent]
        fw = float(f[parent, w])
        succ.append(Hypothesis(h.tokens + (w,), h.score + fw, h.constraint.advance(w),
                               seg_score=h.seg_score + fw, last_f=fw))
        rows.append(parent)
    return succ, rows


def rescore_prefix(model, enc, tokens, bos_id):
    """Teacher-force a token prefix from the initial state; return the
    f-score of each emitted token, the per-step caches and the states
    after each prefix (entry j after the first j tokens)."""
    state = enc.init_state
    fs, caches, states = [], [], [state]
    for t, w in enumerate(tokens):
        in_w = bos_id if t == 0 else tokens[t - 1]
        state, cache = model.decode_step(state, [in_w], enc)
        fs.append(float(model.score_f(state)[0, w]))
        caches.append(cache)
        states.append(state)
    return fs, caches, states


def oracle_bso_forward(model, enc, gold, k, constraint, delta_fn, bos_id,
                       margin_score="cumulative"):
    """Reference forward pass: beam kept as explicit token prefixes, every
    candidate rescored from scratch each step.

    Returns a list of dict records with keys t, r, viol_tokens, gold_score,
    viol_score (the pair the margin compared: segment sums, or the
    violation step's f under ``"laststep"``) and delta, which is 0 for a
    comparator that is the gold segment.
    """
    gold = tuple(int(w) for w in gold)
    T = len(gold)
    vocab = model.config.tgt_vocab
    gold_constraints = [constraint]
    c = constraint
    for w in gold:
        c = c.advance(w)
        gold_constraints.append(c)
    gold_fs = rescore_prefix(model, enc, gold, bos_id)[0]

    records = []
    r = 0
    beam = None  # list of (tokens, constraint) in rank order, or None after reset

    for t in range(1, T + 1):
        base = beam if beam is not None else [(gold[:r], gold_constraints[r])]
        cands = []
        for parent, (toks, cstate) in enumerate(base):
            mask = successor_mask(cstate)[0]
            for w in range(vocab):
                if not mask[w]:
                    continue
                seq = toks + (w,)
                fs = rescore_prefix(model, enc, seq, bos_id)[0]
                seg = 0.0
                for f in fs[r:]:
                    seg = seg + f
                cands.append((seg, w, parent, seq, cstate.advance(w), fs[-1]))
        cands.sort(key=lambda x: (-x[0], x[1], x[2]))
        picks = cands[:k]
        beam = [(seq, cst) for _, _, _, seq, cst, _ in picks]

        gold_seg = 0.0
        for f in gold_fs[r:t]:
            gold_seg = gold_seg + f

        comp = None
        if t < T:
            if picks:
                comp = len(picks) - 1
        else:
            for i, (seq, _) in enumerate(beam):
                if seq != gold:
                    comp = i
                    break
        violated = False
        if comp is not None:
            if margin_score == "laststep":
                violated = gold_fs[t - 1] < picks[comp][5] + 1.0
            else:
                violated = gold_seg < picks[comp][0] + 1.0
        elif t < T and not picks:
            violated = True

        if violated:
            if comp is not None:
                vt = beam[comp][0][r:]
                if margin_score == "laststep":
                    scores = gold_fs[t - 1], picks[comp][5]
                else:
                    scores = gold_seg, picks[comp][0]
                records.append({
                    "t": t, "r": r, "viol_tokens": vt,
                    "gold_score": scores[0], "viol_score": scores[1],
                    "delta": 0.0 if vt == gold[r:t] else float(delta_fn(vt, gold[r:t])),
                })
            r = t
            beam = None
    return records


def _bptt_prefix(model, enc, tokens, coefs, bos_id, d_ann):
    """Rerun a prefix with teacher forcing, then backprop coefs[t] onto the
    f-score of tokens[t] at every step, through the decoder into d_ann and
    the returned initial-state gradient."""
    _, caches, states = rescore_prefix(model, enc, tokens, bos_id)
    d_state = model.state_grad_zeros(1)
    v = model.config.tgt_vocab
    for t in range(len(tokens) - 1, -1, -1):
        if coefs[t] != 0.0:
            d_f = np.zeros((1, v), dtype=model.dtype)
            d_f[0, tokens[t]] = coefs[t]
            d_state.input_feed += model.score_f_backward(caches[t]["attn_hidden"], d_f)
        d_state = model.decode_step_backward(caches[t], d_state, d_ann, states[t])
    return d_state


def naive_bso_backward(model, src, fwd, bos_id, masks=None):
    """Reference backward: one independent BPTT per record per stream.

    ``src`` is the source of the sentence the records belong to (fwd a
    batch of one). Accumulates into the model's parameter grads, exactly
    like bso_backward; ``fwd.margin_score`` says which steps' f-scores a
    record's margin sums.
    """
    for rec in fwd.records:
        gold = fwd.gold_tokens[rec.sentence]
        for tokens, sign in ((gold[:rec.t], -1.0),
                             (gold[:rec.r] + tuple(rec.violating_tokens), +1.0)):
            coefs = [0.0] * len(tokens)
            if fwd.margin_score == "laststep":
                active = [rec.t - 1]
            else:
                active = range(rec.r, rec.t)
            for i in active:
                coefs[i] = sign * rec.delta
            if not any(coefs):
                continue
            enc = model.encode(src, masks=masks)
            d_ann = np.zeros_like(enc.annotations)
            d_state = _bptt_prefix(model, enc, tokens, coefs, bos_id, d_ann)
            model.encode_backward(enc, d_ann, d_state)


def grad_snapshot(model):
    return {s.name: s.grad.copy() for s in model.slots()}


def bso_frozen_loss(model, src, gold, records, bos_id, margin_score, masks=None):
    """Recompute the margin loss with search decisions and deltas frozen.

    Reruns the gold path and each recorded violating segment (teacher
    forcing their stored tokens) under the model's current parameters and
    returns sum_i delta_i * (1 - gold_i + viol_i) without re-flooring,
    where gold_i and viol_i are the segments' summed f-scores, or their
    last step's under ``margin_score="laststep"``. bso_backward computes
    the exact gradient of this quantity, which makes it the right target
    for finite differencing.
    """
    enc = model.encode(src, masks=masks)
    gold = tuple(gold)
    gold_f, _, states = rescore_prefix(model, enc, gold, bos_id)
    total = 0.0
    for rec in records:
        if rec.delta == 0.0:
            continue
        g_seg = sum(gold_f[rec.r:rec.t])
        g_last = gold_f[rec.t - 1]
        vstate = states[rec.r]
        v_seg = 0.0
        v_last = 0.0
        prev_words = (gold[:rec.r] + tuple(rec.violating_tokens))
        for i, w in enumerate(rec.violating_tokens):
            step = rec.r + i
            in_w = bos_id if step == 0 else prev_words[step - 1]
            vstate, _ = model.decode_step(vstate, [in_w], enc)
            fv = float(model.score_f(vstate)[0, w])
            v_seg += fv
            v_last = fv
        if margin_score == "laststep":
            total += rec.delta * (1.0 - g_last + v_last)
        else:
            total += rec.delta * (1.0 - g_seg + v_seg)
    return total
