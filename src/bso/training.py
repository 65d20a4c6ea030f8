"""Training regimes: cross-entropy pretraining and beam-search optimization.

BSO training runs beam search alongside the gold sequence. Whenever the
gold prefix fails to outscore the last-ranked beam entry by a margin of 1,
the violating segment is recorded and search resumes from the gold history
(a LaSO reset). At the final step the comparator is instead the
highest-ranked hypothesis that differs from the gold sequence. All
violations of one sequence are accumulated and parameters updated once per
batch (delayed update).

The backward pass is a single reverse sweep that maintains two gradient
streams -- one for the gold path, one for the violating path currently in
scope -- folding the violating stream into the gold stream at each reset
boundary. This reproduces exactly what independent per-sequence BPTT would
compute, in O(T) instead of O(T^2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import nn
from .beam import ChainNode, Hypothesis, beam_step, validate_gold
from .metrics import sentence_bleu_smoothed
from .model import MaskSet


# ---------------------------------------------------------------------------
# Mistake-specific costs


def delta_01(viol_tokens, gold_tokens):
    """0/1 cost: 1 for any true mistake, 0 if the comparator is the gold."""
    return 0.0 if tuple(viol_tokens) == tuple(gold_tokens) else 1.0


def delta_sentence_bleu(viol_tokens, gold_tokens):
    """1 - smoothed sentence BLEU of the violating segment vs the gold one."""
    if tuple(viol_tokens) == tuple(gold_tokens):
        return 0.0
    return 1.0 - sentence_bleu_smoothed(list(viol_tokens), list(gold_tokens))


DELTA_FNS = {"zero_one": delta_01, "sentence_bleu": delta_sentence_bleu}


# ---------------------------------------------------------------------------
# Violation records


@dataclass
class ViolationRecord:
    t: int                        # violation step (1-based)
    r: int                        # previous reset point
    violating_tokens: tuple       # \hat{y}_{r+1:t}
    gold_tokens: tuple            # y_{r+1:t}
    gold_score_seg: float         # cumulative f of the gold segment
    viol_score_seg: float         # cumulative f of the violating segment
    gold_last_f: float
    viol_last_f: float
    delta: float
    chain: ChainNode = None       # decoder caches of the violating segment
    margin_score: str = "cumulative"

    def margin_terms(self):
        if self.margin_score == "laststep":
            return self.gold_last_f, self.viol_last_f
        return self.gold_score_seg, self.viol_score_seg


@dataclass
class ForwardResult:
    records: list
    gold_caches: list             # decoder cache per step 1..T
    gold_f: list                  # f(y_t, h_{t-1}) per step
    gold_tokens: tuple
    enc: object
    margin_score: str = "cumulative"


def margin_loss(records):
    """Sum of delta * (1 - gold + viol), each record floored at zero."""
    total = 0.0
    for rec in records:
        g, v = rec.margin_terms()
        total += max(0.0, rec.delta * (1.0 - g + v))
    return total


# ---------------------------------------------------------------------------
# Forward pass: find violations


def bso_forward(model, enc, gold, k_tr, constraint, delta_fn, bos_id,
                masks=None, margin_score="cumulative"):
    """Run beam search alongside the gold path and collect margin violations.

    gold: token id sequence y_{1:T} (EOS included for open-ended tasks).
    constraint: initial constraint state shared by gold and hypotheses; the
    gold sequence is validated against it up front.
    Returns a ForwardResult whose caches feed :func:`bso_backward`.
    """
    gold = tuple(int(w) for w in gold)
    T = len(gold)
    if T == 0:
        raise ValueError("empty gold sequence")
    validate_gold(constraint, gold)

    gold_state = model.init_state(enc)
    gold_constraints = [constraint]          # constraint state after y_{1:t}
    cstate = constraint
    for w in gold:
        cstate = cstate.advance(w)
        gold_constraints.append(cstate)

    records = []
    gold_caches, gold_f = [], []
    r = 0
    gold_seg = 0.0
    hyps = None
    beam_states = None

    for t in range(1, T + 1):
        in_w = bos_id if t == 1 else gold[t - 2]
        out_g, cache_g = model.decode_step(gold_state, [in_w], enc,
                                           step=t - 1, masks=masks)
        f_g = model.score_f(out_g).astype(np.float64)
        fy = float(f_g[0, gold[t - 1]])
        gold_caches.append(cache_g)
        gold_f.append(fy)

        if hyps is None:
            # beam (re)seeded from the gold prefix y_{1:r}: a beam of one
            # whose step is the gold step, which consumed the same state
            # and word
            hyps = [Hypothesis(gold[:r], 0.0, gold_constraints[r])]
            out, cache, f = out_g, cache_g, f_g
        else:
            words = np.array([h.tokens[-1] for h in hyps])
            out, cache = model.decode_step(beam_states, words, enc,
                                           step=t - 1, masks=masks)
            f = model.score_f(out).astype(np.float64)
        parents = hyps
        hyps, rows = beam_step(parents, f, k_tr)
        for h, row in zip(hyps, rows):
            h.chain = ChainNode(parents[row].chain, cache, row, h.tokens[-1], h.last_f)
        beam_states = out.state.select(rows)

        gold_seg_t = gold_seg + fy

        comparator = None
        if t < T:
            if hyps:
                comparator = hyps[min(k_tr, len(hyps)) - 1]
        else:
            for h in hyps:
                if h.tokens != gold:
                    comparator = h
                    break
        violated = False
        if comparator is not None:
            if margin_score == "laststep":
                violated = fy < comparator.last_f + 1.0
            else:
                violated = gold_seg_t < comparator.seg_score + 1.0
        elif t < T and not hyps:
            # constraints exhausted the beam: treat as a violation and reset
            violated = True

        if violated:
            if comparator is not None:
                viol_tokens = comparator.tokens[r:]
                delta = float(delta_fn(viol_tokens, gold[r:t]))
                records.append(ViolationRecord(
                    t=t, r=r, violating_tokens=viol_tokens,
                    gold_tokens=gold[r:t], gold_score_seg=gold_seg_t,
                    viol_score_seg=comparator.seg_score,
                    gold_last_f=fy, viol_last_f=comparator.last_f,
                    delta=delta, chain=comparator.chain,
                    margin_score=margin_score))
            r = t
            gold_seg = 0.0
            hyps = None
            beam_states = None
        else:
            gold_seg = gold_seg_t

        gold_state = out_g.state

    return ForwardResult(records=records, gold_caches=gold_caches,
                         gold_f=gold_f, gold_tokens=gold, enc=enc,
                         margin_score=margin_score)


# ---------------------------------------------------------------------------
# Backward pass: merged single sweep


def _active_coef(rec, t):
    """Loss-gradient coefficient for f-scores at step t of record rec."""
    if rec.delta == 0.0:
        return 0.0
    if rec.margin_score == "laststep" and t != rec.t:
        return 0.0
    return rec.delta


def bso_backward(model, fwd):
    """Accumulate gradients of margin_loss(fwd.records) into the model.

    Single reverse sweep: the gold stream always advances; the violating
    stream for the record covering step t advances in lockstep and is folded
    into the gold stream at its reset boundary. Search decisions (beam
    membership) are treated as constants; gradients flow only through the
    f-scores of the gold and recorded violating prefixes.
    """
    enc = fwd.enc
    gold = fwd.gold_tokens
    T = len(gold)
    v = model.config.tgt_vocab
    dtype = model.dtype
    d_ann = np.zeros_like(enc.annotations)
    d_gold = model.state_grad_zeros(1)

    recs = sorted(fwd.records, key=lambda r: r.t, reverse=True)
    ri = 0
    cur = None
    cur_nodes = None
    d_viol = None

    for t in range(T, 0, -1):
        if cur is None and ri < len(recs) and recs[ri].t == t:
            cur = recs[ri]
            ri += 1
            cur_nodes = cur.chain.to_list() if cur.chain is not None else []
            d_viol = model.state_grad_zeros(1)

        fold = False
        if cur is not None and cur_nodes:
            node = cur_nodes[t - cur.r - 1]
            coef = _active_coef(cur, t)
            d_f = None
            if coef != 0.0:
                d_f = np.zeros((1, v), dtype=dtype)
                d_f[0, node.word] = coef
            d_viol = model.decode_step_backward(
                node.cache, d_viol, d_f, rows=slice(node.row, node.row + 1),
                d_annotations=d_ann)
            if t - 1 == cur.r:
                fold = True

        # gold stream: the record covering step t injects -delta on the
        # gold token's score
        coef_g = 0.0
        if cur is not None and cur.r < t <= cur.t:
            coef_g = -_active_coef(cur, t)
        d_f_gold = None
        if coef_g != 0.0:
            d_f_gold = np.zeros((1, v), dtype=dtype)
            d_f_gold[0, gold[t - 1]] = coef_g
        d_gold = model.decode_step_backward(
            fwd.gold_caches[t - 1], d_gold, d_f_gold, rows=slice(0, 1),
            d_annotations=d_ann)

        if fold:
            d_gold.add_(d_viol)
            cur = None
            cur_nodes = None
            d_viol = None

    model.encode_backward(enc, d_ann, d_gold)


def bso_frozen_loss(model, src, gold, records, bos_id, masks=None):
    """Recompute the margin loss with search decisions and deltas frozen.

    Reruns the gold path and each recorded violating segment (teacher
    forcing their stored tokens) under the model's current parameters and
    returns sum_i delta_i * (1 - gold_seg_i + viol_seg_i) without
    re-flooring. bso_backward computes the exact gradient of this
    quantity, which makes it the right target for finite differencing.
    """
    enc = model.encode(src, masks=masks)
    gold = tuple(gold)
    state = model.init_state(enc)
    gold_f = []
    states = [state]
    for t in range(1, len(gold) + 1):
        in_w = bos_id if t == 1 else gold[t - 2]
        out, _ = model.decode_step(state, [in_w], enc, step=t - 1, masks=masks)
        f = model.score_f(out)[0].astype(np.float64)
        gold_f.append(float(f[gold[t - 1]]))
        state = out.state
        states.append(state)
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
            out, _ = model.decode_step(vstate, [in_w], enc, step=step, masks=masks)
            fv = float(model.score_f(out)[0, w])
            v_seg += fv
            v_last = fv
            vstate = out.state
        if rec.margin_score == "laststep":
            total += rec.delta * (1.0 - g_last + v_last)
        else:
            total += rec.delta * (1.0 - g_seg + v_seg)
    return total


# ---------------------------------------------------------------------------
# Cross-entropy (pretraining / baseline)


def xent_loss(model, src, tgt, bos_id, src_lengths=None, tgt_lengths=None,
              masks=None, backward=True):
    """Teacher-forced negative log-likelihood over a padded batch.

    Returns (summed loss, token count). Padding positions contribute
    exactly zero to both the loss and the gradients.
    """
    src = np.asarray(src)
    tgt = np.asarray(tgt)
    if src.ndim == 1:
        src = src[None, :]
    if tgt.ndim == 1:
        tgt = tgt[None, :]
    B, T = tgt.shape
    if tgt_lengths is None:
        tgt_lengths = np.full(B, T, dtype=np.int64)
    tgt_lengths = np.asarray(tgt_lengths)
    enc = model.encode(src, src_lengths, masks)
    state = model.init_state(enc)
    rows = np.arange(B)
    loss = 0.0
    tokens = int(tgt_lengths.sum())
    steps = []
    for t in range(T):
        in_w = tgt[:, t - 1] if t > 0 else np.full(B, bos_id, dtype=tgt.dtype)
        out, cache = model.decode_step(state, in_w, enc, step=t, masks=masks)
        logp = nn.log_softmax(model.score_f(out).astype(np.float64))
        live = (t < tgt_lengths)
        loss += float(-(logp[rows, tgt[:, t]] * live).sum())
        if backward:
            d_f = np.exp(logp)
            d_f[rows, tgt[:, t]] -= 1.0
            d_f *= live[:, None]
            steps.append((cache, d_f.astype(model.dtype)))
        state = out.state
    if backward:
        d_state = model.state_grad_zeros(B)
        d_ann = np.zeros_like(enc.annotations)
        for cache, d_f in reversed(steps):
            d_state = model.decode_step_backward(cache, d_state, d_f,
                                                 d_annotations=d_ann)
        model.encode_backward(enc, d_ann, d_state)
    return loss, tokens


# ---------------------------------------------------------------------------
# Schedules, configs, epoch drivers


@dataclass
class CurriculumSchedule:
    target: int
    start: int = 2
    increment: int = 1
    epochs_per_increment: int = 2


def curriculum_beam(epoch, sched):
    """Training beam size for a 1-indexed epoch."""
    if epoch < 1:
        raise ValueError("epochs are 1-indexed")
    size = sched.start + ((epoch - 1) // sched.epochs_per_increment) * sched.increment
    return min(size, sched.target)


@dataclass
class TrainConfig:
    k_tr: int = 6
    lr_main: float = 0.02
    lr_out: float = 0.1
    clip_norm: float = 5.0
    dropout: float = 0.0
    batch_size: int = 16
    margin_score: str = "cumulative"
    delta: str = "zero_one"
    curriculum_start: int = 2
    curriculum_epochs_per_increment: int = 2

    def schedule(self):
        return CurriculumSchedule(target=self.k_tr, start=self.curriculum_start,
                                  epochs_per_increment=self.curriculum_epochs_per_increment)


def optimizer_step(model, config):
    norm = nn.clip_global_norm(model.slots(), config.clip_norm)
    if not np.isfinite(norm):
        raise FloatingPointError(f"non-finite gradient norm {norm} before clipping")
    for slot in model.slots():
        lr = config.lr_out if model.lr_group(slot.name) == "output" else config.lr_main
        nn.adagrad_step(slot, lr)


def make_batches(pairs, batch_size, rng, pad_id=0):
    """Group (src, tgt) id-sequence pairs into padded batches.

    Pairs are bucketed by length so most batches need no padding; batch
    order is shuffled.
    """
    order = sorted(range(len(pairs)), key=lambda i: (len(pairs[i][0]), len(pairs[i][1]), i))
    batches = []
    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        srcs = [pairs[i][0] for i in idx]
        tgts = [pairs[i][1] for i in idx]
        s_max = max(len(s) for s in srcs)
        t_max = max(len(t) for t in tgts)
        src = np.full((len(idx), s_max), pad_id, dtype=np.int64)
        tgt = np.full((len(idx), t_max), pad_id, dtype=np.int64)
        s_len = np.array([len(s) for s in srcs])
        t_len = np.array([len(t) for t in tgts])
        for b, (s, t) in enumerate(zip(srcs, tgts)):
            src[b, :len(s)] = s
            tgt[b, :len(t)] = t
        batches.append((src, s_len, tgt, t_len))
    rng.shuffle(batches)
    return batches


@dataclass
class EpochStats:
    loss: float = 0.0
    tokens: int = 0
    violations: int = 0
    margin_steps: int = 0
    seconds: float = 0.0
    beam: int = 0

    @property
    def tokens_per_sec(self):
        return self.tokens / self.seconds if self.seconds > 0 else 0.0

    @property
    def violation_rate(self):
        return self.violations / self.margin_steps if self.margin_steps else 0.0


def _masks_for(model, steps, rng, config):
    if config.dropout <= 0.0 or model.config.layers < 2:
        return None
    return MaskSet.build(config.dropout, model.config.layers, steps, rng,
                         model.config.d_h, dtype=model.dtype)


def train_xent_epoch(model, pairs, config, rng, bos_id, pad_id=0):
    """One epoch of cross-entropy training; returns EpochStats."""
    stats = EpochStats()
    t0 = time.perf_counter()
    for src, s_len, tgt, t_len in make_batches(pairs, config.batch_size, rng, pad_id):
        masks = _masks_for(model, max(src.shape[1], tgt.shape[1]), rng, config)
        model.zero_grads()
        loss, tokens = xent_loss(model, src, tgt, bos_id, s_len, t_len, masks=masks)
        optimizer_step(model, config)
        stats.loss += loss
        stats.tokens += tokens + int(s_len.sum())
    stats.seconds = time.perf_counter() - t0
    return stats


def eval_perplexity(model, pairs, config, bos_id, pad_id=0):
    rng = np.random.default_rng(0)
    total, tokens = 0.0, 0
    for src, s_len, tgt, t_len in make_batches(pairs, config.batch_size, rng, pad_id):
        loss, n = xent_loss(model, src, tgt, bos_id, s_len, t_len, backward=False)
        total += loss
        tokens += n
    return float(np.exp(total / max(tokens, 1)))


def train_bso_epoch(model, examples, config, epoch, rng, bos_id, delta_fn=None):
    """One BSO epoch with curriculum beam and delayed per-batch updates.

    examples: list of (src_ids, gold_ids, initial constraint state).
    Returns EpochStats.
    """
    delta_fn = delta_fn or DELTA_FNS[config.delta]
    beam = curriculum_beam(epoch, config.schedule())
    stats = EpochStats(beam=beam)
    t0 = time.perf_counter()
    order = rng.permutation(len(examples))
    for start in range(0, len(order), config.batch_size):
        model.zero_grads()
        batch_loss = 0.0
        for i in order[start:start + config.batch_size]:
            src, gold, constraint = examples[i]
            masks = _masks_for(model, max(len(src), len(gold)), rng, config)
            enc = model.encode(np.asarray(src)[None, :], masks=masks)
            fwd = bso_forward(model, enc, gold, beam, constraint,
                              delta_fn, bos_id, masks=masks,
                              margin_score=config.margin_score)
            batch_loss += margin_loss(fwd.records)
            bso_backward(model, fwd)
            stats.violations += sum(1 for r in fwd.records if r.delta > 0)
            stats.margin_steps += len(gold)
            stats.tokens += len(src) + len(gold)
        optimizer_step(model, config)
        stats.loss += batch_loss
    stats.seconds = time.perf_counter() - t0
    return stats
