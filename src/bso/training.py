"""Training regimes: cross-entropy pretraining and beam-search optimization.

BSO training runs beam search alongside the gold sequence. Whenever the
gold prefix fails to outscore the last-ranked beam entry by a margin of 1,
the violating segment is recorded and search resumes from the gold history
(a LaSO reset). At the final step the comparator is instead the
highest-ranked hypothesis that differs from the gold sequence. All
violations of one minibatch are accumulated and parameters updated once per
batch (delayed update).

A minibatch runs in lockstep, one time step at a time for all of its
sentences:

* one batched ``encode`` of the sources;
* a cache-free search pass through the step test-time decoding takes,
  :func:`bso.beam.search_step`: one ``decode_step`` over the live
  sentences' gold rows followed by their beam rows, then one ``beam_step``
  that advances the array beam holding every sentence's hypotheses (a
  sentence reset at the previous step is a beam of one, its gold prefix,
  scored by its gold row). Only the recurrent state survives a step; no
  decoder cache is kept. The constraints of a batch are all of one class,
  row-batched with the beam;
* a teacher-forced backward pass: the rows that receive gradient (each
  sentence's gold row and the violating segment in scope, at most one per
  sentence) are recomputed with one ``decode_step`` per step, then
  backpropagated with one ``decode_step_backward`` per step in reverse.

The violating segment of a record that resets at r starts from the gold
state after r steps and consumes the same word as the gold step r+1, so
both share that step's row: the violating stream folds into the gold stream
there. The sweep reproduces exactly what independent per-violation BPTT
would compute, in O(T) instead of O(T^2).

Cross-entropy pretraining (:func:`xent_loss`) is teacher-forced over a
padded batch. Each step backpropagates its log-softmax loss through the
output layer as soon as it has scored, and keeps for the reverse sweep only
its decoder cache and the [B, H] gradient w.r.t. its attention hidden
state: nothing of vocabulary size is held across steps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import nn
from .beam import Beam, join_constraints, search_step, validate_gold
from .metrics import sentence_bleu_smoothed
from .model import MaskSet
from .tasks import pad_ids


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
    margin_score: str = "cumulative"
    sentence: int = 0             # index of the sentence in its batch

    def margin_terms(self):
        if self.margin_score == "laststep":
            return self.gold_last_f, self.viol_last_f
        return self.gold_score_seg, self.viol_score_seg


@dataclass
class ForwardResult:
    records: list                 # ViolationRecords of every sentence, by (sentence, t)
    gold_f: list                  # per sentence: f(y_t, h_{t-1}) per step
    gold_tokens: list             # per sentence: y_{1:T}
    enc: object
    bos_id: int
    masks: object = None


def margin_loss(records):
    """Sum of delta * (1 - gold + viol), each record floored at zero."""
    total = 0.0
    for rec in records:
        g, v = rec.margin_terms()
        total += max(0.0, rec.delta * (1.0 - g + v))
    return total


# ---------------------------------------------------------------------------
# Forward pass: find violations


def bso_forward(model, enc, golds, k_tr, constraints, delta_fn, bos_id,
                masks=None, margin_score="cumulative"):
    """Run beam search alongside the gold paths of a batch and collect
    margin violations.

    enc: the encoded sources, sentence b at row b. golds: one token id
    sequence y_{1:T} per sentence (EOS included for open-ended tasks).
    constraints: one initial constraint state per sentence, shared by its
    gold and its hypotheses, all of one class (ValueError otherwise); each
    gold sequence is validated against it up front. Returns one
    ForwardResult for :func:`bso_backward`; it holds no decoder caches.
    """
    golds = [tuple(int(w) for w in g) for g in golds]
    if len(golds) != len(constraints):
        raise ValueError("need one constraint per gold sequence")
    if not all(golds):
        raise ValueError("empty gold sequence")
    # gold_states[j]: constraint state after y_{1:j} of each sentence longer than j
    gold_states = validate_gold(join_constraints(constraints), golds)
    gold, lengths = pad_ids(golds)
    gold_f = np.zeros(gold.shape)
    reset = np.zeros(len(golds), dtype=np.int64)       # r: the last reset step
    gold_seg = np.zeros(len(golds))
    seeded = np.ones(len(golds), dtype=bool)           # reset at the previous step
    records = []
    state = model.init_state(enc)
    gold_rows = np.arange(len(golds))   # state row of each live gold prefix
    # hypotheses that go on, and their state rows
    kept, kept_rows = Beam.seed(np.zeros((0, 0)), [], gold_states[0].select([])), gold_rows[:0]
    for t in range(1, gold.shape[1] + 1):
        live = np.flatnonzero(lengths >= t)
        # decoder rows: the live sentences' gold rows, then the beam rows.
        # The search keeps nothing of a step but its recurrent state: not
        # the decoder cache, and not the scores once the beams have moved
        state = state.select(np.concatenate([gold_rows, kept_rows]))
        words = np.concatenate([np.full(len(live), bos_id) if t == 1 else gold[live, t - 2],
                                kept.tokens[:, -1:].ravel()])
        # a sentence (re)seeded from its gold prefix y_{1:r} is a beam of one
        # whose step is the gold step, which consumed the same state and word
        new = np.flatnonzero(seeded[live])
        parents = kept if not new.size else Beam.join([kept, Beam.seed(
            gold[live[new], :t - 1], live[new], gold_states[t - 1].select(new))])
        parent_at = np.concatenate([np.arange(len(live), len(words)), new])
        state, f, succ, succ_parent = search_step(
            model, state, words, np.concatenate([live, kept.sent]), enc, t - 1, parents, k_tr,
            parent_at, masks)
        fy = f[np.arange(len(live)), gold[live, t - 1]].astype(np.float64)
        gold_f[live, t - 1] = fy

        # comparator: the K-th successor, or at the final step the best one
        # that is not the gold sequence
        succ_live = np.searchsorted(live, succ.sent)
        count = np.bincount(succ_live, minlength=len(live))
        first = np.cumsum(count) - count
        comp = first + count - 1
        final = lengths[live] == t
        if final.any():
            differs = np.flatnonzero((succ.tokens != gold[succ.sent, :t]).any(axis=1))
            best = np.append(differs, len(succ))[np.searchsorted(differs, first)]
            comp = np.where(final, best, comp)
        has_comp = (comp >= first) & (comp < first + count)
        gold_seg_t = gold_seg[live] + fy
        # constraints exhausting the beam before the end count as a violation
        violated = ~final
        if len(succ):
            c = np.minimum(comp, len(succ) - 1)
            if margin_score == "laststep":
                beaten = fy < succ.last_f[c] + 1.0
            else:
                beaten = gold_seg_t < succ.seg_score[c] + 1.0
            violated = np.where(has_comp, beaten, violated)
        for i in np.flatnonzero(violated & has_comp):
            b, c, r = int(live[i]), int(comp[i]), int(reset[live[i]])
            viol_tokens = tuple(succ.tokens[c, r:].tolist())
            records.append(ViolationRecord(
                t=t, r=r, violating_tokens=viol_tokens, gold_tokens=golds[b][r:t],
                gold_score_seg=float(gold_seg_t[i]),
                viol_score_seg=float(succ.seg_score[c]),
                gold_last_f=float(fy[i]), viol_last_f=float(succ.last_f[c]),
                delta=float(delta_fn(viol_tokens, golds[b][r:t])),
                margin_score=margin_score, sentence=b))
        reset[live[violated]] = t
        gold_seg[live] = np.where(violated, 0.0, gold_seg_t)
        seeded[live] = violated
        go_on = np.flatnonzero((~violated & ~final)[succ_live])
        kept, kept_rows = succ.select(go_on), parent_at[succ_parent[go_on]]
        gold_rows = np.flatnonzero(~final)
        del f
    records.sort(key=lambda rec: (rec.sentence, rec.t))
    return ForwardResult(records=records,
                         gold_f=[gold_f[b, :n].tolist() for b, n in enumerate(lengths)],
                         gold_tokens=golds, enc=enc, bos_id=bos_id, masks=masks)


# ---------------------------------------------------------------------------
# Backward pass: teacher-forced recompute, merged single sweep


def _active_coef(rec, t):
    """Loss-gradient coefficient for f-scores at step t of record rec."""
    if rec.delta == 0.0:
        return 0.0
    if rec.margin_score == "laststep" and t != rec.t:
        return 0.0
    return rec.delta


def bso_backward(model, fwd):
    """Accumulate gradients of margin_loss(fwd.records) into the model.

    Recomputes, teacher-forced, the decoder rows that receive gradient:
    per sentence the gold row up to its last violation and the violating
    row of the record in scope, which starts from the gold row of the step
    after the record's reset. Then one reverse sweep backpropagates all of
    them together; a violating stream folds into its gold stream where
    both share a row. Search decisions (beam membership) are treated as
    constants; gradients flow only through the f-scores of the gold and
    recorded violating prefixes.
    """
    recs = [rec for rec in fwd.records if rec.delta != 0.0]
    if not recs:
        return
    covering = {}                 # (sentence, t) -> record with r < t <= rec.t
    last = {}                     # sentence -> last step that needs its gold row
    for rec in recs:
        for t in range(rec.r + 1, rec.t + 1):
            covering[rec.sentence, t] = rec
        last[rec.sentence] = max(last.get(rec.sentence, 0), rec.t)
    order = sorted(last)
    enc = fwd.enc

    state = model.init_state(enc)
    gold_rows = {b: b for b in order}         # state row of each gold prefix
    viol_rows = {}                            # state row of each violating prefix
    steps = []
    for t in range(1, max(last.values()) + 1):
        rows, words, coefs = [], [], []
        new_gold, new_viol = {}, {}
        for b in order:
            if t > last[b]:
                continue
            gold = fwd.gold_tokens[b]
            new_gold[b] = len(rows)
            rows.append(gold_rows[b])
            words.append(fwd.bos_id if t == 1 else gold[t - 2])
            rec = covering.get((b, t))
            if rec is None:
                continue
            viol = rec.violating_tokens
            if t == rec.r + 1:
                # the violating segment's first step is the gold step
                viol_row = new_gold[b]
            else:
                viol_row = new_viol[b] = len(rows)
                rows.append(viol_rows[b] if t > rec.r + 2 else gold_rows[b])
                words.append(viol[t - rec.r - 2])
            c = _active_coef(rec, t)
            if c:
                coefs += [(new_gold[b], gold[t - 1], -c), (viol_row, viol[t - rec.r - 1], c)]
        out, cache = model.decode_step(state.select(rows), np.array(words), enc,
                                       step=t - 1, masks=fwd.masks)
        steps.append((cache, rows, state.batch, coefs))
        state = out.state
        gold_rows, viol_rows = new_gold, new_viol

    v = model.config.tgt_vocab
    d_ann = np.zeros_like(enc.annotations)
    d_state = model.state_grad_zeros(len(steps[-1][1]))
    while steps:
        # popped, so each step's cache is freed once it has been used
        cache, rows, n_in, coefs = steps.pop()
        d_hidden = None
        if coefs:
            d_f = np.zeros((len(rows), v), dtype=model.dtype)
            for row, w, c in coefs:
                d_f[row, w] += c
            d_hidden = model.score_f_backward(cache["attn_hidden"], d_f)
        d_in = model.decode_step_backward(cache, d_state, d_hidden, d_annotations=d_ann)
        d_state = d_in.scatter(rows, n_in)
    model.encode_backward(enc, d_ann, d_state)


# ---------------------------------------------------------------------------
# Cross-entropy (pretraining / baseline)


def xent_loss(model, src, tgt, bos_id, src_lengths=None, tgt_lengths=None,
              masks=None, backward=True):
    """Teacher-forced negative log-likelihood over a padded batch.

    Returns (summed loss, token count). Padding positions contribute
    exactly zero to both the loss and the gradients.

    With ``backward``, each step backpropagates its loss through the output
    layer as soon as it has scored (``score_f_backward``), with the score
    gradient formed in the buffer of its log-probabilities. A step keeps
    its decoder cache and the [B, H] gradient w.r.t. its attention hidden
    state, so nothing of vocabulary size outlives the step; the reverse
    sweep frees each step's cache once ``decode_step_backward`` has used it.
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
            d_f = np.exp(logp, out=logp)
            d_f[rows, tgt[:, t]] -= 1.0
            d_f *= live[:, None]
            steps.append((cache, model.score_f_backward(out.attn_hidden,
                                                        d_f.astype(model.dtype))))
        state = out.state
    if backward:
        d_state = model.state_grad_zeros(B)
        d_ann = np.zeros_like(enc.annotations)
        while steps:
            # popped, so each step's cache is freed once it has been used
            cache, d_hidden = steps.pop()
            d_state = model.decode_step_backward(cache, d_state, d_hidden,
                                                 d_annotations=d_ann)
        model.encode_backward(enc, d_ann, d_state)
    return loss, tokens


# ---------------------------------------------------------------------------
# Schedules, configs, epoch drivers


@dataclass
class CurriculumSchedule:
    target: int
    start: int = 2
    epochs_per_increment: int = 2


def curriculum_beam(epoch, sched):
    """Training beam size for a 1-indexed epoch."""
    if epoch < 1:
        raise ValueError("epochs are 1-indexed")
    return min(sched.start + (epoch - 1) // sched.epochs_per_increment, sched.target)


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
        src, s_len = pad_ids([pairs[i][0] for i in idx], pad_id)
        tgt, t_len = pad_ids([pairs[i][1] for i in idx], pad_id)
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

    examples: list of (src_ids, gold_ids, initial constraint state). Each
    minibatch is encoded, searched and backpropagated in lockstep.
    Returns EpochStats.
    """
    delta_fn = delta_fn or DELTA_FNS[config.delta]
    beam = curriculum_beam(epoch, config.schedule())
    stats = EpochStats(beam=beam)
    t0 = time.perf_counter()
    order = rng.permutation(len(examples))
    for start in range(0, len(order), config.batch_size):
        batch = [examples[i] for i in order[start:start + config.batch_size]]
        src, lengths = pad_ids([src for src, _, _ in batch])
        golds = [gold for _, gold, _ in batch]
        gold_len = sum(len(g) for g in golds)
        masks = _masks_for(model, max(src.shape[1], max(len(g) for g in golds)),
                           rng, config)
        model.zero_grads()
        enc = model.encode(src, lengths, masks=masks)
        fwd = bso_forward(model, enc, golds, beam, [c for _, _, c in batch],
                          delta_fn, bos_id, masks=masks,
                          margin_score=config.margin_score)
        stats.loss += margin_loss(fwd.records)
        bso_backward(model, fwd)
        optimizer_step(model, config)
        stats.violations += sum(1 for r in fwd.records if r.delta > 0)
        stats.margin_steps += gold_len
        stats.tokens += int(lengths.sum()) + gold_len
    stats.seconds = time.perf_counter() - t0
    return stats
