"""Training regimes: cross-entropy pretraining and beam-search optimization.

BSO training runs beam search alongside the gold sequence. Whenever the
gold prefix fails to outscore the last-ranked beam entry by a margin of 1,
the violating segment is recorded and search resumes from the gold history
(a LaSO reset). At the final step the comparator is instead the
highest-ranked hypothesis that differs from the gold sequence. All
violations of one minibatch are accumulated and parameters updated once per
batch (delayed update).

A violation record keeps the pair of scores its margin test compared: the
f-scores of the gold and the violating segment summed since the reset
(``margin_score="cumulative"``), or those of the violation step alone
(``"laststep"``). Its loss is Δ·(1 − gold_score + viol_score), floored at
zero. Δ is 0 whenever the comparator is the gold segment, whatever the cost
function. ``ForwardResult.margin_score`` tells the backward which steps'
f-scores a record's scores are made of.

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
  sentence) are recomputed with one ``decode_step`` per step, and each
  recomputed step's score gradient is taken through the output layer
  (``score_f_backward``) as the step is recomputed. Then one reverse sweep
  backpropagates them with one ``decode_step_backward`` per step.

The violating segment of a record that resets at r starts from the gold
state after r steps and consumes the same word as the gold step r+1, so
both share that step's row: the violating stream folds into the gold stream
there. The sweep reproduces exactly what independent per-violation BPTT
would compute, in O(T) instead of O(T^2).

Cross-entropy pretraining (:func:`xent_loss`) is teacher-forced over a
padded batch. Like ``bso_forward``, it takes the batch its caller encoded.
Each step backpropagates its log-softmax loss through the output layer as
soon as it has scored, and keeps for the reverse sweep only its decoder
cache and the [B, H] gradient w.r.t. its attention hidden state: nothing
of vocabulary size is held across steps. Both losses end in the same
reverse sweep, which sums the output layer's gradient first step to last.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import nn
from .beam import Beam, SentenceError, join_constraints, search_step, validate_gold
from .metrics import sentence_bleu_smoothed
from .model import MaskSet
from .tasks import pad_ids


# ---------------------------------------------------------------------------
# Mistake-specific costs. A cost function sees only true mistakes: bso_forward
# charges nothing for a comparator that is the gold segment, whatever the function.


def delta_01(viol_tokens, gold_tokens):
    """0/1 cost: 1 for any mistake."""
    return 1.0


def delta_sentence_bleu(viol_tokens, gold_tokens):
    """1 - smoothed sentence BLEU of the violating segment vs the gold one."""
    return 1.0 - sentence_bleu_smoothed(list(viol_tokens), list(gold_tokens))


DELTA_FNS = {"zero_one": delta_01, "sentence_bleu": delta_sentence_bleu}
# The scores a margin compares: f summed over the segments since the last
# reset, or f of the violation step alone
MARGIN_SCORES = ("cumulative", "laststep")


# ---------------------------------------------------------------------------
# Violation records


@dataclass
class ViolationRecord:
    t: int                        # violation step (1-based)
    r: int                        # previous reset point
    violating_tokens: tuple       # \hat{y}_{r+1:t}
    gold_score: float             # margin score of the gold segment y_{r+1:t}
    viol_score: float             # margin score of the violating segment
    delta: float
    sentence: int                 # index of the sentence in its batch


@dataclass
class ForwardResult:
    records: list                 # ViolationRecords of every sentence, by (sentence, t)
    gold_tokens: list             # per sentence: y_{1:T}
    enc: object
    bos_id: int
    margin_score: str             # one of MARGIN_SCORES: what the records' scores are


def margin_loss(records):
    """Sum of delta * (1 - gold_score + viol_score), each record floored at zero."""
    total = 0.0
    for rec in records:
        total += max(0.0, rec.delta * (1.0 - rec.gold_score + rec.viol_score))
    return total


# ---------------------------------------------------------------------------
# Forward pass: find violations


def bso_forward(model, enc, golds, k_tr, constraints, delta_fn, bos_id, margin_score="cumulative"):
    """Run beam search alongside the gold paths of a batch and collect
    margin violations.

    enc: the encoded sources, sentence b at row b. golds: one token id
    sequence y_{1:T} per sentence (EOS included for open-ended tasks).
    constraints: one initial constraint state per sentence, shared by its
    gold and its hypotheses, all of one class (ValueError otherwise); each
    gold sequence is validated against it up front. margin_score, one of
    MARGIN_SCORES, picks the pair of scores the margin compares; each
    record keeps the pair it was judged by. Returns one ForwardResult for
    :func:`bso_backward`; it holds no decoder caches.
    """
    if margin_score not in MARGIN_SCORES:
        raise ValueError(f"unknown margin_score {margin_score!r}; expected one of {MARGIN_SCORES}")
    golds = [tuple(int(w) for w in g) for g in golds]
    if len(golds) != len(constraints):
        raise ValueError("need one constraint per gold sequence")
    if not all(golds):
        raise ValueError("empty gold sequence")
    # gold_states[j]: constraint state after y_{1:j} of each sentence longer than j
    gold_states = validate_gold(join_constraints(constraints), golds)
    gold, lengths = pad_ids(golds)
    reset = np.zeros(len(golds), dtype=np.int64)       # r: the last reset step
    gold_seg = np.zeros(len(golds))
    records = []
    state = enc.init_state
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
        # a sentence that starts or was reset at the previous step is reseeded
        # from its gold prefix y_{1:r}: a beam of one whose step is the gold
        # step, which consumed the same state and word
        new = np.flatnonzero(reset[live] == t - 1)
        parents = kept if not new.size else Beam.join([kept, Beam.seed(
            gold[live[new], :t - 1], live[new], gold_states[t - 1].select(new))])
        parent_at = np.concatenate([np.arange(len(live), len(words)), new])
        state, f, succ, succ_parent = search_step(model, state, words, enc, parents, k_tr,
                                                  parent_at)
        fy = f[np.arange(len(live)), gold[live, t - 1]].astype(np.float64)

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
        # the last-step margin takes each successor's last f as beam_step ranked it
        gold_m, succ_m = (gold_seg_t, succ.seg_score) if margin_score == "cumulative" else \
            (fy, f[parent_at[succ_parent], succ.tokens[:, -1]].astype(np.float64))
        # constraints exhausting the beam before the end count as a violation
        violated = ~final
        if len(succ):
            beaten = gold_m < succ_m[np.minimum(comp, len(succ) - 1)] + 1.0
            violated = np.where(has_comp, beaten, violated)
        for i in np.flatnonzero(violated & has_comp):
            b, c, r = int(live[i]), int(comp[i]), int(reset[live[i]])
            viol_tokens, gold_tokens = tuple(succ.tokens[c, r:].tolist()), golds[b][r:t]
            # a comparator that is the gold segment is no mistake
            delta = 0.0 if viol_tokens == gold_tokens else float(delta_fn(viol_tokens, gold_tokens))
            records.append(ViolationRecord(t, r, viol_tokens, float(gold_m[i]),
                                           float(succ_m[c]), delta, sentence=b))
        reset[live[violated]] = t
        gold_seg[live] = np.where(violated, 0.0, gold_seg_t)
        go_on = np.flatnonzero((~violated & ~final)[succ_live])
        kept, kept_rows = succ.select(go_on), parent_at[succ_parent[go_on]]
        gold_rows = np.flatnonzero(~final)
        del f
    records.sort(key=lambda rec: (rec.sentence, rec.t))
    return ForwardResult(records=records, gold_tokens=golds, enc=enc, bos_id=bos_id,
                         margin_score=margin_score)


# ---------------------------------------------------------------------------
# Backward pass: teacher-forced recompute, merged single sweep


def bso_backward(model, fwd):
    """Accumulate gradients of margin_loss(fwd.records) into the model.

    Recomputes, teacher-forced, the decoder rows that receive gradient:
    per sentence the gold row up to its last record with delta != 0, and
    the violating row of the record in scope, which starts from the gold
    row of the step after the record's reset. Each sentence walks its
    records with delta != 0 in step order: at step t it drops those that
    ended before t, and the first one left is in scope from the step after
    its reset. The recompute takes each step's score gradient as it
    recomputes the step. Then the reverse sweep :func:`xent_loss` ends in
    too backpropagates all of them together; a violating stream folds into
    its gold stream where both share a row. Search decisions (beam
    membership) are treated as constants; gradients flow only through the
    f-scores of the gold and recorded violating prefixes: every step of a
    segment under the cumulative margin, its last step under the last-step
    margin.
    """
    stacks = {}                   # sentence -> its records with delta != 0, last first
    for rec in reversed(fwd.records):
        if rec.delta != 0.0:
            stacks.setdefault(rec.sentence, []).append(rec)
    if not stacks:
        return
    _reverse_sweep(model, fwd.enc, _recompute(model, fwd, stacks))


def _recompute(model, fwd, stacks):
    """The teacher-forced steps of :func:`bso_backward`, as the entries
    :func:`_reverse_sweep` takes. Each step gathers its rows of the
    previous recomputed state, and its entry keeps that state, not the
    gathered copy. Nothing of the last step but its entry outlives the
    call: not its score gradient and not its output state."""
    every_step = fwd.margin_score == "cumulative"
    enc = fwd.enc
    state = enc.init_state
    # state rows of each sentence's gold prefix and violating prefix
    pairs = {b: (b, None) for b in sorted(stacks)}
    steps = []
    for t in range(1, max(stack[0].t for stack in stacks.values()) + 1):
        rows, words, coefs, new_pairs = [], [], [], {}
        for b, (gold_row, viol_row) in pairs.items():
            stack = stacks[b]
            while stack and stack[-1].t < t:
                stack.pop()
            if not stack:
                continue
            # the record in scope, or the next one if t is before its reset
            rec, gold = stack[-1], fwd.gold_tokens[b]
            viol, i = rec.violating_tokens, t - rec.r - 1
            g = v = len(rows)
            rows.append(gold_row)
            words.append(fwd.bos_id if t == 1 else gold[t - 2])
            # the violating segment's first step (i == 0) is the gold step
            if i > 0:
                v = len(rows)
                rows.append(viol_row)
                words.append(viol[i - 1])
            new_pairs[b] = g, v
            if i >= 0 and (every_step or t == rec.t):
                coefs += [(g, gold[t - 1], -rec.delta), (v, viol[i], rec.delta)]
        new_state, cache = model.decode_step(state.select(rows), np.array(words), enc)
        d_feed = None
        if coefs:
            d_f = np.zeros((len(rows), model.config.tgt_vocab), dtype=model.dtype)
            for row, w, c in coefs:
                d_f[row, w] += c
            d_feed = model.score_f_backward(new_state.input_feed, d_f)
        steps.append((cache, d_feed, state, rows))
        state, pairs = new_state, new_pairs
    return steps


def _reverse_sweep(model, enc, steps):
    """Backpropagate teacher-forced decoder steps, last first, then the
    encoder. ``steps`` holds one (cache, d_feed, state, rows) per step:
    ``d_feed`` is the gradient its scores give its attention hidden state,
    or None; ``state`` the previous step's output state, or the encoding's
    start state, and ``rows`` the rows of it the step started from, or None
    for all of them in order. A cache holds nothing of the state it started
    from: the sweep hands ``decode_step_backward`` that state, gathered
    again for the step alone, and scatters its gradient back to
    ``state``'s rows. The last step has a score gradient. The steps' word
    gradients go into the target embedding's gradient in one scatter after
    the decoder steps, last step first and rows in order, so that [V, E]
    buffer is made once every decoder cache is freed."""
    d_ann = np.zeros_like(enc.annotations)
    d_state = model.state_grad_zeros(len(steps[-1][1]))
    words, d_words = [], []
    while steps:
        # popped, so each step's cache is freed once it has been used
        cache, d_feed, state, rows = steps.pop()
        if d_feed is not None:
            d_state.input_feed += d_feed
        words.append(cache["words"])
        d_state, d_w = model.decode_step_backward(
            cache, d_state, d_ann, state if rows is None else state.select(rows))
        d_words.append(d_w)
        if rows is not None:
            d_state = d_state.scatter(rows, state.batch)
    # one scatter, in the order of one per step from the last step back; the
    # word gradients go before the encoder's backward
    np.add.at(model.params["tgt_embed"].grad, np.concatenate(words), np.concatenate(d_words))
    del d_words
    model.encode_backward(enc, d_ann, d_state)


# ---------------------------------------------------------------------------
# Cross-entropy (pretraining / baseline)


def xent_loss(model, enc, tgt, tgt_lengths, bos_id, backward=True):
    """Teacher-forced negative log-likelihood of a padded [B, T] target
    batch, summed over its tokens; ``enc`` holds the batch's encoded
    sources, sentence b at row b. Padding positions, at or past a row's
    ``tgt_lengths``, contribute exactly zero to the loss and the gradients.

    With ``backward``, each step backpropagates its loss through the output
    layer as soon as it has scored (``score_f_backward``). Its float64
    scores, log-probabilities and score gradient share one [B, V] buffer,
    which the step frees, so nothing of vocabulary size outlives it. A step
    keeps for the reverse sweep its decoder cache and the [B, H] gradient
    w.r.t. its attention hidden state: per row and layer the cell state and
    output (H each), plus the attention weights (S), the attention hidden
    state and that gradient (H each). A cache keeps nothing of the state
    its step started from: the sweep hands each step's backward the
    previous step's output state, which that step's cache holds anyway (the
    start state for the first). The backward rebuilds the layer inputs, the
    gates (4H per layer), tanh(c) and the attention context, and the
    reverse sweep frees each step's cache once ``decode_step_backward`` has
    used it. The sweep makes each gradient buffer at its first write: an
    LSTM layer's once the first step has rebuilt and freed that layer's
    gates, and the [V, E] target embedding's after the last decoder step.
    """
    B, T = tgt.shape
    state = enc.init_state
    loss = 0.0
    steps = []
    for t in range(T):
        in_w = tgt[:, t - 1] if t > 0 else np.full(B, bos_id, dtype=tgt.dtype)
        prev = state
        state, cache = model.decode_step(prev, in_w, enc)
        step_loss, d_hidden = _xent_step(model, state, tgt[:, t], t < tgt_lengths, backward)
        loss += step_loss
        if backward:
            steps.append((cache, d_hidden, prev, None))
    if backward:
        # the sweep frees each step once it has used it
        del prev, state, cache
        _reverse_sweep(model, enc, steps)
    return loss


def _xent_step(model, state, gold, live, backward):
    """One step's summed negative log-likelihood of ``gold`` over the
    ``live`` rows and, with ``backward``, the [B, H] gradient w.r.t. the
    step's attention hidden state (else None). The log-probabilities, and
    then the score gradient, are formed in the buffer of the step's float64
    scores; no [B, V] array outlives the call."""
    logp = model.score_f(state).astype(np.float64)
    nn.log_softmax(logp, out=logp)
    rows = np.arange(len(gold))
    loss = float(-(logp[rows, gold] * live).sum())
    if not backward:
        return loss, None
    d_f = np.exp(logp, out=logp)
    d_f[rows, gold] -= 1.0
    d_f *= live[:, None]
    return loss, model.score_f_backward(state.input_feed, d_f.astype(model.dtype))


# ---------------------------------------------------------------------------
# Schedules, configs, epoch drivers


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


def curriculum_beam(epoch, config):
    """Training beam size for a 1-indexed epoch: ``curriculum_start``,
    widened by one every ``curriculum_epochs_per_increment`` epochs up to
    ``k_tr``."""
    if epoch < 1:
        raise ValueError("epochs are 1-indexed")
    return min(config.curriculum_start + (epoch - 1) // config.curriculum_epochs_per_increment,
               config.k_tr)


def optimizer_step(model, config):
    norm = nn.clip_global_norm(model.slots(), config.clip_norm)
    if not np.isfinite(norm):
        raise FloatingPointError(f"non-finite gradient norm {norm} before clipping")
    for slot in model.slots():
        lr = config.lr_out if model.lr_group(slot.name) == "output" else config.lr_main
        nn.adagrad_step(slot, lr)


def make_batches(pairs, batch_size, rng):
    """Group (src, tgt) id-sequence pairs into padded batches.

    Pairs are bucketed by length so most batches need no padding; batch
    order is shuffled.
    """
    order = sorted(range(len(pairs)), key=lambda i: (len(pairs[i][0]), len(pairs[i][1]), i))
    batches = []
    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        src, s_len = pad_ids([pairs[i][0] for i in idx])
        tgt, t_len = pad_ids([pairs[i][1] for i in idx])
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
    def violation_rate(self):
        return self.violations / self.margin_steps if self.margin_steps else 0.0


def _masks_for(model, src_steps, tgt_steps, rng, config):
    if config.dropout <= 0.0 or model.config.layers < 2:
        return None
    return MaskSet.build(config.dropout, model.config.layers, src_steps, tgt_steps, rng,
                         model.config.d_h, dtype=model.dtype)


def train_xent_epoch(model, pairs, config, rng, bos_id):
    """One epoch of cross-entropy training; returns EpochStats."""
    stats = EpochStats()
    t0 = time.perf_counter()
    for src, s_len, tgt, t_len in make_batches(pairs, config.batch_size, rng):
        masks = _masks_for(model, src.shape[1], tgt.shape[1], rng, config)
        model.zero_grads()
        enc = model.encode(src, s_len, masks)
        stats.loss += xent_loss(model, enc, tgt, t_len, bos_id)
        # the encoder's step caches go before the update
        del enc
        optimizer_step(model, config)
        stats.tokens += int(t_len.sum()) + int(s_len.sum())
    stats.seconds = time.perf_counter() - t0
    return stats


def eval_perplexity(model, pairs, config, bos_id):
    rng = np.random.default_rng(0)
    total, tokens = 0.0, 0
    for src, s_len, tgt, t_len in make_batches(pairs, config.batch_size, rng):
        total += xent_loss(model, model.encode(src, s_len), tgt, t_len, bos_id, backward=False)
        tokens += int(t_len.sum())
    return float(np.exp(total / max(tokens, 1)))


def train_bso_epoch(model, examples, config, epoch, rng, bos_id):
    """One BSO epoch with curriculum beam and delayed per-batch updates.

    examples: list of (src_ids, gold_ids, initial constraint state). Each
    minibatch is encoded, searched and backpropagated in lockstep. A
    SentenceError (a gold sequence its constraint rejects, or non-finite
    scores) names the example's index. Returns EpochStats.
    """
    delta_fn = DELTA_FNS[config.delta]
    beam = curriculum_beam(epoch, config)
    stats = EpochStats(beam=beam)
    t0 = time.perf_counter()
    order = rng.permutation(len(examples))
    for start in range(0, len(order), config.batch_size):
        batch = [examples[i] for i in order[start:start + config.batch_size]]
        src, lengths = pad_ids([src for src, _, _ in batch])
        golds = [gold for _, gold, _ in batch]
        gold_len = sum(len(g) for g in golds)
        masks = _masks_for(model, src.shape[1], max(len(g) for g in golds), rng, config)
        model.zero_grads()
        enc = model.encode(src, lengths, masks=masks)
        try:
            fwd = bso_forward(model, enc, golds, beam, [c for _, _, c in batch],
                              delta_fn, bos_id, margin_score=config.margin_score)
        except SentenceError as exc:
            exc.sentence = int(order[start + exc.sentence])
            raise
        stats.loss += margin_loss(fwd.records)
        bso_backward(model, fwd)
        stats.violations += sum(1 for r in fwd.records if r.delta > 0)
        # the encoding and its step caches go before the update
        del enc, fwd
        optimizer_step(model, config)
        stats.margin_steps += gold_len
        stats.tokens += int(lengths.sum()) + gold_len
    stats.seconds = time.perf_counter() - t0
    return stats
