"""Beam search: hypotheses, hard-constraint successor sets, top-K
selection, the beam step and test-time decoding.

A constraint state gives its successor set as a boolean mask over the
target vocabulary. :func:`beam_step` is the one search step: test-time
decoding and BSO training both expand hypotheses only through it.

Ranking uses cumulative scores accumulated in float64 so that a
from-scratch rescoring of the same prefix reproduces bit-identical totals.
Ties are broken deterministically: higher score, then lower word index,
then lower parent index.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np


class ConstraintError(ValueError):
    """A constraint was advanced with a word it does not allow."""


class DecodeError(RuntimeError):
    """Search got stuck: no hypothesis has a valid expansion."""

    def __init__(self, prefix):
        super().__init__(f"no valid expansion for prefix {list(prefix)}")
        self.prefix = tuple(prefix)


class NonFiniteScoreError(FloatingPointError):
    """A search step was given NaN or infinite f-scores.

    ``sentence`` is the index of the offending sentence in its batch, or
    None where the search covers one sentence only (decoding).
    """

    def __init__(self, step, sentence=None):
        where = "" if sentence is None else f" of sentence {sentence}"
        super().__init__(f"non-finite f-scores at output step {step}{where}")
        self.step = step
        self.sentence = sentence


# ---------------------------------------------------------------------------
# Constraint states


class NoConstraint:
    """Unconstrained successors: any vocabulary word except pad/bos."""

    def __init__(self, vocab_size, blocked=()):
        self.vocab_size = vocab_size
        self.blocked = tuple(blocked)

    def allowed_mask(self):
        mask = np.ones(self.vocab_size, dtype=bool)
        for b in self.blocked:
            mask[b] = False
        return mask

    def advance(self, word):
        if word in self.blocked:
            raise ConstraintError(f"word {word} is blocked")
        return self


class PermutationConstraint:
    """Only unused source words may be emitted; EOS once all are used."""

    def __init__(self, vocab_size, source_ids, eos_id, _remaining=None):
        self.vocab_size = vocab_size
        self.eos_id = eos_id
        self.remaining = Counter(source_ids) if _remaining is None else _remaining

    def allowed_mask(self):
        mask = np.zeros(self.vocab_size, dtype=bool)
        if self.remaining:
            for w, n in self.remaining.items():
                if n > 0:
                    mask[w] = True
        else:
            mask[self.eos_id] = True
        return mask

    def advance(self, word):
        if word == self.eos_id:
            if self.remaining:
                raise ConstraintError("EOS before all source words were used")
            return self
        if self.remaining.get(word, 0) <= 0:
            raise ConstraintError(f"word {word} not among unused source words")
        rem = self.remaining.copy()
        rem[word] -= 1
        if rem[word] == 0:
            del rem[word]
        return PermutationConstraint(self.vocab_size, (), self.eos_id, _remaining=rem)


class ArcStandardConstraint:
    """Shift-reduce validity for parsing-as-a-sequence outputs.

    Source words must be emitted in order; reduce actions need stack depth
    at least 2; EOS only once every word is emitted and a single item (the
    root) remains on the stack.
    """

    def __init__(self, vocab_size, source_ids, reduce_ids, eos_id,
                 next_idx=0, stack_depth=0):
        self.vocab_size = vocab_size
        self.source_ids = tuple(source_ids)
        self.reduce_ids = frozenset(reduce_ids)
        self.eos_id = eos_id
        self.next_idx = next_idx
        self.stack_depth = stack_depth

    def allowed_mask(self):
        mask = np.zeros(self.vocab_size, dtype=bool)
        n = len(self.source_ids)
        if self.next_idx < n:
            mask[self.source_ids[self.next_idx]] = True
        if self.stack_depth >= 2:
            for r in self.reduce_ids:
                mask[r] = True
        if self.next_idx == n and self.stack_depth == 1:
            mask[self.eos_id] = True
        return mask

    def advance(self, word):
        n = len(self.source_ids)
        if word == self.eos_id:
            if not (self.next_idx == n and self.stack_depth == 1):
                raise ConstraintError("EOS before parse is complete")
            return self
        if word in self.reduce_ids:
            if self.stack_depth < 2:
                raise ConstraintError("reduce with stack depth < 2")
            return self._with(self.next_idx, self.stack_depth - 1)
        if self.next_idx < n and word == self.source_ids[self.next_idx]:
            return self._with(self.next_idx + 1, self.stack_depth + 1)
        raise ConstraintError(f"word {word} is neither the next source word nor a legal action")

    def _with(self, next_idx, depth):
        return ArcStandardConstraint(self.vocab_size, self.source_ids,
                                     self.reduce_ids, self.eos_id,
                                     next_idx=next_idx, stack_depth=depth)


def validate_gold(constraint, tokens):
    """Check a gold sequence against a constraint; returns the final state.

    Raises ConstraintError naming the violating step.
    """
    state = constraint
    for i, w in enumerate(tokens):
        try:
            state = state.advance(w)
        except ConstraintError as exc:
            raise ConstraintError(f"gold sequence invalid at step {i + 1}: {exc}") from None
    return state


# ---------------------------------------------------------------------------
# Hypotheses


@dataclass
class Hypothesis:
    tokens: tuple
    score: float                 # cumulative f of the tokens search appended
    constraint: object
    seg_score: float = 0.0       # cumulative f since the last search reset
    last_f: float = 0.0


# ---------------------------------------------------------------------------
# Top-K selection


def top_k(scores, valid, k):
    """Pick the K best (parent, word) expansions.

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


def beam_step(hyps, f, k):
    """Expand hypotheses by one token: the K best successors.

    f: [n, V] float64 f-scores, row i scoring the next word of hyps[i].
    Successors rank by segment score (cumulative f since the last search
    reset); each carries its parent's constraint advanced by its word.
    Returns (successors, parent row of each) in rank order.
    """
    if not np.isfinite(f).all():
        raise NonFiniteScoreError(len(hyps[0].tokens) + 1)
    cum = f + np.array([h.seg_score for h in hyps])[:, None]
    valid = np.stack([h.constraint.allowed_mask() for h in hyps])
    succ, rows = [], []
    for parent, w in top_k(cum, valid, k):
        h = hyps[parent]
        fw = float(f[parent, w])
        # seg_score is cum[parent, w] bit for bit: the same float64 sum
        succ.append(Hypothesis(h.tokens + (w,), h.score + fw, h.constraint.advance(w),
                               seg_score=h.seg_score + fw, last_f=fw))
        rows.append(parent)
    return succ, rows


# ---------------------------------------------------------------------------
# Test-time decoding


def beam_decode(model, enc, k, constraint, max_len, bos_id, eos_id, masks=None,
                return_score=False):
    """Beam search over score_f; returns the best completed sequence.

    EOS-terminated candidates are set aside and search continues with the
    surviving hypotheses until the beam empties or max_len is reached; the
    highest-scoring completed hypothesis wins (completed sequences are
    preferred over incomplete ones). With k=1 this reduces to greedy
    argmax stepping. Decoding never resets, so segment and total scores
    coincide.
    """
    if k < 1:
        raise ValueError("beam size must be >= 1")
    states = model.init_state(enc)
    hyps = [Hypothesis(tokens=(), score=0.0, constraint=constraint)]
    finished = []
    for step in range(max_len):
        words = np.array([h.tokens[-1] if h.tokens else bos_id for h in hyps])
        out, _ = model.decode_step(states, words, enc, step=step, masks=masks)
        succ, rows = beam_step(hyps, model.score_f(out).astype(np.float64), k)
        if not succ:
            if finished:
                break
            raise DecodeError(hyps[0].tokens)
        hyps, keep_rows = [], []
        for h, row in zip(succ, rows):
            if h.tokens[-1] == eos_id:
                finished.append(h)
            else:
                hyps.append(h)
                keep_rows.append(row)
        if not hyps:
            break
        states = out.state.select(keep_rows)
    best = max(finished, key=lambda h: h.score) if finished \
        else max(hyps, key=lambda h: h.score)
    if return_score:
        return best.tokens, best.score
    return best.tokens
