"""Beam search: hard-constraint states, array beams, top-K selection, the
beam step and test-time decoding.

A beam is a set of arrays with one row per hypothesis: token prefixes,
scores and the index of the sentence each row belongs to, so that the
beams of many sentences form one :class:`Beam`. Constraint states are
row-batched the same way: ``allowed_mask()`` gives the successor set of
every row as an ``[n, V]`` boolean mask, ``advance(words)`` consumes one
word per row, ``select(rows)`` gathers rows and :func:`join_constraints`
stacks the states of several sentences. Every constraint of one batch must
be of the same class. :func:`beam_step` is the one search step: test-time
decoding and BSO training both expand hypotheses only through it, for all
sentences of a batch at once.

Ranking uses cumulative scores accumulated in float64 so that a
from-scratch rescoring of the same prefix reproduces bit-identical totals.
Ties are broken deterministically within each sentence: higher score, then
lower word index, then lower parent index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConstraintError(ValueError):
    """A constraint was advanced with a word it does not allow.

    ``row`` is the index of a row of the state whose word it rejects.
    """

    def __init__(self, message, row=0):
        super().__init__(message)
        self.row = row


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
#
# A constructor makes a one-row state. Rows of one state share the
# class-wide settings (vocabulary size, blocked words, EOS and reduce ids);
# everything a word changes is an array with one entry per row.


def _words(words, rows):
    """One word id per row, as an int64 array (a scalar for a one-row state)."""
    words = np.asarray(words, dtype=np.int64).reshape(-1)
    if len(words) != rows:
        raise ValueError(f"need one word per row: {rows} rows, words of shape {words.shape}")
    return words


def _reject(bad, message):
    """Raise ConstraintError for the first row flagged in ``bad``, if any."""
    if np.count_nonzero(bad):
        row = int(np.flatnonzero(bad)[0])
        raise ConstraintError(message(row), row=row)


def _replace(state, **fields):
    out = object.__new__(type(state))
    out.__dict__ = {**state.__dict__, **fields}
    return out


def _pad_cols(arrays, fill):
    """Concatenate [n_i, m_i] arrays along rows, right-padding with ``fill``."""
    out = np.full((sum(len(a) for a in arrays), max(a.shape[1] for a in arrays)), fill,
                  dtype=arrays[0].dtype)
    lo = 0
    for a in arrays:
        out[lo:lo + len(a), :a.shape[1]] = a
        lo += len(a)
    return out


def join_constraints(states):
    """Stack the rows of several constraint states, in order.

    Raises ValueError unless every state is of the same class with the
    same class-wide settings.
    """
    cls = type(states[0])
    if any(type(s) is not cls for s in states):
        raise ValueError("every constraint of one batch must be of the same class, got "
                         + ", ".join(sorted({type(s).__name__ for s in states})))
    if len({s.settings() for s in states}) > 1:
        raise ValueError(f"{cls.__name__} states of one batch must share their settings")
    return cls.join(states)


class NoConstraint:
    """Unconstrained successors: any vocabulary word except pad/bos."""

    def __init__(self, vocab_size, blocked=()):
        self.vocab_size = vocab_size
        self.blocked = tuple(blocked)
        self.allowed = np.ones(vocab_size, dtype=bool)
        self.allowed[list(self.blocked)] = False
        self.rows = 1

    def settings(self):
        return self.vocab_size, self.blocked

    def allowed_mask(self):
        return np.repeat(self.allowed[None, :], self.rows, axis=0)

    def advance(self, words):
        words = _words(words, self.rows)
        _reject((words < 0) | (words >= self.vocab_size),
                lambda i: f"word {words[i]} is outside the vocabulary")
        _reject(~self.allowed[words], lambda i: f"word {words[i]} is blocked")
        return self

    def select(self, rows):
        return _replace(self, rows=len(rows))

    @classmethod
    def join(cls, states):
        return _replace(states[0], rows=sum(s.rows for s in states))


class PermutationConstraint:
    """Only unused source words may be emitted; EOS once all are used.

    Each row keeps the distinct source words (``types``, padded with the
    vocabulary size) and how many of each are unused (``counts``).
    """

    def __init__(self, vocab_size, source_ids, eos_id):
        types, counts = np.unique(np.asarray(source_ids, dtype=np.int64), return_counts=True)
        if eos_id in types:
            raise ValueError("EOS cannot be a source word: it ends the output")
        self.vocab_size = vocab_size
        self.eos_id = eos_id
        self.types = types[None, :]
        self.counts = counts[None, :]

    def settings(self):
        return self.vocab_size, self.eos_id

    def allowed_mask(self):
        n = len(self.counts)
        unused = self.counts > 0
        # one spare column takes the padding
        mask = np.zeros((n, self.vocab_size + 1), dtype=bool)
        mask[np.arange(n)[:, None], self.types] = unused
        mask[:, self.eos_id] = ~unused.any(axis=1)
        return mask[:, :-1]

    def advance(self, words):
        words = _words(words, len(self.counts))
        hit = (self.types == words[:, None]) & (self.counts > 0)
        # each row hits at most one type: all is well when every row hits
        # one, or is an EOS row with no words left
        if np.count_nonzero(hit) != len(words):
            eos = words == self.eos_id
            _reject(eos & self.counts.any(axis=1),
                    lambda i: "EOS before all source words were used")
            _reject(~eos & ~hit.any(axis=1),
                    lambda i: f"word {words[i]} not among unused source words")
        return _replace(self, counts=self.counts - hit)

    def select(self, rows):
        return _replace(self, types=self.types[rows], counts=self.counts[rows])

    @classmethod
    def join(cls, states):
        types = _pad_cols([s.types for s in states], states[0].vocab_size)
        return _replace(states[0], types=types, counts=_pad_cols([s.counts for s in states], 0))


class ArcStandardConstraint:
    """Shift-reduce validity for parsing-as-a-sequence outputs.

    Source words must be emitted in order; reduce actions need stack depth
    at least 2; EOS only once every word is emitted and a single item (the
    root) remains on the stack. Each row keeps its source (padded with -1),
    the index of its next source word and its stack depth.
    """

    def __init__(self, vocab_size, source_ids, reduce_ids, eos_id):
        self.vocab_size = vocab_size
        self.reduce_ids = np.array(sorted(set(int(r) for r in reduce_ids)), dtype=np.int64)
        self.eos_id = eos_id
        source = np.asarray(source_ids, dtype=np.int64)
        self.source = np.full((1, max(len(source), 1)), -1, dtype=np.int64)
        self.source[0, :len(source)] = source
        self.n_source = np.array([len(source)])
        self.next_idx = np.zeros(1, dtype=np.int64)
        self.depth = np.zeros(1, dtype=np.int64)

    def settings(self):
        return self.vocab_size, self.eos_id, tuple(self.reduce_ids.tolist())

    def _next_word(self):
        rows = np.arange(len(self.next_idx))
        return self.source[rows, np.minimum(self.next_idx, self.source.shape[1] - 1)]

    def allowed_mask(self):
        mask = np.zeros((len(self.next_idx), self.vocab_size), dtype=bool)
        shift = np.flatnonzero(self.next_idx < self.n_source)
        mask[shift, self._next_word()[shift]] = True
        mask[np.ix_(self.depth >= 2, self.reduce_ids)] = True
        mask[(self.next_idx == self.n_source) & (self.depth == 1), self.eos_id] = True
        return mask

    def advance(self, words):
        words = _words(words, len(self.next_idx))
        eos = words == self.eos_id
        complete = (self.next_idx == self.n_source) & (self.depth == 1)
        _reject(eos & ~complete, lambda i: "EOS before parse is complete")
        reduce = ~eos & np.isin(words, self.reduce_ids)
        _reject(reduce & (self.depth < 2), lambda i: "reduce with stack depth < 2")
        shift = ~eos & ~reduce & (self.next_idx < self.n_source) & (words == self._next_word())
        _reject(~(eos | reduce | shift), lambda i: f"word {words[i]} is neither the next "
                                                   f"source word nor a legal action")
        if eos.all():
            return self
        return _replace(self, next_idx=self.next_idx + shift,
                        depth=self.depth + shift - reduce)

    def select(self, rows):
        return _replace(self, source=self.source[rows], n_source=self.n_source[rows],
                        next_idx=self.next_idx[rows], depth=self.depth[rows])

    @classmethod
    def join(cls, states):
        return _replace(states[0], source=_pad_cols([s.source for s in states], -1),
                        **{name: np.concatenate([getattr(s, name) for s in states])
                           for name in ("n_source", "next_idx", "depth")})


def validate_gold(constraint, golds):
    """Check gold sequences against a constraint state, one per row.

    Returns the gold prefix states: entry j is the state, after its first
    j words, of every row whose sequence is longer than j, in row order.
    Raises ConstraintError naming the sequence and the step.
    """
    lengths = np.array([len(g) for g in golds], dtype=np.int64)
    padded = np.zeros((len(golds), max(lengths, default=0)), dtype=np.int64)
    for i, g in enumerate(golds):
        padded[i, :len(g)] = g
    rows = np.flatnonzero(lengths > 0)
    state = constraint.select(rows)
    states = [state]
    for j in range(padded.shape[1]):
        try:
            state = state.advance(padded[rows, j])
        except ConstraintError as exc:
            raise ConstraintError(f"gold sequence {rows[exc.row]} invalid at step {j + 1}: "
                                  f"{exc}", row=int(rows[exc.row])) from None
        live = np.flatnonzero(lengths[rows] > j + 1)
        rows = rows[live]
        state = state.select(live)
        states.append(state)
    return states


# ---------------------------------------------------------------------------
# Array beams


@dataclass
class Beam:
    """Hypotheses of one or more sentences, one per row. The rows of a
    sentence are contiguous and in rank order; sentences ascend."""

    tokens: np.ndarray           # [n, t] token prefixes
    score: np.ndarray            # [n] cumulative f of the tokens search appended
    seg_score: np.ndarray        # [n] cumulative f since the last search reset
    last_f: np.ndarray           # [n] f of the last token
    sent: np.ndarray             # [n] index of each row's sentence
    constraint: object           # constraint state, one row per hypothesis

    @classmethod
    def seed(cls, tokens, sent, constraint):
        """Hypotheses that search starts or resumes from, with zero scores."""
        n = len(sent)
        return cls(np.asarray(tokens, dtype=np.int64), np.zeros(n), np.zeros(n), np.zeros(n),
                   np.asarray(sent, dtype=np.int64), constraint)

    def __len__(self):
        return len(self.sent)

    def select(self, rows):
        return Beam(self.tokens[rows], self.score[rows], self.seg_score[rows],
                    self.last_f[rows], self.sent[rows], self.constraint.select(rows))

    @staticmethod
    def join(beams):
        """Stack the rows of several beams, in order."""
        return Beam(*(np.concatenate([getattr(b, name) for b in beams])
                      for name in ("tokens", "score", "seg_score", "last_f", "sent")),
                    join_constraints([b.constraint for b in beams]))


# ---------------------------------------------------------------------------
# Top-K selection

# Candidate count above which top_k first cuts each row to its K best:
# sorting a few hundred candidates costs less than the cut
PREFILTER = 256

# Rows ranked by one top_k call: bounds the [rows, V] float64 temporaries
CHUNK_ROWS = 18


def top_k(scores, valid, k, segments=None):
    """Pick the K best (parent, word) expansions of each segment of rows.

    scores: [n, vocab] cumulative scores; valid: same-shape bool mask;
    segments: [n] non-decreasing segment id of each row, or None for one
    segment. Within a segment, ties break toward the lower word index,
    then the lower parent index. Returns (parents, words), int arrays in
    rank order, segment after segment.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    n, v = scores.shape
    if k == 1 and segments is None:
        # the first best in word-major order is the stable sort's first; the
        # sort below takes the rest (nothing valid, or every valid score -inf)
        best = int(np.where(valid, scores, -np.inf).T.argmax())
        if valid[best % n, best // n]:
            return np.array([best % n]), np.array([best // n])
    if v > k and np.count_nonzero(valid) > PREFILTER:
        # a candidate below its row's K-th best has K better ones in its
        # own segment, so it cannot be picked: sort only the rest
        kth = np.where(valid, scores, -np.inf)
        kth.partition(v - k, axis=1)
        valid = valid & (scores >= kth[:, v - k:v - k + 1])
    # word-major enumeration: a stable sort on score then leaves ties
    # ordered by word, then parent
    words, parents = np.nonzero(valid.T)
    neg = -scores[parents, words]
    if segments is None:
        order = np.argsort(neg, kind="stable")[:k]
    else:
        seg = np.asarray(segments)[parents]
        order = np.lexsort((neg, seg))
        seg = seg[order]
        order = order[np.arange(len(order)) - np.searchsorted(seg, seg) < k]
    return parents[order], words[order]


def beam_step(beam, f, k, rows=None):
    """Expand the hypotheses of every sentence by one token: its K best
    successors.

    f: f-scores, [n, V] with row i scoring the next word of beam row i, or
    any number of rows with ``rows[i]`` the one that scores beam row i.
    Successors rank per sentence by segment score (cumulative f since the
    last search reset), in float64; each carries its parent's constraint
    state advanced by its word. Sentences are ranked in chunks of about
    CHUNK_ROWS rows, one ``top_k`` call each. Returns (successors, parent
    row of each); a sentence with no valid expansion has no successors.
    """
    if not np.isfinite(f).all():
        raise NonFiniteScoreError(beam.tokens.shape[1] + 1)
    valid = beam.constraint.allowed_mask()
    sent = beam.sent
    if len(sent) == 0 or sent[0] == sent[-1]:
        bounds, segments = [0, len(sent)], None
    else:
        # a chunk starts with the first sentence that starts in a new
        # CHUNK_ROWS window
        starts = np.flatnonzero(sent[1:] != sent[:-1]) + 1
        window = np.concatenate([[0], starts // CHUNK_ROWS])
        cuts = starts[window[1:] > window[:-1]]
        bounds, segments = [0, *cuts.tolist(), len(sent)], sent
    picks = []
    for lo, hi in zip(bounds, bounds[1:]):
        f_rows = f[lo:hi] if rows is None else f[rows[lo:hi]]
        # seg_score + f: the float64 sum the successor's seg_score keeps
        cum = f_rows + beam.seg_score[lo:hi, None]
        p, w = top_k(cum, valid[lo:hi], k, None if segments is None else segments[lo:hi])
        picks.append((p + lo if lo else p, w, cum[p, w]))
    parents, words, seg_score = picks[0] if len(picks) == 1 else map(np.concatenate,
                                                                         zip(*picks))
    fw = f[parents if rows is None else rows[parents], words].astype(np.float64)
    # one successor of a one-row beam: its constraint rows need no gather
    constraint = beam.constraint if len(parents) == len(beam) == 1 \
        else beam.constraint.select(parents)
    succ = Beam(np.concatenate([beam.tokens[parents], words[:, None]], axis=1),
                beam.score[parents] + fw, seg_score, fw, sent[parents],
                constraint.advance(words))
    return succ, parents


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
    beam = Beam.seed(np.zeros((1, 0)), [0], constraint)
    finished = []                # (tokens, score) in the order they were found
    for step in range(max_len):
        words = beam.tokens[:, -1] if step else np.full(len(beam), bos_id)
        out, _ = model.decode_step(states, words, enc, step=step, masks=masks)
        succ, parents = beam_step(beam, model.score_f(out), k)
        if not len(succ):
            if finished:
                break
            raise DecodeError(beam.tokens[0].tolist())
        done = succ.tokens[:, -1] == eos_id
        if np.count_nonzero(done):
            finished += zip(succ.tokens[done].tolist(), succ.score[done].tolist())
            keep = np.flatnonzero(~done)
            if not keep.size:
                break
            succ, parents = succ.select(keep), parents[keep]
        beam = succ
        # one row kept from one row: nothing to gather
        states = out.state if len(parents) == out.state.batch == 1 else out.state.select(parents)
    if finished:
        tokens, score = max(finished, key=lambda h: h[1])
    else:
        best = int(np.argmax(beam.score))
        tokens, score = beam.tokens[best].tolist(), float(beam.score[best])
    if return_score:
        return tuple(tokens), score
    return tuple(tokens)
