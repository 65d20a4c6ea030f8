"""Beam search: hard-constraint states, array beams, top-K selection, the
beam step and lockstep search over a batch of sentences.

A beam is a set of arrays with one row per hypothesis: token prefixes,
scores and the index of the sentence each row belongs to, so that the
beams of many sentences form one :class:`Beam`, whose rows need not be
grouped by sentence. Constraint states are row-batched the same way:
``allowed_mask()`` gives the admissible ``(row, word)`` pairs of every row,
the one statement of a constraint's rule, ``advance(words)`` moves every
row by one word it allows, ``allows(words)`` tells whether each row's word
is one of its pairs, ``select(rows)`` gathers rows and
:func:`join_constraints` stacks the states of several sentences. Every
constraint of one batch must be of the same class. Search only takes words
from the pairs; :func:`validate_gold` checks gold sequences with
``allows``.
:func:`search_step`, one ``decode_step`` and one :func:`beam_step` for all
sentences of a batch, is the one search step: test-time decoding
(:func:`beam_search`) and BSO training both take it.

A beam step scores only admissible candidates and ranks those of the
whole batch at once, so its successors come out grouped by sentence
whatever the order of its input rows. Ranking uses cumulative scores
accumulated in float64 so that a from-scratch rescoring of the same prefix
reproduces bit-identical totals. Ties are broken deterministically within
each sentence: higher score, then lower word index, then lower parent
index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tasks import pad_ids


class SentenceError(Exception):
    """An error that belongs to one sentence: ``sentence`` is its index
    among the sentences of the layer that raised it, or None from a
    constraint constructor, which sees one sentence alone. Each layer that
    batches sentences maps ``sentence`` to its caller's numbering in one
    ``except SentenceError`` clause; the message is built when shown."""

    def __init__(self, message, sentence=None):
        super().__init__(message)
        self.message, self.sentence = message, sentence

    def __str__(self):
        where = "" if self.sentence is None else f"sentence {self.sentence}: "
        return where + self.message


class ConstraintError(SentenceError, ValueError):
    """A constraint was built from a source it cannot constrain, or a gold
    sequence takes a word its constraint does not allow."""


class DecodeError(SentenceError, RuntimeError):
    """Search got stuck: a sentence had no valid expansion left before it ended."""


class NonFiniteScoreError(SentenceError, FloatingPointError):
    """A search step was given NaN or infinite f-scores."""


# ---------------------------------------------------------------------------
# Constraint states
#
# A constructor makes a one-row state. Rows of one state share the
# class-wide settings (vocabulary size, blocked words, EOS and reduce ids);
# everything a word changes is an array with one entry per row.
#
# allowed_mask(f, f_rows, seg, k) returns the admissible (row, word) pairs
# as two int64 arrays, in any order and no pair twice: the one statement of
# a class's rule. Given f-scores (row f_rows[i] of f, or row i, scoring
# state row i), their float64 sums with ``seg`` and a beam size k, a class
# may leave out pairs that cannot be among their sentence's K best; without
# f it returns them all. advance(words) takes one word per row (a scalar
# for a one-row state) from those pairs and checks nothing: search only
# picks pairs, and validate_gold checks gold words with allows(words), which
# tells for one word per row whether it is one of that row's pairs.
# select(rows) takes integer row indices; 2-D rows are gathered with
# ``take(rows, axis=0)``, the copy fancy indexing makes at half its fixed
# cost on a few rows.


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
        self.words = np.flatnonzero(self.allowed)
        self.rows = 1

    def settings(self):
        return self.vocab_size, self.blocked

    def allowed_mask(self, f=None, f_rows=None, seg=None, k=None):
        """Every unblocked word of every row. Given f-scores, a row keeps
        only the words whose f is at least its K-th best f, unless rounding
        lets a smaller f tie the K-th best's sum with ``seg`` in float64:
        such a row keeps every word."""
        if f is None or k >= len(self.words):
            return np.repeat(np.arange(self.rows), len(self.words)), np.tile(self.words, self.rows)
        f = f.copy() if f_rows is None else f[f_rows]
        f[:, list(self.blocked)] = -np.inf
        kth = np.partition(f, -k, axis=1)[:, -k]
        # a word below kth has K words of its own sentence above it, as
        # long as its sum with seg stays below theirs: every f below kth
        # is at most the next float down from it
        keep = f >= kth[:, None]
        tie = seg + np.nextafter(kth, -np.inf) >= seg + kth
        if tie.any():
            keep[tie] = self.allowed
        # a sparse [rows, V] mask: the flat index beats the 2-D nonzero
        return np.divmod(np.flatnonzero(keep), keep.shape[1])

    def allows(self, words):
        in_vocab = (words >= 0) & (words < self.vocab_size)
        return in_vocab & self.allowed[np.where(in_vocab, words, 0)]

    def advance(self, words):
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
            raise ConstraintError("EOS cannot be a source word: it ends the output")
        self.vocab_size = vocab_size
        self.eos_id = eos_id
        self.types = types[None, :]
        self.counts = counts[None, :]

    def settings(self):
        return self.vocab_size, self.eos_id

    def allowed_mask(self, f=None, f_rows=None, seg=None, k=None):
        """Each row's unused source words, or EOS once it has none."""
        # a count is never below zero, so a word is unused where it is
        # nonzero; with a few columns the 2-D nonzero beats the flat index
        rows, cols = self.counts.nonzero()
        done = (~self.counts.any(axis=1)).nonzero()[0]
        return (np.concatenate([rows, done]),
                np.concatenate([self.types[rows, cols], np.full(len(done), self.eos_id)]))

    def allows(self, words):
        unused = ((self.types == words[:, None]) & (self.counts != 0)).any(axis=1)
        return unused | ((words == self.eos_id) & ~self.counts.any(axis=1))

    def advance(self, words):
        # EOS is no type: an EOS row keeps its counts
        column = np.asarray(words).reshape(-1, 1)
        return _replace(self, counts=self.counts - (self.types == column))

    def select(self, rows):
        return _replace(self, types=self.types.take(rows, axis=0),
                        counts=self.counts.take(rows, axis=0))

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
        clash = source[(source == eos_id) | np.isin(source, self.reduce_ids)]
        if clash.size:
            raise ConstraintError(f"source word {clash[0]} is EOS or a reduce action: "
                                  f"emitting it would not shift it")
        self.source = np.full((1, max(len(source), 1)), -1, dtype=np.int64)
        self.source[0, :len(source)] = source
        self.n_source = np.array([len(source)])
        self.next_idx = np.zeros(1, dtype=np.int64)
        self.depth = np.zeros(1, dtype=np.int64)

    def settings(self):
        return self.vocab_size, self.eos_id, tuple(self.reduce_ids.tolist())

    def allowed_mask(self, f=None, f_rows=None, seg=None, k=None):
        """Each row's next source word, every reduce action once its stack
        holds two items, and EOS once its parse is complete."""
        shift = (self.next_idx < self.n_source).nonzero()[0]
        reduce = (self.depth >= 2).nonzero()[0]
        done = ((self.next_idx == self.n_source) & (self.depth == 1)).nonzero()[0]
        return (np.concatenate([shift, np.repeat(reduce, len(self.reduce_ids)), done]),
                np.concatenate([self.source[shift, self.next_idx[shift]],
                                np.tile(self.reduce_ids, len(reduce)),
                                np.full(len(done), self.eos_id)]))

    def allows(self, words):
        # a row that has shifted its last word reads its last column, not past it
        col = np.minimum(self.next_idx, self.source.shape[1] - 1)
        shift = (self.next_idx < self.n_source) & \
            (np.take_along_axis(self.source, col[:, None], axis=1)[:, 0] == words)
        reduce = (self.depth >= 2) & np.isin(words, self.reduce_ids)
        done = (self.next_idx == self.n_source) & (self.depth == 1) & (words == self.eos_id)
        return shift | reduce | done

    def advance(self, words):
        words = np.reshape(words, -1)
        eos = words == self.eos_id
        reduce = ~eos & np.isin(words, self.reduce_ids)
        shift = ~eos & ~reduce
        if eos.all():
            return self
        return _replace(self, next_idx=self.next_idx + shift,
                        depth=self.depth + shift - reduce)

    def select(self, rows):
        return _replace(self, source=self.source.take(rows, axis=0), n_source=self.n_source[rows],
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
    Every word must be one of its row's ``allowed_mask`` pairs, as the
    state's ``allows`` tells; else ConstraintError names the row as its
    sentence, the step, the word and the words its row allows.
    """
    padded, lengths = pad_ids(golds)
    rows = np.flatnonzero(lengths > 0)
    state = constraint.select(rows)
    states = [state]
    for j in range(padded.shape[1]):
        words = padded[rows, j]
        ok = state.allows(words)
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            allowed = np.sort(state.select([i]).allowed_mask()[1]).tolist()
            raise ConstraintError(f"gold sequence invalid at step {j + 1}: word {words[i]} "
                                  f"not among the allowed words {allowed}", int(rows[i]))
        state = state.advance(words)
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
    sentence need not be contiguous; :func:`beam_step` returns them
    contiguous and in rank order, sentences ascending."""

    tokens: np.ndarray           # [n, t] token prefixes
    seg_score: np.ndarray        # [n] cumulative f since the last search reset
    sent: np.ndarray             # [n] index of each row's sentence
    constraint: object           # constraint state, one row per hypothesis

    @classmethod
    def seed(cls, tokens, sent, constraint):
        """Hypotheses that search starts or resumes from, with zero scores."""
        n = len(sent)
        return cls(np.asarray(tokens, dtype=np.int64), np.zeros(n),
                   np.asarray(sent, dtype=np.int64), constraint)

    def __len__(self):
        return len(self.sent)

    def select(self, rows):
        return Beam(self.tokens.take(rows, axis=0), self.seg_score[rows], self.sent[rows],
                    self.constraint.select(rows))

    @staticmethod
    def join(beams):
        """Stack the rows of several beams, in order."""
        return Beam(*(np.concatenate([getattr(b, name) for b in beams])
                      for name in ("tokens", "seg_score", "sent")),
                    join_constraints([b.constraint for b in beams]))


# ---------------------------------------------------------------------------
# Top-K selection


def top_k(scores, words, parents, k, segments=None):
    """Pick the K best candidate expansions of each segment.

    scores, words, parents: one entry per candidate, in any order, no two
    with the same parent and word; segments: the segment of each
    candidate, or None for one segment. Within a segment, higher scores
    rank first, ties break toward the lower word, then the lower parent.
    Returns the indices of the picks in rank order, segment after segment,
    segments ascending.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not len(scores):
        return np.zeros(0, dtype=np.int64)
    if segments is None:
        if k == 1:
            best = (scores == scores.max()).nonzero()[0]
            if len(best) > 1:
                best = best[np.lexsort((parents[best], words[best]))[:1]]
            return best
        return np.lexsort((parents, words, -scores))[:k]
    # one key for (word, parent): word-major, then parent
    word_parent = words * (parents.max() + 1) + parents
    order = np.lexsort((word_parent, -scores, segments))
    seg = segments[order]
    return order[np.arange(len(order)) - np.searchsorted(seg, seg) < k]


def beam_step(beam, f, k, rows=None):
    """Expand the hypotheses of every sentence by one token: its K best
    successors.

    f: f-scores, [n, V] with row i scoring the next word of beam row i, or
    any number of rows with ``rows[i]`` the one that scores beam row i.
    Only the constraint's successor pairs are scored. Successors rank per
    sentence by segment score (cumulative f since the last search reset),
    in float64, with one ``top_k`` call for the whole beam; each carries
    its parent's constraint state advanced by its word. The beam's rows
    need not be grouped by sentence; the successors are, sentences
    ascending. Returns (successors, parent row of each); a sentence with no
    valid expansion has no successors. NonFiniteScoreError names the first
    row of f that is not finite as its sentence.
    """
    if not np.isfinite(f).all():
        raise NonFiniteScoreError(f"non-finite f-scores at output step {beam.tokens.shape[1] + 1}",
                                  int(np.flatnonzero(~np.isfinite(f).all(axis=1))[0]))
    parents, words = beam.constraint.allowed_mask(f=f, f_rows=rows, seg=beam.seg_score, k=k)
    fw = f[parents if rows is None else rows[parents], words].astype(np.float64)
    # seg_score + f: the float64 sum the successor's seg_score keeps
    cum = beam.seg_score[parents] + fw
    sent = beam.sent
    one = len(sent) < 2 or not np.count_nonzero(sent != sent[0])
    pick = top_k(cum, words, parents, k, None if one else sent[parents])
    parents, words = parents[pick], words[pick]
    # one successor of a one-row beam: its constraint rows need no gather
    constraint = beam.constraint if len(parents) == len(beam) == 1 \
        else beam.constraint.select(parents)
    succ = Beam(np.concatenate([beam.tokens.take(parents, axis=0), words[:, None]], axis=1),
                cum[pick], sent[parents], constraint.advance(words))
    return succ, parents


# ---------------------------------------------------------------------------
# Lockstep search


def search_step(model, state, words, enc, beam, k, f_rows=None):
    """One lockstep step: ``decode_step`` and ``score_f`` over the rows of
    ``state``, then :func:`beam_step` on ``beam`` (``f_rows`` as its rows).
    A SentenceError names a state row's sentence, its ``src``. Returns
    (state, f, succ, parents)."""
    state = model.decode_step(state, words, enc)[0]
    f = model.score_f(state)
    try:
        succ, parents = beam_step(beam, f, k, f_rows)
    except SentenceError as exc:
        exc.sentence = int(state.src[exc.sentence])
        raise
    return state, f, succ, parents


def beam_search(model, enc, k, constraints, max_lens, bos_id, eos_id):
    """Lockstep beam search over score_f for a batch of sentences.

    enc: the encoded sources, sentence b at row b; constraints: one initial
    state per sentence, all of one class; max_lens: the most tokens per
    sentence. A sentence sets EOS-terminated candidates aside and searches
    on until its beam empties or it reaches its max_len. Its best completed
    sequence wins, the first found among equals, else its best hypothesis
    at max_len. k=1 is greedy search. Decoding never resets, so a row's
    segment score is its total score. Returns (tokens, score) per sentence;
    DecodeError names a sentence that got stuck before it ended.
    """
    if k < 1:
        raise ValueError("beam size must be >= 1")
    max_lens = np.asarray(max_lens)
    last_steps = set(max_lens.tolist())
    if len(max_lens) != len(constraints) or min(last_steps) < 1:
        raise ValueError("need one max_len >= 1 per constraint")
    n = len(constraints)
    # per sentence: tokens and (completed, score) of its best stopped row
    found = [None] * n
    beam = Beam.seed(np.zeros((n, 0)), np.arange(n),
                     constraints[0] if n == 1 else join_constraints(constraints))
    state = enc.init_state
    for step in range(max(last_steps)):
        words = beam.tokens[:, -1] if step else np.full(len(beam), bos_id)
        state, _, succ, parents = search_step(model, state, words, enc, beam, k)
        if not len(succ):
            break
        done = succ.tokens[:, -1] == eos_id
        if np.count_nonzero(done) or step + 1 in last_steps:
            # a row stops at EOS or at its sentence's max_len; completed rows
            # beat the rest, then higher scores, then rows found earlier
            stop = done | (max_lens[succ.sent] == step + 1)
            for r in np.flatnonzero(stop):
                b, rank = succ.sent[r], (bool(done[r]), float(succ.seg_score[r]))
                if found[b] is None or rank > found[b][1]:
                    found[b] = (tuple(succ.tokens[r].tolist()), rank)
            keep = np.flatnonzero(~stop)
            if not keep.size:
                break
            succ, parents = succ.select(keep), parents[keep]
        beam = succ
        # one row kept from one row: nothing to gather
        state = state if len(parents) == state.batch == 1 else state.select(parents)
    # a sentence stops only by ending or by getting stuck
    if None in found:
        raise DecodeError("no valid expansion left before it ended", found.index(None))
    return [(tokens, score) for tokens, (_, score) in found]


def beam_decode(model, enc, k, constraint, max_len, bos_id, eos_id):
    """The best tokens for one encoded source: a batch of one for :func:`beam_search`."""
    return beam_search(model, enc, k, [constraint], [max_len], bos_id, eos_id)[0][0]
