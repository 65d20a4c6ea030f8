import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bso import beam as beam_mod
from bso import tasks
from bso.beam import (ArcStandardConstraint, Beam, ConstraintError, DecodeError,
                      NonFiniteScoreError, NoConstraint, PermutationConstraint,
                      beam_decode, beam_search, beam_step, join_constraints, top_k,
                      validate_gold)
from bso.model import ModelConfig, Seq2SeqModel
from bso.tasks import BOS_ID, EOS_ID, PAD_ID, pad_ids
from oracles import Hypothesis, reference_beam_step, rescore_prefix, successor_mask

V = 10


def successors(constraint):
    """The successor set of a one-row constraint state, as sorted word ids."""
    return sorted(constraint.allowed_mask()[1].tolist())


class TestSuccUnconstrained:
    def test_count_excludes_reserved(self):
        assert successors(NoConstraint(5, blocked=(0, 2))) == [1, 3, 4]

    def test_beam_union_size(self):
        valid = np.stack([successor_mask(NoConstraint(5)) for _ in range(3)])
        assert np.count_nonzero(valid) == 15


class TestSuccPermutation:
    def test_remaining_words(self):
        c = PermutationConstraint(V, [4, 4, 5], EOS_ID).advance(4)
        assert successors(c) == [4, 5]

    def test_eos_only_when_done(self):
        c = PermutationConstraint(V, [4, 4, 5], EOS_ID)
        for w in (4, 4, 5):
            c = c.advance(w)
        assert successors(c) == [EOS_ID]

    def test_eos_as_source_word_rejected(self):
        with pytest.raises(ValueError, match="EOS"):
            PermutationConstraint(V, [4, EOS_ID], EOS_ID)

    @given(st.lists(st.integers(min_value=4, max_value=8), min_size=1, max_size=6),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_full_sequences_are_permutations(self, source, rnd):
        c = PermutationConstraint(V, source, EOS_ID)
        emitted = []
        while True:
            w = rnd.choice(successors(c))
            c = c.advance(w)
            if w == EOS_ID:
                break
            emitted.append(w)
        assert sorted(emitted) == sorted(source)


class TestSuccArcStandard:
    def reduce_ids(self):
        return (8, 9)

    def test_empty_prefix_only_first_word(self):
        c = ArcStandardConstraint(V, [4, 5, 6], self.reduce_ids(), EOS_ID)
        assert successors(c) == [4]

    def test_after_two_shifts_reduces_allowed(self):
        c = ArcStandardConstraint(V, [4, 5, 6], self.reduce_ids(), EOS_ID)
        c = c.advance(4).advance(5)
        assert successors(c) == [6, 8, 9]

    @pytest.mark.parametrize("source", [[4, 8, 5], [4, EOS_ID]])
    def test_reduce_or_eos_as_source_word_rejected(self, source):
        # advance would read the word as a reduce or EOS, not as a shift
        with pytest.raises(ConstraintError, match="source word"):
            ArcStandardConstraint(V, source, self.reduce_ids(), EOS_ID)

    def test_eos_requires_complete_parse(self):
        c = ArcStandardConstraint(V, [4, 5], self.reduce_ids(), EOS_ID)
        c = c.advance(4).advance(5).advance(8)
        assert successors(c) == [EOS_ID]
        assert c.advance(EOS_ID) is c

    def test_exhaustive_sequences_decode_to_projective_trees(self):
        # every complete constrained sequence over <= 4 words is a valid
        # arc-standard derivation
        words = ["w1", "w2", "w3", "w4"]
        for n in range(1, 5):
            src = words[:n]
            word_ids = list(range(4, 4 + n))
            c0 = ArcStandardConstraint(V, word_ids, (8,), EOS_ID)
            id_to_tok = {8: "@L_x", EOS_ID: tasks.EOS}
            for i, wid in enumerate(word_ids):
                id_to_tok[wid] = src[i]

            def complete(c, seq, acc):
                for w in successors(c):
                    if w == EOS_ID:
                        acc.append(list(seq))
                    else:
                        complete(c.advance(w), seq + [w], acc)

            acc = []
            complete(c0, [], acc)
            assert acc, f"no complete sequences for n={n}"
            for seq in acc:
                toks = [id_to_tok[w] for w in seq]
                parse = tasks.decode_parse_sequence(toks, src)
                assert sorted(parse.words) == sorted(src)
                assert parse.heads.count(0) == 1


class TestValidateGold:
    def test_valid_sequence_passes(self):
        c = PermutationConstraint(V, [4, 5], EOS_ID)
        validate_gold(c, [[5, 4, EOS_ID]])

    def test_invalid_names_step(self):
        c = PermutationConstraint(V, [4, 5], EOS_ID)
        with pytest.raises(ConstraintError, match="step 2"):
            validate_gold(c, [[5, 6, EOS_ID]])

    def test_illegal_gold_word_raises(self):
        c = PermutationConstraint(V, [4], EOS_ID)
        with pytest.raises(ConstraintError, match=r"word 5 not among the allowed words \[4\]"):
            validate_gold(c, [[5]])
        with pytest.raises(ConstraintError, match=rf"step 1: word {EOS_ID} not among"):
            validate_gold(c, [[EOS_ID]])

    def test_error_names_the_offending_row(self):
        c = join_constraints([PermutationConstraint(V, [], EOS_ID),
                              PermutationConstraint(V, [4], EOS_ID)])
        with pytest.raises(ConstraintError, match="sequence 1 invalid at step 1: word 5 "
                                                  "not among") as err:
            validate_gold(c, [[EOS_ID], [5]])
        assert err.value.row == 1

    def test_invalid_names_sequence_of_batch(self):
        c = join_constraints([PermutationConstraint(V, [4, 5], EOS_ID),
                              PermutationConstraint(V, [6], EOS_ID)])
        with pytest.raises(ConstraintError, match="sequence 1 invalid at step 1") as err:
            validate_gold(c, [[5, 4, EOS_ID], [4, EOS_ID]])
        assert err.value.row == 1

    def test_prefix_states_cover_the_longer_sequences(self):
        c = join_constraints([PermutationConstraint(V, [4, 5], EOS_ID),
                              PermutationConstraint(V, [6], EOS_ID)])
        states = validate_gold(c, [[5, 4, EOS_ID], [6, EOS_ID]])
        assert [len(s.counts) for s in states] == [2, 2, 1, 0]
        assert successors(states[1].select([0])) == [4]
        assert successors(states[1].select([1])) == [EOS_ID]
        assert successors(states[2]) == [EOS_ID]


class TestJoin:
    def test_mixed_classes_raise(self):
        with pytest.raises(ValueError, match="same class"):
            join_constraints([NoConstraint(V), PermutationConstraint(V, [4], EOS_ID)])

    def test_different_settings_raise(self):
        with pytest.raises(ValueError, match="settings"):
            join_constraints([NoConstraint(V, blocked=(0,)), NoConstraint(V, blocked=(1,))])

    def test_rows_keep_their_states(self):
        a = ArcStandardConstraint(V, [4, 5], (8, 9), EOS_ID).advance(4).advance(5)
        b = ArcStandardConstraint(V, [6], (8, 9), EOS_ID)
        both = join_constraints([a, b])
        assert np.array_equal(successor_mask(both, 2),
                              np.concatenate([successor_mask(a), successor_mask(b)]))
        c = both.advance([8, 6])
        assert successors(c.select([0])) == [EOS_ID]
        assert successors(c.select([1])) == [EOS_ID]


def ranked(scores, valid, k, segments=None, rng=None):
    """top_k over the valid entries of a dense [parents, words] score
    array, given in a shuffled order when ``rng`` is set: the picks as
    (parent, word) pairs in rank order."""
    parents, words = np.nonzero(valid)
    if rng is not None:
        shuffle = rng.permutation(len(parents))
        parents, words = parents[shuffle], words[shuffle]
    seg = None if segments is None else np.asarray(segments)[parents]
    pick = top_k(np.asarray(scores, dtype=np.float64)[parents, words], words, parents, k, seg)
    return list(zip(parents[pick].tolist(), words[pick].tolist()))


class TestTopK:
    def test_keep_all_when_k_large(self):
        scores = np.array([[1.0, 2.0, 3.0]])
        picks = ranked(scores, np.ones_like(scores, dtype=bool), 10)
        assert len(picks) == 3
        assert picks[0] == (0, 2)

    def test_descending_selection(self):
        scores = np.array([[1.0, 5.0], [3.0, 2.0]])
        picks = ranked(scores, np.ones_like(scores, dtype=bool), 2)
        assert picks == [(0, 1), (1, 0)]

    def test_tie_break_word_then_parent(self):
        scores = np.array([[2.0, 2.0], [2.0, 1.0]])
        valid = np.ones_like(scores, dtype=bool)
        for k in (1, 3):
            picks = ranked(scores, valid, k)
            assert picks == [(0, 0), (1, 0), (0, 1)][:k]
            # the same order whatever order the candidates come in
            for seed in range(6):
                assert ranked(scores, valid, k, rng=np.random.default_rng(seed)) == picks

    def test_segments_rank_apart(self):
        scores = np.array([[2.0, 2.0], [2.0, 1.0], [0.0, 3.0], [5.0, 5.0]])
        valid = np.ones_like(scores, dtype=bool)
        want = [(0, 0), (1, 0), (2, 1), (2, 0), (3, 0), (3, 1)]
        assert ranked(scores, valid, 2, segments=[0, 0, 1, 2]) == want
        # segments need not be contiguous: they come out ascending
        picks = ranked(scores[[2, 0, 3, 1]], valid, 2, segments=[1, 0, 2, 0])
        assert picks == [(1, 0), (3, 0), (0, 1), (0, 0), (2, 0), (2, 1)]

    def test_matches_stable_sort_prefix(self):
        rng = np.random.default_rng(0)
        for k in (1, 4) * 25:
            scores = rng.integers(0, 4, size=(3, 5)).astype(float)
            valid = rng.random((3, 5)) > 0.3
            items = sorted(
                [(-scores[p, w], w, p) for p in range(3) for w in range(5)
                 if valid[p, w]])
            expect = [(p, w) for _, w, p in items][:k]
            assert ranked(scores, valid, k) == expect
            assert ranked(scores, valid, k, rng=rng) == expect

    def test_no_candidates(self):
        assert ranked(np.zeros((2, 3)), np.zeros((2, 3), dtype=bool), 1) == []
        assert ranked(np.zeros((2, 3)), np.zeros((2, 3), dtype=bool), 2, segments=[0, 1]) == []

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_k(np.zeros(2), np.arange(2), np.zeros(2, dtype=np.int64), 0)


def as_beam(sentences):
    """One Beam holding per-sentence lists of reference Hypothesis objects."""
    rows = [(b, h) for b, hyps in enumerate(sentences) for h in hyps]
    return Beam(np.array([h.tokens for _, h in rows], dtype=np.int64).reshape(len(rows), -1),
                np.array([h.seg_score for _, h in rows]),
                np.array([h.last_f for _, h in rows]),
                np.array([b for b, _ in rows], dtype=np.int64),
                join_constraints([h.constraint for _, h in rows]))


class TestBeamStep:
    def test_successors_in_rank_order(self):
        hyps = [Hypothesis((4,), 2.0, PermutationConstraint(V, [4, 5, 6], EOS_ID).advance(4),
                           seg_score=1.5),
                Hypothesis((5,), 1.0, PermutationConstraint(V, [4, 5, 6], EOS_ID).advance(5),
                           seg_score=1.0)]
        f = np.zeros((2, V))
        f[0, 5], f[0, 6] = 0.25, 0.5
        f[1, 4], f[1, 6] = 1.5, -1.0
        succ, rows = beam_step(as_beam([hyps]), f, 3)
        assert succ.tokens.tolist() == [[5, 4], [4, 6], [4, 5]]
        assert rows.tolist() == [1, 0, 0]
        assert succ.seg_score.tolist() == [2.5, 2.0, 1.75]
        assert succ.last_f.tolist() == [1.5, 0.5, 0.25]
        assert successors(succ.constraint.select([0])) == [6]

    def test_no_valid_expansion_gives_empty_beam(self):
        hyps = [Hypothesis((), 0.0, NoConstraint(V, blocked=range(V)))]
        succ, rows = beam_step(as_beam([hyps]), np.zeros((1, V)), 2)
        assert len(succ) == 0 and rows.size == 0

    def test_beam_without_rows(self):
        beam = Beam.seed(np.zeros((0, 2)), [], NoConstraint(V).select([]))
        succ, rows = beam_step(beam, np.zeros((0, V)), 3)
        assert succ.tokens.shape == (0, 3) and rows.size == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_raise_naming_the_step(self, bad):
        hyps = [Hypothesis((4, 5), 0.0, NoConstraint(V))]
        f = np.zeros((1, V))
        f[0, 7] = bad
        with pytest.raises(NonFiniteScoreError, match="step 3") as err:
            beam_step(as_beam([hyps]), f, 2)
        assert isinstance(err.value, FloatingPointError)

    def test_one_allowed_mask_and_advance_per_step(self, monkeypatch):
        # one successor set, one advance and one ranking per step for the
        # whole beam
        calls = {"allowed_mask": 0, "advance": 0, "top_k": 0}

        def counting(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        rng = np.random.default_rng(0)
        sentences = [[Hypothesis((), 0.0, PermutationConstraint(V, [4, 5, 6, 7], EOS_ID))]
                     for _ in range(3)]
        beam = as_beam(sentences)
        for name in ("allowed_mask", "advance"):
            counting(PermutationConstraint, name)
        counting(beam_mod, "top_k")
        beam, _ = beam_step(beam, rng.normal(size=(len(beam), V)), 4)
        beam, _ = beam_step(beam, rng.normal(size=(len(beam), V)), 4)
        assert len(beam) == 12
        assert calls == {"allowed_mask": 2, "advance": 2, "top_k": 2}


REDUCE = (8, 9)


def random_constraint(kind, rng, blocked):
    """A random reachable one-row state; arc-standard states of an empty
    source, and NoConstraint with every word blocked, have no successors."""
    if kind == "none":
        c = NoConstraint(V, blocked=blocked)
    else:
        src = [int(w) for w in rng.integers(4, 8, size=rng.integers(0, 5))]
        c = (PermutationConstraint(V, src, EOS_ID) if kind == "perm"
             else ArcStandardConstraint(V, src, REDUCE, EOS_ID))
    for _ in range(int(rng.integers(0, 6))):
        allowed = c.allowed_mask()[1]
        if not allowed.size:
            break
        c = c.advance(int(rng.choice(np.sort(allowed))))
    return c


def random_sentences(kind, k, seed):
    """1-6 sentences of hypotheses, each a reseeded beam of one row or a
    beam of up to k rows; with ``ties`` every score comes from a small set
    of exactly representable values, so equal candidates are common."""
    rng = np.random.default_rng(seed)
    ties = rng.random() < 0.5
    blocked = tuple(range(V)) if kind == "none" and rng.random() < 0.1 else (PAD_ID, BOS_ID)

    def value():
        return float(rng.choice([-1.0, 0.0, 0.5, 1.0])) if ties else float(rng.normal())

    t = int(rng.integers(0, 5))
    sentences = []
    for _ in range(int(rng.integers(1, 7))):
        c0 = random_constraint(kind, rng, blocked)
        hyps = []
        if rng.random() < 0.4:
            hyps.append(Hypothesis(tuple(int(w) for w in rng.integers(3, V, size=t)), 0.0, c0))
        else:
            for _ in range(int(rng.integers(1, k + 1))):
                hyps.append(Hypothesis(tuple(int(w) for w in rng.integers(3, V, size=t)),
                                       value(), random_constraint(kind, rng, blocked),
                                       seg_score=value(), last_f=value()))
        sentences.append(hyps)
    n = sum(len(h) for h in sentences)
    f = (rng.choice([-1.0, 0.0, 0.5, 1.0], size=(n, V)) if ties else rng.normal(size=(n, V)))
    return sentences, f.astype(np.float32 if rng.random() < 0.5 else np.float64)


class TestArrayBeamStepMatchesReference:
    """The array step over a batch of sentences against the per-hypothesis
    reference step run on each sentence alone: bit for bit."""

    @pytest.mark.parametrize("kind", ["none", "perm", "arc"])
    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("near_2_60", [False, True])
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15)
    def test_successors_equal_reference(self, kind, k, near_2_60, seed):
        sentences, f = random_sentences(kind, k, seed)
        if near_2_60:
            # float64 sums there are multiples of 256: most f no longer tell
            # words apart, so NoConstraint may not cut a row to its K best f
            for hyps in sentences:
                for h in hyps:
                    h.seg_score += 2.0 ** 60
        succ, parents = beam_step(as_beam(sentences), f, k)
        masks = successor_mask(succ.constraint, len(succ))
        lo = 0
        for b, hyps in enumerate(sentences):
            ref, ref_rows = reference_beam_step(hyps, f[lo:lo + len(hyps)].astype(np.float64), k)
            mine = np.flatnonzero(succ.sent == b)
            assert succ.tokens[mine].tolist() == [list(h.tokens) for h in ref]
            assert (parents[mine] - lo).tolist() == ref_rows
            for name in ("seg_score", "last_f"):
                want = np.array([getattr(h, name) for h in ref], dtype=np.float64)
                assert getattr(succ, name)[mine].tobytes() == want.tobytes()
            want = np.array([successor_mask(h.constraint)[0] for h in ref], dtype=bool)
            assert np.array_equal(masks[mine], want.reshape(len(ref), V))
            lo += len(hyps)
        assert np.all(np.diff(succ.sent) >= 0)


class TestSuccessorPairs:
    @pytest.mark.parametrize("kind", ["none", "perm", "arc"])
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40)
    def test_gold_validation_accepts_exactly_the_pairs(self, kind, seed):
        rng = np.random.default_rng(seed)
        blocked = (PAD_ID, BOS_ID) if rng.random() < 0.9 else tuple(range(V))
        n = int(rng.integers(1, 6))
        state = join_constraints([random_constraint(kind, rng, blocked) for _ in range(n)])
        rows, words = state.allowed_mask()
        pairs = set(zip(rows.tolist(), words.tolist()))
        assert len(pairs) == len(rows)
        # a one-step gold passes exactly where it is a pair; words outside
        # the vocabulary are refused as any other word is
        for r in range(n):
            one = state.select([r])
            for w in range(-1, V + 1):
                try:
                    validate_gold(one, [[w]])
                    accepted = True
                except ConstraintError:
                    accepted = False
                assert accepted == ((r, w) in pairs)


class TestUnconstrainedCut:
    """NoConstraint keeps a row's words below its K-th best f only where
    float64 rounding can make their sums tie with the K-th best's."""

    def step(self, f, seg, k):
        hyps = [Hypothesis((4,), 0.0, NoConstraint(V, blocked=(PAD_ID, BOS_ID)), seg_score=s)
                for s in seg]
        succ, parents = beam_step(as_beam([hyps]), f, k)
        ref, ref_rows = reference_beam_step(hyps, f.astype(np.float64), k)
        assert succ.tokens.tolist() == [list(h.tokens) for h in ref]
        assert parents.tolist() == ref_rows
        return succ.tokens[:, -1].tolist()

    def test_cuts_to_the_kth_best(self):
        f = np.full((2, V), -3.0, dtype=np.float32)
        f[0, [4, 6, 9]] = [1.0, 2.0, 3.0]
        f[1, 5] = 2.5
        assert self.step(f, [0.0, 0.0], 3) == [9, 5, 6]
        both = NoConstraint(V).join([NoConstraint(V)] * 2)
        rows, words = both.allowed_mask(f=f, seg=np.zeros(2), k=3)
        assert sorted(zip(rows.tolist(), words.tolist())) == \
            [(0, 4), (0, 6), (0, 9)] + [(1, w) for w in range(V)]

    def test_float32_f_under_a_seg_score_near_2_60(self):
        f = np.full((1, V), -1000.0, dtype=np.float32)
        f[0, 7], f[0, 4] = 1.0, 0.5
        # 2**60 + 1 == 2**60 + 0.5 in float64: word 4 ties and wins
        assert self.step(f, [2.0 ** 60], 1) == [4]
        assert self.step(f, [0.0], 1) == [7]

    def test_float64_f_that_round_to_a_tie(self):
        f = np.full((1, V), -1.0)
        f[0, 9], f[0, 5] = 2.0 ** -53, 2.0 ** -54
        # both sums round to 1.0; the lower word wins
        assert self.step(f, [1.0], 1) == [5]
        assert self.step(f, [0.0], 1) == [9]


class TestInterleavedRows:
    @pytest.mark.parametrize("kind", ["none", "perm", "arc"])
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25)
    def test_same_successors_as_grouped_rows(self, kind, seed):
        k = int(np.random.default_rng(seed).integers(1, 7))
        sentences, f = random_sentences(kind, k, seed)
        grouped = as_beam(sentences)
        # interleave the sentences, each keeping the order of its own rows
        # (parent order breaks ties)
        slot = np.random.default_rng(seed + 1).permutation(len(grouped))
        for b in range(len(sentences)):
            mine = grouped.sent == b
            slot[mine] = np.sort(slot[mine])
        perm = np.argsort(slot)
        want, want_parents = beam_step(grouped, f, k)
        # the shuffled beam's row i is grouped row perm[i], scored by f[perm[i]]
        got, got_parents = beam_step(grouped.select(perm), f, k, rows=perm)
        assert np.all(np.diff(got.sent) >= 0)
        assert perm[got_parents].tolist() == want_parents.tolist()
        for name in ("tokens", "seg_score", "last_f", "sent"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert np.array_equal(successor_mask(got.constraint, len(got)),
                              successor_mask(want.constraint, len(want)))


def toy_model(tgt_vocab=6, seed=0):
    cfg = ModelConfig(src_vocab=6, tgt_vocab=tgt_vocab, d_emb=3, d_h=4)
    return Seq2SeqModel(cfg, rng=np.random.default_rng(seed), dtype=np.float64)


def brute_force_best(model, enc, max_len, bos, eos, vocab, blocked):
    """Enumerate every EOS-terminated sequence up to max_len and rescore it
    from scratch with teacher forcing; return the best by (score, tokens)."""
    best = None
    allowed = [w for w in range(vocab) if w not in blocked and w != eos]
    for length in range(1, max_len + 1):
        for body in itertools.product(allowed, repeat=length - 1):
            seq = tuple(body) + (eos,)
            state = model.init_state(enc)
            total = 0.0
            for t, w in enumerate(seq):
                in_w = bos if t == 0 else seq[t - 1]
                out, _ = model.decode_step(state, [in_w], enc, step=t)
                total = total + float(model.score_f(out)[0, w])
                state = out.state
            if best is None or total > best[0]:
                best = (total, seq)
    return best


class TestBeamDecode:
    def test_greedy_equals_k1(self):
        model = toy_model()
        enc = model.encode(np.array([[1, 2, 3]]))
        toks = beam_decode(model, enc, 1, NoConstraint(6, blocked=(PAD_ID, BOS_ID)),
                           5, BOS_ID, EOS_ID)
        # replicate greedy stepping manually
        state = model.init_state(enc)
        manual = []
        w = BOS_ID
        for t in range(5):
            out, _ = model.decode_step(state, [w], enc, step=t)
            f = model.score_f(out)[0]
            f[[PAD_ID, BOS_ID]] = -np.inf
            w = int(np.argmax(f))
            manual.append(w)
            if w == EOS_ID:
                break
            state = out.state
        assert list(toks) == manual

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_huge_beam_equals_brute_force(self, seed):
        model = toy_model(tgt_vocab=4 + 2, seed=seed)
        # vocab ids: 0=pad 1=unk 2=bos 3=eos 4,5 words; block pad/unk/bos
        enc = model.encode(np.array([[1, 2]]))
        blocked = (0, 1, 2)
        [(toks, score)] = beam_search(
            model, enc, 64, [NoConstraint(6, blocked=blocked)], [3], BOS_ID, EOS_ID)
        best_score, best_seq = brute_force_best(model, enc, 3, BOS_ID, EOS_ID,
                                                6, blocked)
        assert tuple(toks) == best_seq
        assert score == pytest.approx(best_score, abs=1e-9)

    def test_permutation_output_is_permutation(self):
        model = toy_model(tgt_vocab=8, seed=7)
        src = [2, 4, 5, 5]
        enc = model.encode(np.array([src]))
        toks = beam_decode(model, enc, 3,
                           PermutationConstraint(8, src, EOS_ID),
                           len(src) + 1, BOS_ID, EOS_ID)
        assert toks[-1] == EOS_ID
        assert sorted(toks[:-1]) == sorted(src)

    def test_decode_error_when_stuck(self):
        model = toy_model(tgt_vocab=6)
        enc = model.encode(np.array([[1]]))

        class Stuck:
            def allowed_mask(self, *args, **kwargs):
                return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)

            def advance(self, w):
                return self

            def select(self, rows):
                return self

        with pytest.raises(DecodeError):
            beam_decode(model, enc, 2, Stuck(), 4, BOS_ID, EOS_ID)

    def test_nan_scores_raise(self):
        model = toy_model(seed=3)
        model.params["out.w"].value[...] = np.nan
        enc = model.encode(np.array([[2, 3, 4]]))
        with pytest.raises(NonFiniteScoreError, match="step 1"):
            beam_decode(model, enc, 4, NoConstraint(6, blocked=(PAD_ID, BOS_ID)), 6,
                        BOS_ID, EOS_ID)

    def test_deterministic(self):
        model = toy_model(seed=3)
        enc = model.encode(np.array([[2, 3, 4]]))
        c = NoConstraint(6, blocked=(PAD_ID, BOS_ID))
        a = beam_decode(model, enc, 4, c, 6, BOS_ID, EOS_ID)
        b = beam_decode(model, enc, 4, c, 6, BOS_ID, EOS_ID)
        assert a == b


def search_constraint(kind, src):
    if kind == "none":
        return NoConstraint(V, blocked=(PAD_ID, BOS_ID))
    if kind == "perm":
        return PermutationConstraint(V, src, EOS_ID)
    return ArcStandardConstraint(V, src, REDUCE, EOS_ID)


class TestBeamSearch:
    """Lockstep search over a padded batch against each sentence alone."""

    # Batch size moves float32 f in its last bit, so candidates whose
    # scores are this close may trade places; every other decode is equal
    TIE = 1e-4

    @pytest.mark.parametrize("kind", ["none", "perm", "arc"])
    @pytest.mark.parametrize("seed", range(12))
    def test_batch_matches_per_sentence_decoding(self, kind, seed):
        rng = np.random.default_rng(seed)
        model = Seq2SeqModel(ModelConfig(src_vocab=V, tgt_vocab=V, d_emb=4, d_h=6),
                             rng=rng, dtype=np.float32)
        srcs = [rng.integers(4, 8, size=rng.integers(1, 6)).tolist()
                for _ in range(int(rng.integers(1, 9)))]
        # some below what a complete sequence needs: those end incomplete
        max_lens = [int(rng.integers(1, 2 * len(s) + 3)) for s in srcs]
        k = int(rng.integers(1, 6))
        got = beam_search(model, model.encode(*pad_ids(srcs)), k,
                          [search_constraint(kind, s) for s in srcs], max_lens, BOS_ID, EOS_ID)
        assert len(got) == len(srcs)
        for src, max_len, (tokens, score) in zip(srcs, max_lens, got):
            enc = model.encode(np.array([src]))
            want = beam_decode(model, enc, k, search_constraint(kind, src), max_len,
                               BOS_ID, EOS_ID)
            assert 1 <= len(tokens) <= max_len
            mine = sum(rescore_prefix(model, enc, tokens, BOS_ID)[0])
            assert score == pytest.approx(mine, abs=self.TIE)
            if tokens != want:
                assert mine == pytest.approx(sum(rescore_prefix(model, enc, want, BOS_ID)[0]),
                                             abs=self.TIE)

    def test_stuck_sentence_is_named(self):
        model = toy_model(tgt_vocab=V)
        # an empty arc-standard source allows nothing, not even EOS
        sources = [[4, 5], [], [5]]
        enc = model.encode(np.array([[1, 2], [1, 0], [3, 0]]), np.array([2, 1, 1]))
        with pytest.raises(DecodeError, match="sentence 1") as err:
            beam_search(model, enc, 3, [search_constraint("arc", s) for s in sources],
                        [5, 5, 5], BOS_ID, EOS_ID)
        assert err.value.sentence == 1

    def test_non_finite_row_is_named(self):
        model = toy_model(tgt_vocab=V)
        enc = model.encode(np.array([[1, 2], [2, 3], [3, 4]]))
        enc.annotations[1] = np.nan
        with pytest.raises(NonFiniteScoreError, match="step 1 of sentence 1") as err:
            beam_search(model, enc, 2, [search_constraint("none", [])] * 3, [4, 4, 4],
                        BOS_ID, EOS_ID)
        assert (err.value.step, err.value.sentence) == (1, 1)

    @pytest.mark.parametrize("max_lens", [[3], [0, 2], [2, 2, 2]])
    def test_needs_one_positive_max_len_per_sentence(self, max_lens):
        model = toy_model()
        enc = model.encode(np.array([[1, 2], [2, 3]]))
        with pytest.raises(ValueError, match="max_len"):
            beam_search(model, enc, 2, [NoConstraint(6)] * 2, max_lens, BOS_ID, EOS_ID)
