import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bso import beam as beam_mod
from bso import tasks
from bso.beam import (ArcStandardConstraint, Beam, ConstraintError, DecodeError,
                      NonFiniteScoreError, NoConstraint, PermutationConstraint,
                      beam_decode, beam_step, join_constraints, top_k, validate_gold)
from bso.model import ModelConfig, Seq2SeqModel
from bso.tasks import BOS_ID, EOS_ID, PAD_ID
from oracles import Hypothesis, reference_beam_step

V = 10


def successors(constraint):
    """The successor set of a constraint state, as sorted word ids."""
    return np.flatnonzero(constraint.allowed_mask()).tolist()


class TestSuccUnconstrained:
    def test_count_excludes_reserved(self):
        assert successors(NoConstraint(5, blocked=(0, 2))) == [1, 3, 4]

    def test_beam_union_size(self):
        valid = np.stack([NoConstraint(5).allowed_mask() for _ in range(3)])
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

    def test_illegal_advance_raises(self):
        c = PermutationConstraint(V, [4], EOS_ID)
        with pytest.raises(ConstraintError):
            c.advance(5)
        with pytest.raises(ConstraintError):
            c.advance(EOS_ID)

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
            allowed = list(np.flatnonzero(c.allowed_mask()))
            w = rnd.choice(allowed)
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
                allowed = list(np.flatnonzero(c.allowed_mask()))
                for w in allowed:
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

    def test_error_names_the_offending_row(self):
        c = join_constraints([PermutationConstraint(V, [], EOS_ID),
                              PermutationConstraint(V, [4], EOS_ID)])
        with pytest.raises(ConstraintError, match="word 5 not among") as err:
            c.advance([EOS_ID, 5])
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
        assert np.array_equal(both.allowed_mask(), np.concatenate([a.allowed_mask(),
                                                                   b.allowed_mask()]))
        c = both.advance([8, 6])
        assert successors(c.select([0])) == [EOS_ID]
        assert successors(c.select([1])) == [EOS_ID]


def pairs(picks):
    parents, words = picks
    return list(zip(parents.tolist(), words.tolist()))


class TestTopK:
    def test_keep_all_when_k_large(self):
        scores = np.array([[1.0, 2.0, 3.0]])
        picks = pairs(top_k(scores, np.ones_like(scores, dtype=bool), 10))
        assert len(picks) == 3
        assert picks[0] == (0, 2)

    def test_descending_selection(self):
        scores = np.array([[1.0, 5.0], [3.0, 2.0]])
        picks = pairs(top_k(scores, np.ones_like(scores, dtype=bool), 2))
        assert picks == [(0, 1), (1, 0)]

    def test_tie_break_word_then_parent(self):
        scores = np.array([[2.0, 2.0], [2.0, 1.0]])
        picks = pairs(top_k(scores, np.ones_like(scores, dtype=bool), 3))
        assert picks == [(0, 0), (1, 0), (0, 1)]

    def test_segments_rank_apart(self):
        scores = np.array([[2.0, 2.0], [2.0, 1.0], [0.0, 3.0], [5.0, 5.0]])
        valid = np.ones_like(scores, dtype=bool)
        picks = pairs(top_k(scores, valid, 2, segments=np.array([0, 0, 1, 2])))
        assert picks == [(0, 0), (1, 0), (2, 1), (2, 0), (3, 0), (3, 1)]

    def test_matches_stable_sort_prefix(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores = rng.integers(0, 4, size=(3, 5)).astype(float)
            valid = rng.random((3, 5)) > 0.3
            items = sorted(
                [(-scores[p, w], w, p) for p in range(3) for w in range(5)
                 if valid[p, w]])
            expect = [(p, w) for _, w, p in items][:4]
            assert pairs(top_k(scores, valid, 4)) == expect

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_k(np.zeros((1, 2)), np.ones((1, 2), dtype=bool), 0)


def as_beam(sentences):
    """One Beam holding per-sentence lists of reference Hypothesis objects."""
    rows = [(b, h) for b, hyps in enumerate(sentences) for h in hyps]
    return Beam(np.array([h.tokens for _, h in rows], dtype=np.int64).reshape(len(rows), -1),
                np.array([h.score for _, h in rows]),
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
        assert succ.score.tolist() == [2.5, 2.5, 2.25]
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
        counting(PermutationConstraint, "allowed_mask")
        counting(PermutationConstraint, "advance")
        counting(beam_mod, "top_k")
        beam, _ = beam_step(beam, rng.normal(size=(len(beam), V)), 4)
        beam, _ = beam_step(beam, rng.normal(size=(len(beam), V)), 4)
        assert len(beam) == 12
        # 12 rows fit one chunk: one top_k call per step for all 3 sentences
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
        allowed = np.flatnonzero(c.allowed_mask())
        if not allowed.size:
            break
        c = c.advance(int(rng.choice(allowed)))
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
    @pytest.mark.parametrize("cut_first", [False, True])
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15)
    def test_successors_equal_reference(self, kind, k, cut_first, seed):
        sentences, f = random_sentences(kind, k, seed)
        # cut_first: top_k cuts every row to its K best before sorting,
        # which it does on its own only for large frontiers
        with mock.patch.object(beam_mod, "PREFILTER", 0 if cut_first else beam_mod.PREFILTER):
            succ, parents = beam_step(as_beam(sentences), f, k)
        masks = succ.constraint.allowed_mask()
        lo = 0
        for b, hyps in enumerate(sentences):
            ref, ref_rows = reference_beam_step(hyps, f[lo:lo + len(hyps)].astype(np.float64), k)
            mine = np.flatnonzero(succ.sent == b)
            assert succ.tokens[mine].tolist() == [list(h.tokens) for h in ref]
            assert (parents[mine] - lo).tolist() == ref_rows
            for name in ("seg_score", "score", "last_f"):
                want = np.array([getattr(h, name) for h in ref], dtype=np.float64)
                assert getattr(succ, name)[mine].tobytes() == want.tobytes()
            want = np.array([h.constraint.allowed_mask()[0] for h in ref], dtype=bool)
            assert np.array_equal(masks[mine], want.reshape(len(ref), V))
            lo += len(hyps)
        assert np.all(np.diff(succ.sent) >= 0)


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
        toks, score = beam_decode(
            model, enc, 64, NoConstraint(6, blocked=blocked), 3, BOS_ID, EOS_ID,
            return_score=True)
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
            def allowed_mask(self):
                return np.zeros((1, 6), dtype=bool)

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
