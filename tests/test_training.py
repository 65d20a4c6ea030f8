import copy
import tracemalloc
import types

import numpy as np
import pytest

from bso import beam as beam_mod
from bso import nn, training
from bso.beam import NonFiniteScoreError, NoConstraint, PermutationConstraint
from bso.model import MaskSet, ModelConfig, Seq2SeqModel
from bso.tasks import pad_ids
from bso.training import (TrainConfig, ViolationRecord,
                          bso_backward, bso_forward, curriculum_beam, delta_01,
                          delta_sentence_bleu, make_batches, margin_loss,
                          optimizer_step, train_bso_epoch, train_xent_epoch)
import fingerprint
from gradcheck import max_relative_error, numerical_grad
from oracles import (bso_frozen_loss, grad_snapshot, naive_bso_backward,
                     oracle_bso_forward)

BOS = 2
EOS = 3


class TestDeltas:
    def test_zero_one(self):
        # a comparator equal to the gold segment is no mistake; bso_forward
        # charges it nothing before a cost function is asked (TestZeroCostRule)
        assert delta_01((4, 5), (5, 4)) == 1.0
        assert delta_01((7,), (4, 5)) == 1.0

    def test_sentence_bleu_identical_is_zero(self):
        assert delta_sentence_bleu((4, 5, 6), (4, 5, 6)) == 0.0

    def test_sentence_bleu_disjoint_near_one(self):
        d = delta_sentence_bleu((7, 8, 9), (4, 5, 6))
        assert 0.9 < d <= 1.0

    def test_sentence_bleu_partial_overlap_in_between(self):
        d = delta_sentence_bleu((4, 5, 9), (4, 5, 6))
        assert 0.0 < d < 1.0


class TestMarginLoss:
    def rec(self, g, v, delta=1.0):
        return ViolationRecord(t=1, r=0, violating_tokens=(5,), gold_score=g, viol_score=v,
                               delta=delta, sentence=0)

    def test_hand_value(self):
        # 1 * (1 - 2.0 + 2.3) = 1.3
        assert margin_loss([self.rec(2.0, 2.3)]) == pytest.approx(1.3)

    def test_floored_at_zero(self):
        assert margin_loss([self.rec(5.0, 1.0)]) == 0.0

    def test_delta_scales(self):
        assert margin_loss([self.rec(2.0, 2.3, delta=0.5)]) == pytest.approx(0.65)

    def test_sums_over_records(self):
        recs = [self.rec(2.0, 2.3), self.rec(0.0, 0.5)]
        assert margin_loss(recs) == pytest.approx(1.3 + 1.5)


class TestCurriculum:
    def test_schedule_values(self):
        config = TrainConfig(k_tr=6)
        sizes = [curriculum_beam(e, config) for e in range(1, 12)]
        assert sizes == [2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 6]

    def test_capped_at_target(self):
        config = TrainConfig(k_tr=3)
        assert curriculum_beam(50, config) == 3

    def test_small_target_starts_capped(self):
        config = TrainConfig(k_tr=2)
        assert curriculum_beam(1, config) == 2

    def test_epochs_one_indexed(self):
        with pytest.raises(ValueError):
            curriculum_beam(0, TrainConfig(k_tr=4))


# ---------------------------------------------------------------------------
# Scripted-score scenario: exercises violation detection, LaSO resets and the
# final-step comparator without any neural net in the way.


class ScriptedState:
    """The input-word history and sentence of each row and, after a step,
    its scores."""

    def __init__(self, prefixes, src, scores=None):
        self.prefixes = list(prefixes)
        self.src = np.asarray(src)
        self.scores = scores

    def select(self, rows):
        return ScriptedState([self.prefixes[r] for r in rows], self.src[rows])


# the encoding of a scripted model: its start state is the empty history
SCRIPTED_ENC = types.SimpleNamespace(init_state=ScriptedState([()], [0]))


class ScriptedModel:
    """score_f is a lookup table keyed by the input-word history (BOS first);
    unlisted words score `default`."""

    def __init__(self, table, vocab, default=-10.0):
        self.config = types.SimpleNamespace(tgt_vocab=vocab)
        self.table = table
        self.default = default

    def decode_step(self, state, words, enc):
        prefixes = [state.prefixes[i] + (int(w),) for i, w in enumerate(words)]
        rows = np.full((len(prefixes), self.config.tgt_vocab), self.default)
        for i, p in enumerate(prefixes):
            for w, val in self.table.get(p, {}).items():
                rows[i, w] = val
        return ScriptedState(prefixes, state.src, rows), {"prefixes": prefixes}

    def score_f(self, state):
        return state.scores.copy()


A, B, C, D = 4, 5, 6, 7


def scripted_table(d_eos=3.2, gold_eos=1.0):
    return {
        (BOS,): {A: 5.0, B: 3.0},
        (BOS, A): {B: 4.0},
        (BOS, B): {C: 8.0, D: 7.0},
        (BOS, A, B): {C: 3.0, D: 1.5},
        (BOS, A, B, C): {EOS: gold_eos, D: 0.5},
        (BOS, A, B, D): {EOS: d_eos},
    }


def run_scripted(table, k=2):
    model = ScriptedModel(table, vocab=8)
    return bso_forward(model, enc=SCRIPTED_ENC, golds=[(A, B, C, EOS)], k_tr=k,
                       constraints=[NoConstraint(8, blocked=(0, 1, 2))],
                       delta_fn=delta_01, bos_id=BOS)


class TestScriptedForward:
    def test_two_violations_with_reset(self):
        fwd = run_scripted(scripted_table())
        assert len(fwd.records) == 2
        r1, r2 = fwd.records
        # t=2: gold segment (A,B)=9 loses to (B,D)=10 on the margin
        assert (r1.t, r1.r) == (2, 0)
        assert r1.violating_tokens == (B, D)
        assert r1.gold_score == pytest.approx(9.0)
        assert r1.viol_score == pytest.approx(10.0)
        # reset at r=2; no violation at t=3; final-step comparator is the
        # top-ranked non-gold hypothesis (A,B,D,EOS)
        assert (r2.t, r2.r) == (4, 2)
        assert r2.violating_tokens == (D, EOS)
        assert r2.gold_score == pytest.approx(4.0)
        assert r2.viol_score == pytest.approx(4.7)
        assert margin_loss(fwd.records) == pytest.approx(3.7)

    def test_final_comparator_skips_top_ranked_gold(self):
        # gold outranks everything at t=T yet still pays a margin violation
        # against the best non-gold hypothesis
        fwd = run_scripted(scripted_table(d_eos=1.4))
        r2 = fwd.records[-1]
        assert (r2.t, r2.r) == (4, 2)
        assert r2.violating_tokens == (C, D)
        assert r2.viol_score == pytest.approx(3.5)
        assert r2.gold_score == pytest.approx(4.0)

    def test_no_final_violation_when_margin_met(self):
        fwd = run_scripted(scripted_table(d_eos=1.4, gold_eos=2.0))
        assert [rec.t for rec in fwd.records] == [2]

    def test_matches_oracle_on_scripted_model(self):
        model = ScriptedModel(scripted_table(), vocab=8)
        got = oracle_bso_forward(model, SCRIPTED_ENC, (A, B, C, EOS), 2,
                                 NoConstraint(8, blocked=(0, 1, 2)),
                                 delta_01, BOS)
        fwd = run_scripted(scripted_table())
        assert [(r["t"], r["r"], r["viol_tokens"]) for r in got] == \
            [(r.t, r.r, r.violating_tokens) for r in fwd.records]


# ---------------------------------------------------------------------------
# Random-model equivalence with the from-scratch-rescoring oracle


def toy_model(seed, dtype=np.float32, tgt_vocab=5, d_emb=3, d_h=4, layers=1):
    cfg = ModelConfig(src_vocab=5, tgt_vocab=tgt_vocab, d_emb=d_emb, d_h=d_h, layers=layers)
    return Seq2SeqModel(cfg, rng=np.random.default_rng(seed), dtype=dtype)


def random_case(seed, tgt_vocab=5):
    """Model, source, gold, beam size and constraint for one random trial."""
    rng = np.random.default_rng(seed)
    model = toy_model(seed, tgt_vocab=tgt_vocab)
    src = rng.integers(1, 5, size=rng.integers(1, 4))
    k = int(rng.integers(1, 4))
    if seed % 2 == 0:
        t_len = int(rng.integers(1, 6))
        gold = tuple(int(w) for w in rng.choice([1, 3, 4], size=t_len))
        constraint = NoConstraint(tgt_vocab, blocked=(0, 2))
    else:
        words = [int(w) for w in rng.choice([1, 4], size=rng.integers(1, 5))]
        perm = list(words)
        rng.shuffle(perm)
        gold = tuple(perm) + (EOS,)
        constraint = PermutationConstraint(tgt_vocab, words, EOS)
    return model, src, gold, k, constraint


class TestForwardOracle:
    def check(self, seed, margin_score):
        model, src, gold, k, constraint = random_case(seed)
        enc = model.encode(np.asarray(src)[None, :])
        fwd = bso_forward(model, enc, [gold], k, [constraint], delta_01, BOS,
                          margin_score=margin_score)
        want = oracle_bso_forward(model, enc, gold, k, constraint, delta_01, BOS,
                                  margin_score=margin_score)
        assert fwd.margin_score == margin_score
        assert len(fwd.records) == len(want)
        for rec, ref in zip(fwd.records, want):
            assert (rec.t, rec.r) == (ref["t"], ref["r"])
            assert rec.violating_tokens == ref["viol_tokens"]
            # float32 scores accumulated in float64 in the same order are
            # bitwise identical to from-scratch rescoring
            assert rec.gold_score == ref["gold_score"]
            assert rec.viol_score == ref["viol_score"]
            assert rec.delta == ref["delta"]

    @pytest.mark.parametrize("seed", range(40))
    def test_records_match_exactly(self, seed):
        self.check(seed, "cumulative")

    @pytest.mark.parametrize("seed", range(40))
    def test_laststep_records_match_exactly(self, seed):
        self.check(seed, "laststep")


class TestMarginScore:
    def test_misspelt_margin_score_does_not_train(self):
        # a misspelt rule must not fall back to the cumulative margin
        model = toy_model(2, dtype=np.float32)
        before = {s.name: s.value.copy() for s in model.slots()}
        examples = TestEpochDrivers().bso_examples(np.random.default_rng(5))
        config = TrainConfig(batch_size=6, margin_score="last_step")
        with pytest.raises(ValueError, match="unknown margin_score 'last_step'"):
            train_bso_epoch(model, examples, config, 1, np.random.default_rng(3), BOS)
        assert all(np.array_equal(s.value, before[s.name]) for s in model.slots())


class TestZeroCostRule:
    """A comparator that is the gold segment costs nothing, whatever the
    cost function: it is no mistake."""

    @staticmethod
    def always_one(viol, gold):
        return 1.0

    def test_scripted_gold_comparators(self):
        # with K=1 the gold prefix is the one successor at steps 1-3, so each
        # step records it as its own comparator and resets
        model = ScriptedModel(scripted_table(), vocab=8)
        fwd = bso_forward(model, SCRIPTED_ENC, [(A, B, C, EOS)], 1,
                          [NoConstraint(8, blocked=(0, 1, 2))], self.always_one, BOS)
        gold_comparators = [rec for rec in fwd.records
                            if rec.violating_tokens == fwd.gold_tokens[0][rec.r:rec.t]]
        assert [(rec.t, rec.r) for rec in gold_comparators] == [(1, 0), (2, 1), (3, 2)]
        assert [rec.delta for rec in gold_comparators] == [0.0, 0.0, 0.0]
        assert margin_loss(gold_comparators) == 0.0

    def test_any_cost_function(self):
        zero = 0
        for seed in range(12):
            model, src, lengths, _, golds, k, constraints = random_batch(seed)
            fwd = bso_forward(model, model.encode(src, lengths), golds, k, constraints,
                              self.always_one, BOS)
            for rec in fwd.records:
                same = rec.violating_tokens == fwd.gold_tokens[rec.sentence][rec.r:rec.t]
                assert rec.delta == (0.0 if same else 1.0)
                zero += same
        assert zero > 0



class TestNonFinite:
    def test_nan_scores_raise_in_forward(self):
        # every margin comparison with NaN is False, so without the check a
        # diverged model reports no violations and zero loss
        model, src, gold, k, constraint = random_case(1)
        model.params["out.w"].value[...] = np.nan
        enc = model.encode(np.asarray(src)[None, :])
        with pytest.raises(NonFiniteScoreError, match="step 1"):
            bso_forward(model, enc, [gold], k, [constraint], delta_01, BOS)

    def test_gold_row_non_finite_at_non_reseed_step_raises(self):
        # under the last-step margin the gold prefix (A, B) drops off the
        # beam at t=2 without a violation; at t=3 only its row scores NaN,
        # while the beam rows search from (D, *) stay finite
        table = {
            (BOS,): {D: 9.0, A: 5.0, C: 3.0},
            (BOS, D): {B: 0.0, A: -0.5, C: -1.0},
            (BOS, A): {B: 1.0},
            (BOS, A, B): {EOS: np.nan},
        }
        model = ScriptedModel(table, vocab=8)
        with pytest.raises(NonFiniteScoreError, match="step 3") as err:
            bso_forward(model, SCRIPTED_ENC, [(A, B, EOS)], 3,
                        [NoConstraint(8, blocked=(0, 1, 2))], delta_01, BOS,
                        margin_score="laststep")
        assert err.value.sentence == 0

    def test_gold_row_named_by_its_sentence_once_earlier_ones_finished(self):
        # sentence 0 ends at t=2, so at t=3 sentence 2's gold row, the only
        # one that scores NaN, is row 1 of the step
        model = ScriptedModel({(BOS, B, C): {D: np.nan}}, vocab=8)
        enc = types.SimpleNamespace(init_state=ScriptedState([()] * 3, [0, 1, 2]))
        with pytest.raises(NonFiniteScoreError,
                           match="sentence 2: non-finite f-scores at output step 3$") as err:
            bso_forward(model, enc, [(A, EOS), (A, B, C, EOS), (B, C, D, EOS)], 2,
                        [NoConstraint(8, blocked=(0, 1, 2))] * 3, delta_01, BOS)
        assert err.value.sentence == 2

    def test_error_names_the_sentence(self):
        model = toy_model(3, dtype=np.float64)
        src = np.array([[1, 2, 0], [2, 3, 2], [1, 4, 3]])
        golds = [(1, 3), (4, 1, 3), (3, 3)]
        constraints = [NoConstraint(5, blocked=(0, 2))] * 3
        # source word 4 occurs in sentence 2 only
        model.params["src_embed"].value[4] = np.nan
        enc = model.encode(src, lengths=np.array([2, 3, 3]))
        with pytest.raises(NonFiniteScoreError,
                           match="sentence 2: non-finite f-scores at output step 1$") as err:
            bso_forward(model, enc, golds, 2, constraints, delta_01, BOS)
        assert err.value.sentence == 2

    def test_optimizer_step_rejects_non_finite_gradient_norm(self):
        model = toy_model(0)
        model.params["dec0.b"].grad[0] = np.inf
        before = {n: s.value.copy() for n, s in model.params.items()}
        with pytest.raises(FloatingPointError, match="gradient norm"):
            optimizer_step(model, TrainConfig())
        for name, slot in model.params.items():
            assert np.array_equal(slot.value, before[name])


# ---------------------------------------------------------------------------
# Lockstep batches: the same records and gradients as one sentence at a time


def random_batch(seed):
    """A float64 model and 3-5 random_case sentences, padded into a batch.

    The constraints of one batch must be of one class, so an even seed
    draws unconstrained cases and an odd one permutation cases."""
    rng = np.random.default_rng(seed)
    model = toy_model(seed, dtype=np.float64)
    _, _, _, k, _ = random_case(seed)
    cases = [random_case(seed * 10 + 2 * i + seed % 2)[1:]
             for i in range(int(rng.integers(3, 6)))]
    srcs = [np.asarray(src) for src, _, _, _ in cases]
    lengths = np.array([len(s) for s in srcs])
    src = np.zeros((len(srcs), lengths.max()), dtype=np.int64)
    for b, s in enumerate(srcs):
        src[b, :len(s)] = s
    golds = [gold for _, gold, _, _ in cases]
    constraints = [c for _, _, _, c in cases]
    return model, src, lengths, srcs, golds, k, constraints


def varying_delta(viol_tokens, gold_tokens):
    """A cost that differs between the records of one batch."""
    return 1.0 + 0.1 * viol_tokens[-1]


def sentence_records(fwd, b):
    return [(r.t, r.r, r.violating_tokens, r.delta) for r in fwd.records if r.sentence == b]


class TestLockstepBatch:
    @pytest.mark.parametrize("seed", range(12))
    def test_forward_equals_batches_of_one(self, seed):
        model, src, lengths, srcs, golds, k, constraints = random_batch(seed)
        assert len(set(len(g) for g in golds)) > 1 or len(set(lengths)) > 1
        enc = model.encode(src, lengths)
        fwd = bso_forward(model, enc, golds, k, constraints, delta_01, BOS)
        assert [r.sentence for r in fwd.records] == sorted(r.sentence for r in fwd.records)
        for b, s in enumerate(srcs):
            one = bso_forward(model, model.encode(s[None, :]), [golds[b]], k,
                              [constraints[b]], delta_01, BOS)
            assert sentence_records(fwd, b) == sentence_records(one, 0)
            mine = [r for r in fwd.records if r.sentence == b]
            for rec, ref in zip(mine, one.records):
                assert rec.gold_score == pytest.approx(ref.gold_score, rel=1e-12, abs=1e-12)
                assert rec.viol_score == pytest.approx(ref.viol_score, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    # delta_sentence_bleu gives these batches no fractional cost: a cost that
    # differs from record to record fails a step scaled by another record's
    @pytest.mark.parametrize("margin_score, delta_fn", [
        ("cumulative", delta_01), ("laststep", delta_01),
        ("cumulative", varying_delta), ("laststep", varying_delta)],
        ids=["cumulative", "laststep", "cumulative-varying_delta", "laststep-varying_delta"])
    def test_backward_equals_sum_of_naive_bptt(self, seed, margin_score, delta_fn):
        model, src, lengths, srcs, golds, k, constraints = random_batch(seed)
        enc = model.encode(src, lengths)
        fwd = bso_forward(model, enc, golds, k, constraints, delta_fn, BOS,
                          margin_score=margin_score)
        model.zero_grads()
        bso_backward(model, fwd)
        batched = grad_snapshot(model)
        model.zero_grads()
        for b, s in enumerate(srcs):
            one = bso_forward(model, model.encode(s[None, :]), [golds[b]], k,
                              [constraints[b]], delta_fn, BOS, margin_score=margin_score)
            assert sentence_records(fwd, b) == sentence_records(one, 0)
            naive_bso_backward(model, s[None, :], one, BOS)
        worst = max(max_relative_error(batched[s.name], s.grad) for s in model.slots())
        assert worst < 1e-6

    @pytest.mark.parametrize("margin_score", ["cumulative", "laststep"])
    @pytest.mark.parametrize("constrained", [True, False], ids=["perm-zero_one",
                                                                "free-sentence_bleu"])
    def test_multi_step_segments_equal_naive_bptt(self, constrained, margin_score):
        """The untrained models of random_batch violate at once, so their
        segments are one step long. The fingerprint's start model, trained
        for two cross-entropy epochs, holds longer ones: violating rows of
        their own past the first step, and gold rows kept past an earlier
        segment of their sentence."""
        rng = np.random.default_rng(7)
        pairs = fingerprint.corpus(rng, 160)
        model = fingerprint.start_model(1, pairs, 7).astype(np.float64)
        batch = pairs[:8]
        src, lengths = pad_ids([s for s, _ in batch])
        golds = [tuple(int(w) for w in t) for _, t in batch]
        vocab = fingerprint.VOCAB
        constraints = [PermutationConstraint(vocab, s, EOS) if constrained
                       else NoConstraint(vocab, blocked=(0, BOS)) for s, _ in batch]
        delta_fn = delta_01 if constrained else delta_sentence_bleu
        fwd = bso_forward(model, model.encode(src, lengths), golds, 6, constraints, delta_fn,
                          BOS, margin_score=margin_score)
        long = [rec for rec in fwd.records if rec.delta != 0.0 and rec.t - rec.r >= 2]
        assert len({rec.sentence for rec in long}) >= 2
        assert any(rec.r > 0 for rec in long)
        model.zero_grads()
        bso_backward(model, fwd)
        batched = grad_snapshot(model)
        model.zero_grads()
        for b, (s, _) in enumerate(batch):
            s = np.asarray(s)[None, :]
            one = bso_forward(model, model.encode(s), [golds[b]], 6, [constraints[b]],
                              delta_fn, BOS, margin_score=margin_score)
            assert sentence_records(fwd, b) == sentence_records(one, 0)
            naive_bso_backward(model, s, one, BOS)
        worst = max(max_relative_error(batched[s.name], s.grad) for s in model.slots())
        assert worst < 1e-6

    def test_backward_recomputes_only_the_rows_that_take_gradient(self):
        """Step t of the recompute holds one gold row per sentence whose last
        record with delta != 0 ends at t or later, plus one violating row per
        such record with r + 1 < t <= rec.t: the O(T) row economy, which the
        gradient oracles cannot see. Search on these untrained models
        violates at once, so long segments come from hand-made records."""
        cases = []
        for seed in range(12):
            model, src, lengths, _, golds, k, constraints = random_batch(seed)
            cases.append((model, bso_forward(model, model.encode(src, lengths), golds, k,
                                             constraints, delta_01, BOS)))
        model = toy_model(0)
        src, lengths = pad_ids([[1, 2, 3], [4, 1], [2, 2, 4, 1]])
        golds = [(1, 3, 4, 4, 1, 3), (4, 3, 1, 3), (3, 1, 4, 1, 4)]
        records = [ViolationRecord(2, 0, (4, 1), 0.5, 0.2, 1.0, sentence=0),
                   ViolationRecord(3, 2, (4,), 0.1, 0.4, 0.0, sentence=0),
                   ViolationRecord(6, 3, (3, 3, 4), 0.3, 0.6, 0.5, sentence=0),
                   ViolationRecord(1, 0, (1,), 0.2, 0.7, 0.0, sentence=1),
                   ViolationRecord(4, 1, (1, 4, 3), 0.4, 0.9, 1.0, sentence=2)]
        cases.append((model, training.ForwardResult(records, golds, model.encode(src, lengths),
                                                    BOS, "cumulative")))
        for model, fwd in cases:
            recs = [rec for rec in fwd.records if rec.delta != 0.0]
            last = {}
            for rec in recs:
                last[rec.sentence] = max(last.get(rec.sentence, 0), rec.t)
            rows, real = [], model.decode_step

            def counting(state, words, enc):
                rows.append(len(words))
                return real(state, words, enc)
            model.decode_step = counting
            bso_backward(model, fwd)
            assert len(rows) == max(last.values(), default=0)
            for t, n in enumerate(rows, start=1):
                assert n == sum(end >= t for end in last.values()) + \
                    sum(rec.r + 1 < t <= rec.t for rec in recs)
        assert rows == [2, 3, 3, 3, 2, 2]

    def test_some_batches_have_violations_in_several_sentences(self):
        hits = 0
        for seed in range(12):
            model, src, lengths, _, golds, k, constraints = random_batch(seed)
            fwd = bso_forward(model, model.encode(src, lengths), golds, k,
                              constraints, delta_01, BOS)
            hits += len({r.sentence for r in fwd.records if r.delta > 0}) >= 2
        assert hits >= 6

    @pytest.mark.parametrize("kind", ["none", "perm"])
    def test_search_ranks_the_batch_together(self, kind, monkeypatch):
        """One successor set, one advance and one top_k per step for the
        whole beam (plus one gold-word check and one advance per step
        validating the golds), never one per sentence or per hypothesis."""
        calls = {"top_k": 0, "allowed_mask": 0, "allows": 0, "advance": 0}

        def count(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        cls = NoConstraint if kind == "none" else PermutationConstraint
        count(beam_mod, "top_k")
        for name in ("allowed_mask", "allows", "advance"):
            count(cls, name)
        rng = np.random.default_rng(4)
        model = toy_model(4, dtype=np.float32)
        n, k = 16, 6
        srcs = [[int(w) for w in rng.choice([1, 4], size=rng.integers(2, 6))]
                for _ in range(n)]
        golds = [tuple(rng.permutation(s).tolist()) + (EOS,) for s in srcs]
        constraints = [NoConstraint(5, blocked=(0, 2)) if kind == "none"
                       else PermutationConstraint(5, s, EOS) for s in srcs]
        lengths = np.array([len(s) for s in srcs])
        src = np.zeros((n, lengths.max()), dtype=np.int64)
        for b, s in enumerate(srcs):
            src[b, :len(s)] = s
        fwd = bso_forward(model, model.encode(src, lengths), golds, k, constraints,
                          delta_01, BOS)
        assert fwd.records
        t_max = max(len(g) for g in golds)
        assert calls == {"top_k": t_max, "allowed_mask": t_max, "allows": t_max,
                         "advance": 2 * t_max}

    def test_epoch_minibatch_runs_in_lockstep(self):
        model = toy_model(2, dtype=np.float32)
        rng = np.random.default_rng(3)
        examples = TestEpochDrivers().bso_examples(np.random.default_rng(5), n=6)
        t_max = max(len(g) for _, g, _ in examples)
        calls = {"encode": 0, "decode_step": 0, "decode_step_backward": 0}

        def counting(name):
            fn = getattr(model, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            setattr(model, name, counting(name))
        stats = train_bso_epoch(model, examples, TrainConfig(batch_size=6), 1, rng, BOS)
        assert stats.violations > 0
        assert calls["encode"] == 1
        assert calls["decode_step"] <= 2 * t_max
        assert 0 < calls["decode_step_backward"] <= t_max


# ---------------------------------------------------------------------------
# Merged backward vs naive per-record BPTT, and finite differences


def two_layer_case(seed):
    """A float64 two-layer model, a random_case sentence and dropout masks
    between the layers, which zero some units. The decoder's
    backward rebuilds both layers' inputs: the embedded word and input
    feed below, the masked output of layer 0 above."""
    _, src, gold, k, constraint = random_case(seed)
    model = toy_model(seed, dtype=np.float64, layers=2)
    masks = MaskSet.build(0.5, 2, len(src), len(gold), np.random.default_rng(seed),
                          model.config.d_h, dtype=np.float64)
    assert (masks.masks == 0).any()
    return model, np.asarray(src)[None, :], gold, k, constraint, masks


class TestBackward:
    @pytest.mark.parametrize("seed", [0, 2, 4, 5, 6, 8, 12, 14])
    def test_merged_equals_naive_bptt(self, seed):
        model, src, gold, k, constraint = random_case(seed)
        model = toy_model(seed, dtype=np.float64)
        src_b = np.asarray(src)[None, :]
        enc = model.encode(src_b)
        fwd = bso_forward(model, enc, [gold], k, [constraint], delta_01, BOS)
        assert any(r.delta > 0 for r in fwd.records)
        model.zero_grads()
        bso_backward(model, fwd)
        merged = grad_snapshot(model)
        model.zero_grads()
        naive_bso_backward(model, src_b, fwd, BOS)
        worst = max(max_relative_error(merged[s.name], s.grad)
                    for s in model.slots())
        assert worst < 1e-6

    def test_merged_equals_naive_laststep(self):
        model = toy_model(4, dtype=np.float64)
        _, src, gold, k, constraint = random_case(4)
        src_b = np.asarray(src)[None, :]
        enc = model.encode(src_b)
        fwd = bso_forward(model, enc, [gold], k, [constraint], delta_01, BOS,
                          margin_score="laststep")
        assert fwd.records
        model.zero_grads()
        bso_backward(model, fwd)
        merged = grad_snapshot(model)
        model.zero_grads()
        naive_bso_backward(model, src_b, fwd, BOS)
        worst = max(max_relative_error(merged[s.name], s.grad)
                    for s in model.slots())
        assert worst < 1e-6

    @pytest.mark.parametrize("margin_score", ["cumulative", "laststep"])
    def test_gradient_matches_finite_differences(self, margin_score):
        model = toy_model(7, dtype=np.float64)
        _, src, gold, k, constraint = random_case(6)
        src_b = np.asarray(src)[None, :]
        enc = model.encode(src_b)
        fwd = bso_forward(model, enc, [gold], k, [constraint], delta_01, BOS,
                          margin_score=margin_score)
        assert sum(r.delta > 0 for r in fwd.records) >= 1
        model.zero_grads()
        bso_backward(model, fwd)
        analytic = grad_snapshot(model)

        def frozen():
            return bso_frozen_loss(model, src_b, gold, fwd.records, BOS, fwd.margin_score)

        worst = 0.0
        for s in model.slots():
            num = numerical_grad(frozen, s.value, step=1e-4)
            worst = max(worst, max_relative_error(analytic[s.name], num))
        assert worst < 1e-4

    @pytest.mark.parametrize("seed", [0, 2, 5, 6])
    def test_two_layers_with_dropout_merged_equals_naive_bptt(self, seed):
        model, src_b, gold, k, constraint, masks = two_layer_case(seed)
        enc = model.encode(src_b, masks=masks)
        fwd = bso_forward(model, enc, [gold], k, [constraint], delta_01, BOS)
        assert any(r.delta > 0 for r in fwd.records)
        model.zero_grads()
        bso_backward(model, fwd)
        merged = grad_snapshot(model)
        model.zero_grads()
        naive_bso_backward(model, src_b, fwd, BOS, masks=masks)
        worst = max(max_relative_error(merged[s.name], s.grad)
                    for s in model.slots())
        assert worst < 1e-6

    def test_two_layers_with_dropout_gradient_matches_finite_differences(self):
        model, src_b, gold, k, constraint, masks = two_layer_case(6)
        enc = model.encode(src_b, masks=masks)
        fwd = bso_forward(model, enc, [gold], k, [constraint], delta_01, BOS)
        assert sum(r.delta > 0 for r in fwd.records) >= 1
        model.zero_grads()
        bso_backward(model, fwd)
        analytic = grad_snapshot(model)

        def frozen():
            return bso_frozen_loss(model, src_b, gold, fwd.records, BOS, fwd.margin_score,
                                   masks=masks)

        worst = 0.0
        for s in model.slots():
            num = numerical_grad(frozen, s.value, step=1e-4)
            worst = max(worst, max_relative_error(analytic[s.name], num))
        assert worst < 1e-4

    def test_frozen_loss_equals_unfloored_margin_at_collection(self):
        model = toy_model(9, dtype=np.float64)
        _, src, gold, k, constraint = random_case(8)
        src_b = np.asarray(src)[None, :]
        enc = model.encode(src_b)
        fwd = bso_forward(model, enc, [gold], k, [constraint], delta_01, BOS)
        # at the parameters where records were detected every violated margin
        # term is positive, so the floor is inactive and the frozen loss
        # agrees with margin_loss
        assert bso_frozen_loss(model, src_b, gold, fwd.records, BOS, fwd.margin_score) == \
            pytest.approx(margin_loss(fwd.records), abs=1e-9)


# ---------------------------------------------------------------------------
# Batching and epoch drivers


class TestBackwardMemory:
    @pytest.mark.parametrize("layers, dropout", [(1, 0.0), (2, 0.3)])
    def test_a_recompute_step_keeps_only_what_the_backward_cannot_rebuild(self, layers,
                                                                          dropout):
        """Per extra recompute step and row, bso_backward keeps what
        xent_loss keeps (TestXentMemory): per layer the cell state and the
        output (H each), plus the attention weights (S), the attention
        hidden state and its score gradient (H each): 2LH + 2H + S floats.
        A step's input state is the previous step's output, so a cache that
        kept its gathered copy would break the bound, as would keeping a
        layer input (E outweighs everything else here) or the gates (4H per
        layer). Each sentence keeps a gold row and, from step 2, a violating
        row."""
        B, E, H, V, S = 16, 64, 32, 10, 4
        rng = np.random.default_rng(0)
        m = toy_model(0, tgt_vocab=V, d_emb=E, d_h=H, layers=layers)
        src = rng.integers(1, 5, size=(B, S))
        peaks = {}
        for T in (10, 40):
            golds = [tuple(int(w) for w in rng.integers(4, V, size=T)) for _ in range(B)]
            # the violating segment differs from the gold one from its second word
            records = [ViolationRecord(T, 0, g[:1] + tuple(4 + (w - 3) % (V - 4) for w in g[1:]),
                                       0.0, 0.0, 1.0, sentence=b) for b, g in enumerate(golds)]
            masks = (MaskSet.build(dropout, layers, S, T, np.random.default_rng(1), H)
                     if dropout else None)
            m.zero_grads()
            tracemalloc.start()
            try:
                fwd = training.ForwardResult(records, golds, m.encode(src, masks=masks), BOS,
                                             "cumulative")
                bso_backward(m, fwd)
                peaks[T] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            del fwd
        per_step = (peaks[40] - peaks[10]) / 30
        # 4 KiB per step for the Python objects of a step: dicts, lists,
        # array headers, the rows and the int64 words and sources
        assert per_step < 2 * B * (2 * layers * H + 2 * H + S) * 4 + 4096


class TestOptimizerMemory:
    """An update holds at most one float64 copy of a gradient, for the
    norm, and one float32 temporary of a slot's size, for Adagrad. The two
    embeddings are the largest slots and of one size, and each outweighs
    the few KiB of Python objects an update makes."""

    def model_with_grads(self):
        cfg = ModelConfig(src_vocab=400, tgt_vocab=400, d_emb=16, d_h=8)
        m = Seq2SeqModel(cfg, rng=np.random.default_rng(0), dtype=np.float32)
        rng = np.random.default_rng(1)
        for s in m.slots():
            s.grad[...] = rng.uniform(-1, 1, size=s.value.shape)
        return m, max(s.value.size for s in m.slots())

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_optimizer_step_holds_one_float64_copy_and_one_temporary(self):
        m, largest = self.model_with_grads()
        peak = self.traced_peak(lambda: optimizer_step(m, TrainConfig()))
        assert peak <= largest * (8 + 4) + 4096

    def test_adagrad_step_holds_one_temporary(self):
        m, _ = self.model_with_grads()
        slot = m.params["src_embed"]
        peak = self.traced_peak(lambda: nn.adagrad_step(slot, 0.1))
        assert peak <= slot.value.nbytes + 1024


class TestMakeBatches:
    def test_covers_all_pairs_once(self):
        pairs = [([1, 2], [3, 4, 3]), ([1], [4, 3]), ([2, 2, 2], [3]),
                 ([2], [4, 4, 3])]
        batches = make_batches(pairs, 2, np.random.default_rng(0))
        seen = sum(b[0].shape[0] for b in batches)
        assert seen == len(pairs)

    def test_lengths_and_padding(self):
        pairs = [([1, 2, 3], [4, 3]), ([1], [4, 4, 4, 3])]
        batches = make_batches(pairs, 2, np.random.default_rng(0))
        (src, s_len, tgt, t_len), = batches
        assert sorted(s_len) == [1, 3]
        assert sorted(t_len) == [2, 4]
        for b in range(2):
            assert list(src[b, s_len[b]:]) == [0] * (src.shape[1] - s_len[b])

    def test_bucketing_groups_similar_lengths(self):
        pairs = [([1] * n, [4] * n + [3]) for n in (1, 1, 5, 5)]
        batches = make_batches(pairs, 2, np.random.default_rng(0))
        widths = sorted(b[0].shape[1] for b in batches)
        assert widths == [1, 5]


class TestEpochDrivers:
    def small_pairs(self, rng, n=8):
        pairs = []
        for _ in range(n):
            length = int(rng.integers(1, 4))
            src = [int(w) for w in rng.integers(1, 5, size=length)]
            pairs.append((src, src + [EOS]))
        return pairs

    def test_xent_training_reduces_loss(self):
        model = toy_model(0, dtype=np.float32)
        rng = np.random.default_rng(1)
        pairs = self.small_pairs(rng)
        config = TrainConfig(batch_size=8, lr_main=0.1, lr_out=0.2)
        losses = []
        for _ in range(60):
            stats = train_xent_epoch(model, pairs, config, rng, BOS)
            losses.append(stats.loss)
        assert losses[-1] < 0.3 * losses[0]
        assert stats.tokens == sum(len(s) + len(t) for s, t in pairs)

    def bso_examples(self, rng, n=6):
        out = []
        for _ in range(n):
            words = [int(w) for w in rng.choice([1, 4], size=rng.integers(2, 5))]
            perm = list(words)
            rng.shuffle(perm)
            out.append((np.array(words), tuple(perm) + (EOS,),
                        PermutationConstraint(5, words, EOS)))
        return out

    def test_a_rejected_gold_names_its_example(self):
        """A gold sequence its constraint rejects is named by its index in
        ``examples``, not by its row in the shuffled minibatch."""
        examples = self.bso_examples(np.random.default_rng(5), n=10)
        src, gold, constraint = examples[7]
        # BOS is no source word: the permutation rejects it at step 2
        examples[7] = (src, gold[:1] + (BOS,) + gold[1:], constraint)
        config = TrainConfig(batch_size=4)
        with pytest.raises(beam_mod.ConstraintError) as err:
            train_bso_epoch(toy_model(2), examples, config, 1, np.random.default_rng(3), BOS)
        assert err.value.sentence == 7
        assert str(err.value).startswith("sentence 7: gold sequence invalid at step 2: word 2 ")

    def test_non_finite_scores_name_their_example(self):
        """Non-finite f-scores are named by the example's index in
        ``examples``, not by its row in the shuffled minibatch."""
        words = [[1, 1], [1], [1, 1, 1], [1], [4, 1], [1, 4]]
        examples = [(np.array(w), tuple(w) + (EOS,), PermutationConstraint(5, w, EOS))
                    for w in words]
        model = toy_model(2)
        # source word 4 occurs in examples 4 and 5 only; example 5 is row 2
        # of the first minibatch, example 4 row 3
        model.params["src_embed"].value[4] = np.nan
        assert np.random.default_rng(0).permutation(6).tolist() == [3, 2, 5, 4, 0, 1]
        with pytest.raises(NonFiniteScoreError,
                           match="^sentence 5: non-finite f-scores at output step 1$") as err:
            train_bso_epoch(model, examples, TrainConfig(batch_size=4), 1,
                            np.random.default_rng(0), BOS)
        assert err.value.sentence == 5

    @pytest.mark.parametrize("regime", ["xent", "bso"])
    def test_encoder_and_decoder_steps_draw_independent_masks(self, regime):
        """With dropout between two layers, encoder step t and decoder step
        t apply masks of their own, each decoder step applies other masks
        than the step before, and BSO's backward replays every search step
        under the masks the search applied."""
        model = toy_model(0, layers=2, d_h=16)
        encoded, drops = [], []
        encode, decode_step = model.encode, model.decode_step

        def tracing_encode(*args, **kwargs):
            encoded.append(encode(*args, **kwargs))
            return encoded[-1]

        def tracing_decode_step(*args, **kwargs):
            state, cache = decode_step(*args, **kwargs)
            drops.append(cache["drop"])
            return state, cache

        model.encode, model.decode_step = tracing_encode, tracing_decode_step
        rng = np.random.default_rng(1)
        config = TrainConfig(batch_size=8, dropout=0.5)
        if regime == "xent":
            pairs = self.small_pairs(rng)
            train_xent_epoch(model, pairs, config, rng, BOS)
            steps = max(len(tgt) for _, tgt in pairs)
        else:
            examples = self.bso_examples(rng)
            train_bso_epoch(model, examples, config, 1, rng, BOS)
            steps = max(len(gold) for _, gold, _ in examples)
            # the search takes one decoder step per time step, then the
            # backward recomputes the steps before the last violation
            replay = drops[steps:]
            assert replay
            for t, drop in enumerate(replay):
                assert np.array_equal(drop, drops[t])
        assert len(encoded) == 1
        enc_drops = [step["drop"] for step in encoded[0].cache["steps"]]
        for t in range(min(len(enc_drops), steps)):
            assert not np.array_equal(enc_drops[t], drops[t])
        for t in range(1, steps):
            assert not np.array_equal(drops[t], drops[t - 1])

    def test_bso_epoch_stats(self):
        model = toy_model(2, dtype=np.float32)
        rng = np.random.default_rng(3)
        examples = self.bso_examples(rng)
        config = TrainConfig(k_tr=6, batch_size=4)
        stats = train_bso_epoch(model, examples, config, epoch=1, rng=rng, bos_id=BOS)
        assert stats.beam == 2            # curriculum start
        assert stats.margin_steps == sum(len(g) for _, g, _ in examples)
        assert stats.loss >= 0.0
        assert np.isfinite(stats.loss)
        later = train_bso_epoch(model, examples, config, epoch=9, rng=rng, bos_id=BOS)
        assert later.beam == 6            # curriculum reached the target

    def test_bso_epoch_deterministic(self):
        def run():
            model = toy_model(2, dtype=np.float32)
            rng = np.random.default_rng(3)
            examples = self.bso_examples(np.random.default_rng(5))
            config = TrainConfig(batch_size=4)
            return train_bso_epoch(model, examples, config, 1, rng, BOS).loss

        assert run() == run()

    def test_bso_training_reduces_margin_loss(self):
        model = toy_model(11, dtype=np.float32)
        rng = np.random.default_rng(7)
        examples = self.bso_examples(np.random.default_rng(7), n=8)
        config = TrainConfig(k_tr=3, batch_size=8, lr_main=0.05, lr_out=0.1)
        losses = [train_bso_epoch(model, examples, config, e, rng, BOS).loss
                  for e in range(1, 16)]
        assert losses[-1] < losses[0]


class TestSharedStartState:
    def test_losses_and_search_leave_the_start_state_unchanged(self):
        """Every loss and search starts from the encoding's start state
        itself, not a copy, so none of them may write into it."""
        model = toy_model(4, layers=2, d_h=8)
        rng = np.random.default_rng(6)
        examples = TestEpochDrivers().bso_examples(rng, n=4)
        src, lengths = pad_ids([s for s, _, _ in examples])
        golds = [g for _, g, _ in examples]
        tgt, tgt_lengths = pad_ids(golds)
        masks = MaskSet.build(0.3, 2, src.shape[1], tgt.shape[1], rng, 8)
        enc = model.encode(src, lengths, masks)
        start = enc.init_state

        def snapshot():
            return [a.tobytes() for a in (*start.h, *start.c, start.input_feed, start.src)] + \
                [start.step]

        before = snapshot()
        training.xent_loss(model, enc, tgt, tgt_lengths, BOS)
        fwd = bso_forward(model, enc, golds, 3, [c for _, _, c in examples], delta_01, BOS)
        assert fwd.records
        records = copy.deepcopy(fwd.records)
        bso_backward(model, fwd)
        # train_bso_epoch counts the violations in fwd.records after the backward
        assert fwd.records == records
        beam_mod.beam_search(model, enc, 3, [c for _, _, c in examples],
                             [len(g) for g in golds], BOS, EOS)
        assert enc.init_state is start
        assert snapshot() == before


class TestBenchmarkProbes:
    """The benchmark's gate wraps ``training.bso_forward`` and
    ``nn.clip_global_norm`` as module attributes and reads ``t``, ``r`` and
    ``delta`` from every record: the epoch drivers must reach both through
    those attributes, once per minibatch."""

    def test_epoch_drivers_call_the_probed_functions(self, monkeypatch):
        results = {"bso_forward": [], "clip_global_norm": []}

        def probe(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                results[name].append(fn(*args, **kwargs))
                return results[name][-1]
            monkeypatch.setattr(owner, name, wrapper)

        probe(training, "bso_forward")
        probe(nn, "clip_global_norm")
        model = toy_model(2, dtype=np.float32)
        drivers = TestEpochDrivers()
        config = TrainConfig(batch_size=4)
        pairs = drivers.small_pairs(np.random.default_rng(1), n=8)
        train_xent_epoch(model, pairs, config, np.random.default_rng(2), BOS)
        assert [len(r) for r in results.values()] == [0, 2]
        examples = drivers.bso_examples(np.random.default_rng(5), n=8)
        train_bso_epoch(model, examples, config, 1, np.random.default_rng(3), BOS)
        assert [len(r) for r in results.values()] == [2, 4]
        records = [rec for fwd in results["bso_forward"] for rec in fwd.records]
        assert records
        for rec in records:
            assert type(rec.t) is int and type(rec.r) is int and rec.t > rec.r >= 0
            assert type(rec.delta) is float
