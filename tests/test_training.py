import types

import numpy as np
import pytest

from bso import beam as beam_mod
from bso import training
from bso.beam import NonFiniteScoreError, NoConstraint, PermutationConstraint
from bso.model import ModelConfig, Seq2SeqModel
from bso.training import (CurriculumSchedule, TrainConfig, ViolationRecord,
                          bso_backward, bso_forward, curriculum_beam, delta_01,
                          delta_sentence_bleu, make_batches, margin_loss,
                          optimizer_step, train_bso_epoch, train_xent_epoch,
                          xent_loss)
from gradcheck import max_relative_error, numerical_grad
from oracles import (bso_frozen_loss, grad_snapshot, naive_bso_backward,
                     oracle_bso_forward)

BOS = 2
EOS = 3


class TestDeltas:
    def test_zero_one(self):
        assert delta_01((4, 5), (4, 5)) == 0.0
        assert delta_01((4, 5), (5, 4)) == 1.0
        assert delta_01((), ()) == 0.0

    def test_sentence_bleu_identical_is_zero(self):
        assert delta_sentence_bleu((4, 5, 6), (4, 5, 6)) == 0.0

    def test_sentence_bleu_disjoint_near_one(self):
        d = delta_sentence_bleu((7, 8, 9), (4, 5, 6))
        assert 0.9 < d <= 1.0

    def test_sentence_bleu_partial_overlap_in_between(self):
        d = delta_sentence_bleu((4, 5, 9), (4, 5, 6))
        assert 0.0 < d < 1.0


class TestMarginLoss:
    def rec(self, g, v, delta=1.0, margin_score="cumulative"):
        return ViolationRecord(t=1, r=0, violating_tokens=(5,), gold_tokens=(4,),
                               gold_score_seg=g, viol_score_seg=v,
                               gold_last_f=g, viol_last_f=v, delta=delta,
                               margin_score=margin_score)

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
        sched = CurriculumSchedule(target=6)
        sizes = [curriculum_beam(e, sched) for e in range(1, 12)]
        assert sizes == [2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 6]

    def test_capped_at_target(self):
        sched = CurriculumSchedule(target=3)
        assert curriculum_beam(50, sched) == 3

    def test_small_target_starts_capped(self):
        sched = CurriculumSchedule(target=2)
        assert curriculum_beam(1, sched) == 2

    def test_epochs_one_indexed(self):
        with pytest.raises(ValueError):
            curriculum_beam(0, CurriculumSchedule(target=4))


# ---------------------------------------------------------------------------
# Scripted-score scenario: exercises violation detection, LaSO resets and the
# final-step comparator without any neural net in the way.


class ScriptedState:
    def __init__(self, prefixes):
        self.prefixes = list(prefixes)

    def select(self, rows):
        return ScriptedState([self.prefixes[r] for r in rows])


class ScriptedModel:
    """score_f is a lookup table keyed by the input-word history (BOS first);
    unlisted words score `default`."""

    def __init__(self, table, vocab, default=-10.0):
        self.config = types.SimpleNamespace(tgt_vocab=vocab)
        self.table = table
        self.default = default

    def init_state(self, enc):
        return ScriptedState([()])

    def decode_step(self, state, words, enc, step=0, masks=None):
        prefixes = [state.prefixes[i] + (int(w),) for i, w in enumerate(words)]
        rows = np.full((len(prefixes), self.config.tgt_vocab), self.default)
        for i, p in enumerate(prefixes):
            for w, val in self.table.get(p, {}).items():
                rows[i, w] = val
        out = types.SimpleNamespace(state=ScriptedState(prefixes), scores=rows)
        return out, {"prefixes": prefixes}

    def score_f(self, out):
        return out.scores.copy()


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
    return bso_forward(model, enc=None, golds=[(A, B, C, EOS)], k_tr=k,
                       constraints=[NoConstraint(8, blocked=(0, 1, 2))],
                       delta_fn=delta_01, bos_id=BOS)


class TestScriptedForward:
    def test_two_violations_with_reset(self):
        fwd = run_scripted(scripted_table())
        assert fwd.gold_f == [[5.0, 4.0, 3.0, 1.0]]
        assert len(fwd.records) == 2
        r1, r2 = fwd.records
        # t=2: gold segment (A,B)=9 loses to (B,D)=10 on the margin
        assert (r1.t, r1.r) == (2, 0)
        assert r1.violating_tokens == (B, D)
        assert r1.gold_tokens == (A, B)
        assert r1.gold_score_seg == pytest.approx(9.0)
        assert r1.viol_score_seg == pytest.approx(10.0)
        # reset at r=2; no violation at t=3; final-step comparator is the
        # top-ranked non-gold hypothesis (A,B,D,EOS)
        assert (r2.t, r2.r) == (4, 2)
        assert r2.violating_tokens == (D, EOS)
        assert r2.gold_tokens == (C, EOS)
        assert r2.gold_score_seg == pytest.approx(4.0)
        assert r2.viol_score_seg == pytest.approx(4.7)
        assert margin_loss(fwd.records) == pytest.approx(3.7)

    def test_final_comparator_skips_top_ranked_gold(self):
        # gold outranks everything at t=T yet still pays a margin violation
        # against the best non-gold hypothesis
        fwd = run_scripted(scripted_table(d_eos=1.4))
        r2 = fwd.records[-1]
        assert (r2.t, r2.r) == (4, 2)
        assert r2.violating_tokens == (C, D)
        assert r2.viol_score_seg == pytest.approx(3.5)
        assert r2.gold_score_seg == pytest.approx(4.0)

    def test_no_final_violation_when_margin_met(self):
        fwd = run_scripted(scripted_table(d_eos=1.4, gold_eos=2.0))
        assert [rec.t for rec in fwd.records] == [2]

    def test_matches_oracle_on_scripted_model(self):
        model = ScriptedModel(scripted_table(), vocab=8)
        got = oracle_bso_forward(model, None, (A, B, C, EOS), 2,
                                 NoConstraint(8, blocked=(0, 1, 2)),
                                 delta_01, BOS)
        fwd = run_scripted(scripted_table())
        assert [(r["t"], r["r"], r["viol_tokens"]) for r in got] == \
            [(r.t, r.r, r.violating_tokens) for r in fwd.records]


# ---------------------------------------------------------------------------
# Random-model equivalence with the from-scratch-rescoring oracle


def toy_model(seed, dtype=np.float32, tgt_vocab=5, d_emb=3, d_h=4):
    cfg = ModelConfig(src_vocab=5, tgt_vocab=tgt_vocab, d_emb=d_emb, d_h=d_h)
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
    @pytest.mark.parametrize("seed", range(40))
    def test_records_match_exactly(self, seed):
        model, src, gold, k, constraint = random_case(seed)
        enc = model.encode(np.asarray(src)[None, :])
        fwd = bso_forward(model, enc, [gold], k, [constraint], delta_01, BOS)
        want = oracle_bso_forward(model, enc, gold, k, constraint, delta_01, BOS)
        assert len(fwd.records) == len(want)
        for rec, ref in zip(fwd.records, want):
            assert (rec.t, rec.r) == (ref["t"], ref["r"])
            assert rec.violating_tokens == ref["viol_tokens"]
            assert rec.gold_tokens == ref["gold_tokens"]
            # float32 scores accumulated in float64 in the same order are
            # bitwise identical to from-scratch rescoring
            assert rec.gold_score_seg == ref["gold_seg"]
            assert rec.viol_score_seg == ref["viol_seg"]
            assert rec.delta == ref["delta"]



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
            bso_forward(model, None, [(A, B, EOS)], 3,
                        [NoConstraint(8, blocked=(0, 1, 2))], delta_01, BOS,
                        margin_score="laststep")
        assert err.value.sentence == 0

    def test_error_names_the_sentence(self):
        model = toy_model(3, dtype=np.float64)
        src = np.array([[1, 2, 0], [2, 3, 2], [1, 4, 3]])
        golds = [(1, 3), (4, 1, 3), (3, 3)]
        constraints = [NoConstraint(5, blocked=(0, 2))] * 3
        # source word 4 occurs in sentence 2 only
        model.params["src_embed"].value[4] = np.nan
        enc = model.encode(src, lengths=np.array([2, 3, 3]))
        with pytest.raises(NonFiniteScoreError, match="step 1 of sentence 2") as err:
            bso_forward(model, enc, golds, 2, constraints, delta_01, BOS)
        assert (err.value.step, err.value.sentence) == (1, 2)

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


def sentence_records(fwd, b):
    return [(r.t, r.r, r.violating_tokens, r.gold_tokens, r.delta)
            for r in fwd.records if r.sentence == b]


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
                assert rec.gold_score_seg == pytest.approx(ref.gold_score_seg, rel=1e-12, abs=1e-12)
                assert rec.viol_score_seg == pytest.approx(ref.viol_score_seg, rel=1e-12, abs=1e-12)
            assert fwd.gold_f[b] == pytest.approx(one.gold_f[0], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("margin_score", ["cumulative", "laststep"])
    def test_backward_equals_sum_of_naive_bptt(self, seed, margin_score):
        model, src, lengths, srcs, golds, k, constraints = random_batch(seed)
        enc = model.encode(src, lengths)
        fwd = bso_forward(model, enc, golds, k, constraints, delta_01, BOS,
                          margin_score=margin_score)
        model.zero_grads()
        bso_backward(model, fwd)
        batched = grad_snapshot(model)
        model.zero_grads()
        for b, s in enumerate(srcs):
            one = bso_forward(model, model.encode(s[None, :]), [golds[b]], k,
                              [constraints[b]], delta_01, BOS, margin_score=margin_score)
            assert sentence_records(fwd, b) == sentence_records(one, 0)
            naive_bso_backward(model, s[None, :], one, BOS)
        worst = max(max_relative_error(batched[s.name], s.grad) for s in model.slots())
        assert worst < 1e-6

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
        whole beam (plus one successor set and one advance per step
        validating the golds), never one per sentence or per hypothesis."""
        calls = {"top_k": 0, "allowed_mask": 0, "advance": 0}

        def count(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        cls = NoConstraint if kind == "none" else PermutationConstraint
        count(beam_mod, "top_k")
        for name in ("allowed_mask", "advance"):
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
        assert calls == {"top_k": t_max, "allowed_mask": 2 * t_max, "advance": 2 * t_max}

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
            return bso_frozen_loss(model, src_b, gold, fwd.records, BOS)

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
        assert bso_frozen_loss(model, src_b, gold, fwd.records, BOS) == \
            pytest.approx(margin_loss(fwd.records), abs=1e-9)


# ---------------------------------------------------------------------------
# Batching and epoch drivers


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

    def bso_examples(self, rng, n=6):
        out = []
        for _ in range(n):
            words = [int(w) for w in rng.choice([1, 4], size=rng.integers(2, 5))]
            perm = list(words)
            rng.shuffle(perm)
            out.append((np.array(words), tuple(perm) + (EOS,),
                        PermutationConstraint(5, words, EOS)))
        return out

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
