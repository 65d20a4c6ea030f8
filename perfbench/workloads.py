"""Workloads, set-up and correctness gate of the bso benchmark.

The harness drives only public functions of ``bso``: the epoch drivers of
``bso.training``, ``bso.beam.beam_decode``, ``Seq2SeqModel.encode`` and
``bso.metrics.corpus_bleu``. Inputs are the seeded desk word-ordering corpus
of the acceptance suite (300 letter-types with a hidden precedence, 5-10
word sentences, shuffled source). Set-up pretrains a start model with a
fixed number of cross-entropy epochs; every unit of work starts from an
identical copy of it, so each occurrence of a unit does identical work and
must report identical event counts.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc
import traceback
from dataclasses import dataclass

import numpy as np

from bso import beam, metrics, nn, training
from bso.beam import ArcStandardConstraint, NoConstraint, PermutationConstraint
from bso.model import ModelConfig, Seq2SeqModel
from bso.tasks import BOS_ID, EOS_ID, PAD_ID, Vocab

import spans

clock = time.perf_counter

DECODE_BEAMS = (1, 5, 10)


@dataclass(frozen=True)
class Sizes:
    """Input and model sizes; the defaults are the benchmark's."""

    n_train: int = 2000
    n_dev: int = 200
    d_emb: int = 32
    d_h: int = 48
    pretrain_epochs: int = 4
    bso_sentences: int = 128
    setups: int = 3


# ---------------------------------------------------------------------------
# Metric specifications: (name, unit, better). BENCHMARK.json lists the same.

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("tok_per_s", "tok/s", "higher"),
    ("decode_k1_sent_per_s", "sent/s", "higher"),
    ("decode_k5_sent_per_s", "sent/s", "higher"),
    ("decode_k10_sent_per_s", "sent/s", "higher"),
    ("decode_k5_ms_p50", "ms", "lower"),
    ("decode_k5_ms_p95", "ms", "lower"),
    ("peak_heap_mb", "MB", "lower"),
    ("dev_bleu", "BLEU", "higher"),
    ("dev_nll", "nats/tok", "lower"),
]


def _rows_first_arg(args, kwargs):
    return args[0].shape[0]


def _rows_dh(args, kwargs):
    return (args[1] if len(args) > 1 else kwargs["dh"]).shape[0]


def _rows_state(args, kwargs):
    return (args[1] if len(args) > 1 else kwargs["state"]).input_feed.shape[0]


def _rows_d_state(args, kwargs):
    return (args[2] if len(args) > 2 else kwargs["d_state"]).input_feed.shape[0]


def _candidates(args, kwargs):
    return int(np.count_nonzero(args[1] if len(args) > 1 else kwargs["valid"]))


# Span name -> [(owner, attribute)], amount extractor, amount metric suffix.
SPANS = {
    "nn.lstm_cell_forward": ([(nn, "lstm_cell_forward")], _rows_first_arg, "rows_per_call"),
    "nn.lstm_cell_backward": ([(nn, "lstm_cell_backward")], _rows_dh, "rows_per_call"),
    "nn.sigmoid": ([(nn, "sigmoid")], None, None),
    "nn.affine_forward": ([(nn, "affine_forward")], None, None),
    "nn.affine_backward": ([(nn, "affine_backward")], None, None),
    "nn.log_softmax": ([(nn, "log_softmax")], None, None),
    "nn.clip_global_norm": ([(nn, "clip_global_norm")], None, None),
    "nn.adagrad_step": ([(nn, "adagrad_step")], None, None),
    "model.encode": ([(Seq2SeqModel, "encode")], None, None),
    "model.encode_backward": ([(Seq2SeqModel, "encode_backward")], None, None),
    "model.decode_step": ([(Seq2SeqModel, "decode_step")], _rows_state, "rows_per_call"),
    "model.decode_step_backward": ([(Seq2SeqModel, "decode_step_backward")], _rows_d_state,
                                   "rows_per_call"),
    "model.score_f": ([(Seq2SeqModel, "score_f")], None, None),
    "beam.top_k": ([(beam, "top_k"), (training, "top_k")], _candidates, "candidates_per_call"),
    "beam.allowed_mask": ([(c, "allowed_mask") for c in
                           (NoConstraint, PermutationConstraint, ArcStandardConstraint)],
                          None, None),
    "beam.advance": ([(c, "advance") for c in
                      (NoConstraint, PermutationConstraint, ArcStandardConstraint)], None, None),
    "beam.validate_gold": ([(beam, "validate_gold"), (training, "validate_gold")], None, None),
    "beam.beam_decode": ([(beam, "beam_decode")], None, None),
    "training.bso_forward": ([(training, "bso_forward")], None, None),
    "training.bso_backward": ([(training, "bso_backward")], None, None),
    "training.optimizer_step": ([(training, "optimizer_step")], None, None),
    "training.xent_loss": ([(training, "xent_loss")], None, None),
    "metrics.sentence_bleu_smoothed": ([(metrics, "sentence_bleu_smoothed"),
                                        (training, "sentence_bleu_smoothed")], None, None),
    "metrics.corpus_bleu": ([(metrics, "corpus_bleu")], None, None),
}

SPAN_TARGETS = [(owner, attr, name, amount)
                for name, (places, amount, _) in SPANS.items()
                for owner, attr in places]

COUNTS = [
    ("training.records", "count", "lower"),
    ("training.violations", "count", "lower"),
    ("training.zero_delta_share", "share", "lower"),
    ("training.segment_len_mean", "steps", "higher"),
    ("setup.corpus_s", "s", "lower"),
    ("setup.pretrain_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def per_layer_specs():
    out = []
    for name, (_, _, suffix) in SPANS.items():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if suffix == "rows_per_call":
            out.append((f"{name}.rows_per_call", "rows", "higher"))
        elif suffix == "candidates_per_call":
            out.append((f"{name}.candidates_per_call", "count", "lower"))
    return out + COUNTS


PER_LAYER = per_layer_specs()

_TRAIN_SPANS = {"nn.lstm_cell_forward", "nn.lstm_cell_backward", "nn.sigmoid",
             "nn.affine_forward", "nn.affine_backward", "nn.clip_global_norm",
             "nn.adagrad_step", "model.encode", "model.encode_backward",
             "model.decode_step", "model.decode_step_backward", "model.score_f",
             "training.optimizer_step"}
# Only the dev decodes run these; traced runs trace those decodes apart from
# the training cycles and take these two spans from them, per dev pass.
DECODE_SPANS = ("beam.beam_decode", "metrics.corpus_bleu")
_BSO_SPANS = _TRAIN_SPANS | {"beam.top_k", "beam.allowed_mask", "beam.advance",
                    "beam.validate_gold", "training.bso_forward",
                    "training.bso_backward"}


# ---------------------------------------------------------------------------
# Inputs


@dataclass
class Corpus:
    vocab: Vocab
    dev_sents: list
    train: list                  # (src ids, target ids + EOS)
    dev: list

    @property
    def train_tokens(self):
        return sum(len(s) + len(t) for s, t in self.train)


def desk_corpus(seed, sizes):
    """The acceptance suite's desk corpus (``desk_data``) at ``sizes``."""
    rng = np.random.default_rng(seed)
    words = ["".join(chr(97 + x) for x in (j // 100, (j // 10) % 10, j % 10))
             for j in range(300)]
    order = list(rng.permutation(len(words)))
    priority = {w: order[i] for i, w in enumerate(words)}

    def sentences(n):
        out = []
        for _ in range(n):
            length = int(rng.integers(5, 11))
            picks = rng.choice(len(words), size=length, replace=False)
            out.append(sorted((words[i] for i in picks), key=priority.get))
        return out

    train = sentences(sizes.n_train)
    dev = sentences(sizes.n_dev)
    vocab = Vocab.build(train + dev, min_count=1)
    shuffle_rng = np.random.default_rng(seed + 1)

    def pairs(sents):
        out = []
        for s in sents:
            src = list(s)
            shuffle_rng.shuffle(src)
            out.append((np.array(vocab.encode(src)), np.array(vocab.encode(s) + [EOS_ID])))
        return out

    return Corpus(vocab, dev, pairs(train), pairs(dev))


def pretrain(corpus, sizes):
    """Start model: a fixed number of cross-entropy epochs over train, with
    the acceptance suite's model and optimizer settings."""
    v = len(corpus.vocab)
    cfg = ModelConfig(src_vocab=v, tgt_vocab=v, d_emb=sizes.d_emb, d_h=sizes.d_h)
    model = Seq2SeqModel(cfg, rng=np.random.default_rng(1))
    tcfg = training.TrainConfig(batch_size=32, lr_main=0.1, lr_out=0.2)
    rng = np.random.default_rng(2)
    for _ in range(sizes.pretrain_epochs):
        stats = training.train_xent_epoch(model, corpus.train, tcfg, rng, BOS_ID)
        if not math.isfinite(stats.loss):
            raise FloatingPointError("non-finite loss while pretraining")
    return model


def clone(model):
    """Identical copy of ``model``: parameters and Adagrad accumulators, as
    a checkpoint round trip would restore them."""
    copy = model.astype(model.dtype)
    for name, slot in model.params.items():
        copy.params[name].adagrad_accum[...] = slot.adagrad_accum
    return copy


def param_digest(model):
    return tuple((n, s.value.tobytes()) for n, s in sorted(model.params.items()))


# ---------------------------------------------------------------------------
# Correctness gate


class Gate:
    """Counts operations and failures; collects the events of one unit.

    Events are what the program reports about its own work: losses,
    pre-clip gradient norms and, from every ``ForwardResult``, the number of
    records, zero-cost records and summed segment lengths. Identical
    units must report identical events.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reset_events()

    def reset_events(self):
        self.norms = []
        self.records = 0
        self.violations = 0
        self.zero_delta = 0
        self.segment_steps = 0

    def on_norm(self, norm):
        self.norms.append(float(norm))

    def on_forward(self, fwd):
        for rec in fwd.records:
            self.records += 1
            self.segment_steps += rec.t - rec.r
            if rec.delta == 0.0:
                self.zero_delta += 1
            else:
                self.violations += 1

    def probes(self):
        return {"nn.clip_global_norm": self.on_norm, "training.bso_forward": self.on_forward}

    def op(self, ok, problem=None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    def crashed(self, what):
        self.op(False, f"{what}: {traceback.format_exc(limit=3).strip()}")


def finite(*values):
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# Units of work
#
# A unit is the smallest piece of a workload that recurs identically: one
# training minibatch from the start model, or one sentence decoded at one
# beam size. A cycle runs every unit of the workload once, and the timed
# loop repeats cycles. Units are timed in groups of equal work: a training
# minibatch is its own group; decoded sentences group by beam size and
# length, since the permutation constraint makes every sentence of a length
# take the same steps. A group's time is the best of its occurrences. The
# shared VMs the benchmark was built on switch between a fast state and one
# about 1.7x slower for seconds at a time; the best of many short samples
# finds the fast state, where a median of long ones lands on either.


@dataclass
class Unit:
    key: object                  # identity: occurrences must report equal events
    group: object                # timing group
    seconds: float
    tokens: int
    events: tuple


def decode_cycle(model, corpus, gate, beams=DECODE_BEAMS):
    """Constrained decode of every dev sentence at each beam size.

    Returns (units, BLEU by beam size); each unit is one encode plus
    ``beam_decode`` of one sentence.
    """
    v = len(corpus.vocab)
    units, bleu = [], {}
    for k in beams:
        hyps = []
        for i, (src, _) in enumerate(corpus.dev):
            words = [int(w) for w in src]
            constraint = PermutationConstraint(v, words, EOS_ID)
            try:
                t0 = clock()
                enc = model.encode(src[None, :])
                toks = beam.beam_decode(model, enc, k, constraint, len(words) + 1,
                                        BOS_ID, EOS_ID)
                seconds = clock() - t0
            except Exception:
                gate.crashed(f"decode k={k} sentence {i}")
                hyps.append([])
                continue
            toks = tuple(int(t) for t in toks)
            ok = (len(toks) == len(words) + 1 and toks[-1] == EOS_ID
                  and sorted(toks[:-1]) == sorted(words))
            gate.op(ok, f"decode k={k} sentence {i} broke the permutation constraint: "
                        f"{toks} for source {words}")
            units.append(Unit((k, i), (k, len(words)), seconds, len(words) + len(toks), toks))
            hyps.append(corpus.vocab.decode(list(toks)))
        bleu[k] = metrics.corpus_bleu(hyps, corpus.dev_sents)
    return units, bleu


def _train_events(stats, gate):
    return (stats.loss, stats.tokens, stats.violations, stats.margin_steps,
            gate.records, gate.violations, gate.zero_delta, gate.segment_steps,
            tuple(gate.norms))


class Workload:
    """Units are minibatches; ``batches`` holds each one's examples."""

    name = ""
    why = ""
    expected_spans = frozenset()

    def __init__(self, corpus, seed, sizes):
        self.corpus = corpus
        self.seed = seed
        self.sizes = sizes

    def train(self, model, examples, rng):
        raise NotImplementedError

    def _checked_train(self, model, examples, rng, gate, what):
        gate.reset_events()
        t0 = clock()
        stats = self.train(model, examples, rng)
        seconds = clock() - t0
        ok = finite(stats.loss, *gate.norms)
        gate.op(ok, f"{what}: non-finite loss or gradient norm "
                    f"(loss {stats.loss}, norms {gate.norms})")
        return seconds, stats

    def warm_up(self, start, gate):
        """The model the decode metrics evaluate: the start model after one
        epoch over the workload's data."""
        model = clone(start)
        examples = [ex for batch in self.batches for ex in batch]
        self._checked_train(model, examples, np.random.default_rng((self.seed, 3)), gate,
                            f"{self.name} warm-up epoch")
        return model

    def cycle(self, start, gate):
        units = []
        for b, examples in enumerate(self.batches):
            model = clone(start)
            rng = np.random.default_rng((self.seed, 4, b))
            seconds, stats = self._checked_train(model, examples, rng, gate,
                                                 f"{self.name} batch {b}")
            units.append(Unit(b, b, seconds, self.tokens[b], _train_events(stats, gate)))
        return units


def _length_buckets(pairs, size):
    """Consecutive ``size``-pair slices of the pairs sorted by length, as
    ``make_batches`` groups them, so a one-batch epoch pads as little as a
    batch of a full epoch does."""
    order = sorted(range(len(pairs)), key=lambda i: (len(pairs[i][0]), len(pairs[i][1]), i))
    return [[pairs[i] for i in order[s:s + size]] for s in range(0, len(order), size)]


class XentWorkload(Workload):
    name = "xent-b32"
    why = ("cross-entropy minibatches of 32: the batched teacher-forced path, which runs "
           "no beam, BSO or metrics code; the control for changes there")
    expected_spans = frozenset(_TRAIN_SPANS | {"nn.log_softmax", "training.xent_loss"})
    config = training.TrainConfig(batch_size=32, lr_main=0.1, lr_out=0.2)

    def __init__(self, corpus, seed, sizes):
        super().__init__(corpus, seed, sizes)
        self.batches = _length_buckets(corpus.train, self.config.batch_size)
        self.tokens = [sum(len(s) + len(t) for s, t in b) for b in self.batches]

    def train(self, model, examples, rng):
        return training.train_xent_epoch(model, examples, self.config, rng, BOS_ID)


class BsoWorkload(Workload):
    constrained = True
    delta = "zero_one"

    def __init__(self, corpus, seed, sizes):
        super().__init__(corpus, seed, sizes)
        v = len(corpus.vocab)
        self.config = training.TrainConfig(k_tr=6, batch_size=16, lr_main=0.1, lr_out=0.2,
                                           delta=self.delta, curriculum_start=6)
        examples = []
        for src, tgt in corpus.train[:sizes.bso_sentences]:
            c = (PermutationConstraint(v, [int(i) for i in src], EOS_ID) if self.constrained
                 else NoConstraint(v, blocked=(PAD_ID, BOS_ID)))
            examples.append((src, tuple(int(w) for w in tgt), c))
        n = self.config.batch_size
        self.batches = [examples[s:s + n] for s in range(0, len(examples), n)]
        self.tokens = [sum(len(s) + len(g) for s, g, _ in b) for b in self.batches]

    def train(self, model, examples, rng):
        return training.train_bso_epoch(model, examples, self.config, 1, rng, BOS_ID)


class ConBsoWorkload(BsoWorkload):
    name = "bso-perm-k6"
    why = ("ConBSO, permutation constraint, 0/1 cost, K=6, batch 16: the paper's "
           "headline setting; narrow frontier, long segments")
    expected_spans = frozenset(_BSO_SPANS)


class FreeBsoWorkload(BsoWorkload):
    name = "bso-free-k6"
    why = ("BSO without constraint, sentence-BLEU cost, K=6: full KxV frontier, "
           "many short segments, the metrics layer on every violation")
    constrained = False
    delta = "sentence_bleu"
    expected_spans = frozenset(_BSO_SPANS | {"metrics.sentence_bleu_smoothed"})


WORKLOADS = {w.name: w for w in (XentWorkload, ConBsoWorkload, FreeBsoWorkload)}


# ---------------------------------------------------------------------------
# Runs


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict                # name -> (value, unit)
    notes: list                  # human-readable lines printed before the result
    problems: list


class Best:
    """Best time per timing group over a run's cycles; checks that every
    occurrence of a unit reports the same events."""

    def __init__(self, gate, what, units=None):
        self.gate = gate
        self.what = what
        self.units = {} if units is None else units   # key -> first Unit
        self.best = {}           # group -> best seconds
        self.samples = 0

    def add(self, units):
        for u in units:
            self.samples += 1
            first = self.units.setdefault(u.key, u)
            if u.events != first.events:
                self.gate.op(False, f"{self.what} unit {u.key}: events differ between "
                                    f"identical runs")
            self.best[u.group] = min(self.best.get(u.group, math.inf), u.seconds)

    def seconds(self, key):
        return self.best[self.units[key].group]

    def total_seconds(self, keys=None):
        return sum(self.seconds(k) for k in (self.units if keys is None else keys))

    def tokens(self):
        return sum(u.tokens for u in self.units.values())


class Setups:
    """The set-up runs of one benchmark run: corpus plus start model. Every
    start model must be bit-identical to the first."""

    def __init__(self, seed, sizes, gate):
        self.seed = seed
        self.sizes = sizes
        self.gate = gate
        self.corpus_s = []
        self.pretrain_s = []
        self.digest = None

    def run(self):
        t0 = clock()
        corpus = desk_corpus(self.seed, self.sizes)
        t1 = clock()
        model = pretrain(corpus, self.sizes)
        t2 = clock()
        self.corpus_s.append(t1 - t0)
        self.pretrain_s.append(t2 - t1)
        digest = param_digest(model)
        if self.digest is None:
            self.digest = digest
        self.gate.op(digest == self.digest, "set-up is not deterministic: start models differ")
        return corpus, model

    def seconds(self):
        return [a + b for a, b in zip(self.corpus_s, self.pretrain_s)]


def _guarded(gate, what, tracer, fn, *args):
    """fn(*args) with the gate's probes (and the tracer's spans, if any)
    installed; None if it raised."""
    with spans.installed(SPAN_TARGETS, tracer=tracer, on_result=gate.probes()):
        try:
            return fn(*args)
        except Exception:
            gate.crashed(what)
            return None


def run_workload(name, seed, seconds, trace, sizes=Sizes()):
    gate = Gate()
    notes = []
    setups = Setups(seed, sizes, gate)
    try:
        corpus, start = setups.run()
    except Exception:
        gate.crashed("set-up")
        return Result(False, gate.attempted, gate.failed, {}, notes, gate.problems)
    work = WORKLOADS[name](corpus, seed, sizes)
    if trace:
        out = _traced(work, start, gate, seconds, notes)
        out["setup.corpus_s"] = (setups.corpus_s[0], "s")
        out["setup.pretrain_s"] = (setups.pretrain_s[0], "s")
        specs = PER_LAYER
    else:
        out = _untraced(work, start, gate, seconds, notes, setups)
        specs = END_TO_END
    ordered = {}
    for n, _, _ in specs:
        if n in out:
            ordered[n] = out[n]
        else:
            gate.op(False, f"metric {n} was not measured")
    notes.append(f"operations: {gate.attempted} attempted, {gate.failed} failed, "
                 f"fail_share {gate.failed / max(gate.attempted, 1):.6f}")
    return Result(gate.failed == 0, gate.attempted, gate.failed, ordered, notes,
                  gate.problems)


class Measurement:
    """The timed loop of a run, which may be resumed after other work.

    A round runs an untraced cycle, then a decode of dev with
    ``decode_model`` at the next beam size in turn, then, if ``traced`` is
    set, a traced cycle; the decode is then traced too, by a tracer of its
    own. ``plain``, ``decode`` and ``traced_best`` hold the Best of each;
    ``summaries`` and ``decode_summaries`` the tracer summaries; ``bleu``
    the dev BLEU by beam size.
    """

    def __init__(self, work, start, gate, decode_model, traced=False):
        self.work = work
        self.start = start
        self.gate = gate
        self.decode_model = decode_model
        self.is_traced = traced
        self.plain = Best(gate, work.name)
        self.decode = Best(gate, f"{work.name} dev decode")
        self.traced_best = Best(gate, work.name, units=self.plain.units)
        self.summaries = []
        self.decode_summaries = []
        self.bleu = {}
        self.rounds = 0
        self.broken = False

    def run(self, seconds):
        work, gate = self.work, self.gate
        t_end = clock() + seconds
        while not self.broken:
            units = _guarded(gate, f"{work.name} cycle", None, work.cycle, self.start, gate)
            if units is None:
                self.broken = True
                break
            self.plain.add(units)
            k = DECODE_BEAMS[self.rounds % len(DECODE_BEAMS)]
            tracer = spans.Tracer() if self.is_traced else None
            decoded = _guarded(gate, f"{work.name} dev decode", tracer, decode_cycle,
                               self.decode_model, work.corpus, gate, (k,))
            if decoded is None:
                self.broken = True
                break
            self.decode.add(decoded[0])
            self.bleu.update(decoded[1])
            if self.is_traced:
                self.decode_summaries.append(tracer.summary())
                tracer = spans.Tracer()
                units = _guarded(gate, f"{work.name} traced cycle", tracer, work.cycle,
                                 self.start, gate)
                if units is None:
                    self.broken = True
                    break
                self.traced_best.add(units)
                self.summaries.append(tracer.summary())
            self.rounds += 1
            if clock() >= t_end and self.rounds >= len(DECODE_BEAMS):
                break


def _heap_peak_mb(work, start, gate):
    """Peak of the memory one cycle allocates, decoder caches included."""
    tracemalloc.start()
    try:
        _guarded(gate, f"{work.name} memory cycle", None, work.cycle, start, gate)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _untraced(work, start, gate, seconds, notes, setups):
    """End-to-end metrics. The timed loop runs in as many segments as there
    are set-ups, each after one, so the samples span the whole run."""
    model = _guarded(gate, f"{work.name} warm-up", None, work.warm_up, start, gate)
    if model is None:
        return {}
    out = {"peak_heap_mb": (_heap_peak_mb(work, start, gate), "MB")}
    try:
        ppl = training.eval_perplexity(start, work.corpus.dev,
                                       training.TrainConfig(batch_size=32), BOS_ID)
    except Exception:
        gate.crashed("dev perplexity")
    else:
        gate.op(finite(ppl), f"dev perplexity is not finite: {ppl}")
        # log perplexity: across seeds it spreads half as much as perplexity
        out["dev_nll"] = (math.log(ppl), "nats/tok")
    # dev decodes of the model the warm-up epoch left behind run between
    # training cycles, so both see the same mix of machine states
    m = Measurement(work, start, gate, model)
    for i in range(work.sizes.setups):
        if i:
            try:
                setups.run()
            except Exception:
                gate.crashed("set-up")
        m.run(seconds / work.sizes.setups)
    setup_s = setups.seconds()
    notes.append(f"{work.name} setup: {len(setup_s)} runs, seconds "
                 f"{', '.join(f'{s:.3f}' for s in setup_s)}")
    out["setup_s"] = (statistics.median(setup_s), "s")
    if not m.rounds:
        return out
    best, dec = m.plain, m.decode
    out["tok_per_s"] = (best.tokens() / best.total_seconds(), "tok/s")
    notes.append(f"{work.name}: {m.rounds} rounds; {len(best.units)} units, "
                 f"{best.tokens()} tokens per cycle; best of {best.samples} samples "
                 f"in {len(best.best)} timing groups")
    for k in DECODE_BEAMS:
        keys = [key for key in dec.units if key[0] == k]
        out[f"decode_k{k}_sent_per_s"] = (len(keys) / dec.total_seconds(keys), "sent/s")
    lat = [dec.seconds(key) for key in dec.units if key[0] == 5]
    out["decode_k5_ms_p50"] = (1000.0 * float(np.percentile(lat, 50)), "ms")
    out["decode_k5_ms_p95"] = (1000.0 * float(np.percentile(lat, 95)), "ms")
    notes.append(f"decode: K=5 latency percentiles over {len(lat)} sentences, each timed "
                 f"as the best of its beam-size and length group; "
                 f"{dec.samples} decodes timed")
    out["dev_bleu"] = (m.bleu[5], "BLEU")
    return out


def _traced(work, start, gate, seconds, notes):
    """Per-layer numbers, per cycle, from traced cycles run between untraced
    ones; the events of every unit must match across both kinds."""
    model = _guarded(gate, f"{work.name} warm-up", None, work.warm_up, start, gate)
    if model is None:
        return {}
    m = Measurement(work, start, gate, model, traced=True)
    m.run(seconds)
    plain = m.plain
    out = {}
    if not m.summaries:
        return out
    first = m.summaries[0]
    for s in m.summaries[1:]:
        if {n: r["calls"] for n, r in s.items()} != {n: r["calls"] for n, r in first.items()}:
            gate.op(False, f"{work.name}: span call counts differ between traced cycles")
    for name, (_, _, suffix) in SPANS.items():
        summaries = m.decode_summaries if name in DECODE_SPANS else m.summaries
        first = summaries[0]
        rec = first.get(name)
        calls = rec["calls"] if rec else 0
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (statistics.median(s[name]["self_s"] if name in s else 0.0
                                                   for s in summaries), "s")
        if suffix:
            unit = "rows" if suffix == "rows_per_call" else "count"
            out[f"{name}.{suffix}"] = (rec["amount"] / calls if calls else 0.0, unit)
        if name in work.expected_spans or name in DECODE_SPANS:
            gate.op(calls > 0, f"{work.name}: span {name} recorded no calls")

    records = violations = zero = steps = 0
    for u in plain.units.values():
        # events: loss, tokens, violations, margin steps, records,
        # violations among records, zero-cost records, segment steps, norms
        records += u.events[4]
        violations += u.events[5]
        zero += u.events[6]
        steps += u.events[7]
    out["training.records"] = (records, "count")
    out["training.violations"] = (violations, "count")
    out["training.zero_delta_share"] = (zero / records if records else 0.0, "share")
    out["training.segment_len_mean"] = (steps / records if records else 0.0, "steps")
    overhead = 100.0 * (m.traced_best.total_seconds() / plain.total_seconds() - 1.0)
    out["trace.overhead_pct"] = (overhead, "%")
    notes.append(f"{work.name}: {len(m.summaries)} traced and {m.rounds} untraced cycles "
                 f"of {len(plain.units)} units; per-layer figures are per cycle, "
                 f"those of {', '.join(DECODE_SPANS)} per dev pass")
    return out
