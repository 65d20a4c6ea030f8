"""Command-line orchestration: pretrain, train-bso, decode, eval.

Configuration comes from a flat ``key = value`` file (see RunConfig for
the keys) with command-line flags taking precedence. Every command is
deterministic given (config, seed, data); the effective configuration is
echoed next to the output checkpoint so a run can be reproduced from it.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import beam as beam_mod
from . import tasks, training
from .metrics import corpus_bleu, uas_las
from .model import CheckpointError, InputError, ModelConfig, Seq2SeqModel
from .tasks import BOS_ID, EOS, EOS_ID, PAD_ID, DataError, Vocab, pad_ids

TASKS = ("word_order", "parse", "translate")
CONSTRAINTS = ("none", "permutation", "arc_standard")
TASK_CONSTRAINTS = {
    "word_order": ("none", "permutation"),
    "parse": ("none", "arc_standard"),
    "translate": ("none",),
}
# Sentences decoded together by decode_corpus: one lockstep search per chunk
DECODE_CHUNK = 32


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig(training.TrainConfig):
    """A run's settings: TrainConfig's training settings plus the task,
    the model sizes, the data and the stopping rules."""

    task: str = "word_order"
    constraint: str = "none"
    d_emb: int = 64
    d_h: int = 64
    layers: int = 1
    k_te: int = 5
    min_count: int = 2
    xent_epochs: int = 30
    patience: int = 3
    bso_epochs: int = 10
    seed: int = 1
    data_dir: str = "."
    shuffle_seed: int = 1234

    def validate(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if self.constraint not in CONSTRAINTS:
            raise ConfigError(f"unknown constraint {self.constraint!r}")
        if self.constraint != "none" and self.constraint not in TASK_CONSTRAINTS[self.task]:
            raise ConfigError(f"constraint {self.constraint!r} incompatible with task {self.task!r}")
        if self.margin_score not in training.MARGIN_SCORES:
            raise ConfigError(f"unknown margin_score {self.margin_score!r}")
        if self.delta not in training.DELTA_FNS:
            raise ConfigError(f"unknown delta {self.delta!r}")
        minimum = {"d_emb": 1, "d_h": 1, "layers": 1, "batch_size": 1, "k_tr": 2, "k_te": 1,
                   "xent_epochs": 1, "bso_epochs": 1, "patience": 1, "curriculum_start": 2,
                   "curriculum_epochs_per_increment": 1, "seed": 0, "shuffle_seed": 0}
        for key, low in minimum.items():
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}")
        for key in ("lr_main", "lr_out", "clip_norm"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be positive and finite")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.dropout > 0 and self.layers == 1:
            # dropout applies between stacked layers: one layer has none
            raise ConfigError(f"dropout = {self.dropout} needs layers >= 2, got layers = 1")
        return self

    @classmethod
    def from_file(cls, path):
        values, first_line = {}, {}
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        casts = {"int": int, "float": float, "str": str}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, val = (part.strip() for part in line.split("=", 1))
                if key not in fields:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                if key in first_line:
                    raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line "
                                      f"{first_line[key]}")
                first_line[key] = lineno
                try:
                    values[key] = casts[fields[key]](val)
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: {key}: {val!r} is not "
                                      f"of type {fields[key]}") from None
        return cls(**values)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for f in dataclasses.fields(self):
                fh.write(f"{f.name} = {getattr(self, f.name)}\n")


# ---------------------------------------------------------------------------
# Data plumbing


def read_sentences(path):
    """A plain corpus of which every line must hold a sentence; DataError
    names the first blank line."""
    sents = tasks.read_plain_corpus(path)
    for lineno, sent in enumerate(sents, start=1):
        if not sent:
            raise DataError(f"{path}:{lineno}: blank line; every line must hold a sentence")
    return sents


def load_pairs(cfg, split):
    """Return (examples, lines).

    examples are (src_tokens, tgt_tokens) with EOS already on the target;
    lines[i] is the index in its file of example i's sentence (a line, or
    a tree for ``parse``, which skips trees it cannot encode). A split
    with no example raises DataError naming its file: nothing could be
    trained, or a checkpoint chosen, on it.
    """
    d = cfg.data_dir
    if cfg.task == "word_order":
        path = f"{d}/{split}.txt"
        sents = read_sentences(path)
        rng = np.random.default_rng(cfg.shuffle_seed + (0 if split == "train" else 1))
        examples = [tasks.make_word_ordering_example(s, rng) for s in sents]
        lines = range(len(examples))
    elif cfg.task == "parse":
        path = f"{d}/{split}.conll"
        parses = tasks.read_conll(path)
        examples, lines = [], []
        for i, p in enumerate(parses):
            try:
                tgt = tasks.encode_parse_example(p) + [EOS]
            except DataError:
                continue
            examples.append((list(p.words), tgt))
            lines.append(i)
        if len(lines) < len(parses):
            print(f"# skipped {len(parses) - len(lines)} non-encodable parse(s) in {split}",
                  file=sys.stderr)
    else:
        path, tgt_path = f"{d}/{split}.src", f"{d}/{split}.tgt"
        srcs = read_sentences(path)
        tgts = read_sentences(tgt_path)
        if len(srcs) != len(tgts):
            raise DataError(f"{path} and {tgt_path} differ in length: "
                            f"{len(srcs)} against {len(tgts)} lines")
        examples = [(s, t + [EOS]) for s, t in zip(srcs, tgts)]
        lines = range(len(examples))
    if not examples:
        what = "tree it can encode" if cfg.task == "parse" else "sentence"
        raise DataError(f"{path}: the {split} split has no {what}")
    return examples, lines


def build_vocabs(cfg, examples):
    """Source and target vocabularies of the examples' tokens. A word
    ordering source is a shuffle of its sentence, and Vocab drops the EOS
    that ends every target."""
    src_sents = [s for s, _ in examples]
    tgt_sents = [t for _, t in examples]
    if cfg.task == "word_order":
        vocab = Vocab.build(src_sents, min_count=cfg.min_count)
        return vocab, vocab
    if cfg.task == "parse":
        actions = sorted({t for sent in tgt_sents for t in sent if tasks.is_action(t)})
        src_vocab = Vocab.build(src_sents, min_count=cfg.min_count)
        tgt_vocab = Vocab.build(src_sents, min_count=cfg.min_count, extra_tokens=actions)
        return src_vocab, tgt_vocab
    return (Vocab.build(src_sents, min_count=cfg.min_count),
            Vocab.build(tgt_sents, min_count=cfg.min_count))


def fresh_model(cfg, examples, rng):
    """A model of ``cfg``'s sizes over vocabularies built from the
    examples, its weights drawn from ``rng``: (model, checkpoint header
    ``extra``, source vocabulary, target vocabulary), as
    :func:`load_with_vocabs` returns them."""
    src_vocab, tgt_vocab = build_vocabs(cfg, examples)
    mcfg = ModelConfig(src_vocab=len(src_vocab), tgt_vocab=len(tgt_vocab),
                       d_emb=cfg.d_emb, d_h=cfg.d_h, layers=cfg.layers)
    extra = {"src_vocab": src_vocab.itos, "tgt_vocab": tgt_vocab.itos, "task": cfg.task}
    return Seq2SeqModel(mcfg, rng=rng), extra, src_vocab, tgt_vocab


def encode_pairs(examples, src_vocab, tgt_vocab):
    return [(np.array(src_vocab.encode(s), dtype=np.int64),
             np.array(tgt_vocab.encode(t), dtype=np.int64))
            for s, t in examples]


def constraint_factory(cfg, tgt_vocab):
    """Build the initial constraint state for one example.

    Returns a callable taking the source token list (words, not ids).
    """
    v = len(tgt_vocab)
    if cfg.constraint == "none":
        return lambda src: beam_mod.NoConstraint(v, blocked=(PAD_ID, BOS_ID))
    if cfg.constraint == "permutation":
        return lambda src: beam_mod.PermutationConstraint(
            v, tgt_vocab.encode(src), EOS_ID)
    reduce_ids = [i for i, t in enumerate(tgt_vocab.itos) if tasks.is_action(t)]
    return lambda src: beam_mod.ArcStandardConstraint(
        v, tgt_vocab.encode(src), reduce_ids, EOS_ID)


def max_decode_len(cfg, src_len):
    if cfg.task == "parse":
        return 2 * src_len + 1 if cfg.constraint == "arc_standard" else 3 * src_len + 5
    if cfg.task == "word_order" and cfg.constraint == "permutation":
        return src_len + 1
    return 2 * src_len + 5


def output_words(cfg, tokens, src, tgt_vocab):
    """The words of a decoded id sequence, without PAD/BOS/EOS. A
    permutation writes back the source's own words: each id becomes the
    next unused source word with that id, in source order."""
    ids = [t for t in tokens if t not in (PAD_ID, BOS_ID, EOS_ID)]
    if cfg.constraint != "permutation":
        return tgt_vocab.decode(ids, strip_reserved=False)
    unused = {}
    for w, i in zip(src, tgt_vocab.encode(src)):
        unused.setdefault(i, []).append(w)
    return [unused[i].pop(0) for i in ids]


def decode_corpus(model, cfg, src_sentences, src_vocab, tgt_vocab, k):
    """(target words, score) per source sentence, in input order. Sources
    are sorted by length and searched in chunks of DECODE_CHUNK; an error
    building a constraint or searching names the sentence by its input
    index."""
    factory = constraint_factory(cfg, tgt_vocab)
    order = sorted(range(len(src_sentences)), key=lambda i: len(src_sentences[i]))
    outputs = [None] * len(order)
    for lo in range(0, len(order), DECODE_CHUNK):
        chunk = order[lo:lo + DECODE_CHUNK]
        srcs = [src_sentences[i] for i in chunk]
        enc = model.encode(*pad_ids([src_vocab.encode(s) for s in srcs]))
        constraints = []
        try:
            for s in srcs:
                constraints.append(factory(s))
            found = beam_mod.beam_search(model, enc, k, constraints,
                                         [max_decode_len(cfg, len(s)) for s in srcs],
                                         BOS_ID, EOS_ID)
        except beam_mod.SentenceError as exc:
            # a constraint that could not be built names no sentence: the next one
            exc.sentence = chunk[len(constraints) if exc.sentence is None else exc.sentence]
            raise
        for i, s, (tokens, score) in zip(chunk, srcs, found):
            outputs[i] = (output_words(cfg, tokens, s, tgt_vocab), score)
    return outputs


# ---------------------------------------------------------------------------
# Dev metric used for model selection during BSO training


def dev_metric(model, cfg, dev_examples, src_vocab, tgt_vocab):
    hyps = [hyp for hyp, _ in decode_corpus(model, cfg, [s for s, _ in dev_examples],
                                            src_vocab, tgt_vocab, cfg.k_te)]
    if cfg.task == "parse":
        golds, preds = [], []
        for (src, tgt), hyp in zip(dev_examples, hyps):
            golds.append(tasks.decode_parse_sequence(tgt, src, strict=False))
            preds.append(tasks.decode_parse_sequence(hyp, src, strict=False))
        return uas_las(preds, golds)[0]
    refs = [t[:-1] if t and t[-1] == EOS else t for _, t in dev_examples]
    return corpus_bleu(hyps, refs)


# ---------------------------------------------------------------------------
# Commands


def cmd_pretrain(cfg, model_out):
    cfg.validate()
    train_examples = load_pairs(cfg, "train")[0]
    dev_examples = load_pairs(cfg, "dev")[0]
    # the initial weights come from the rng that then shuffles the batches
    rng = np.random.default_rng(cfg.seed)
    model, extra, src_vocab, tgt_vocab = fresh_model(cfg, train_examples, rng)
    pairs = encode_pairs(train_examples, src_vocab, tgt_vocab)
    dev_pairs = encode_pairs(dev_examples, src_vocab, tgt_vocab)
    best = float("inf")
    patience_left = cfg.patience
    print("epoch\tbeam\txent_loss\tviolation_rate\tdev_ppl")
    for epoch in range(1, cfg.xent_epochs + 1):
        stats = training.train_xent_epoch(model, pairs, cfg, rng, BOS_ID)
        ppl = training.eval_perplexity(model, dev_pairs, cfg, BOS_ID)
        print(f"{epoch}\t-\t{stats.loss:.4f}\t-\t{ppl:.4f}")
        model.save(model_out + ".last", extra=extra)
        if ppl < best:
            best = ppl
            patience_left = cfg.patience
            model.save(model_out, extra=extra)
        else:
            patience_left -= 1
            if patience_left == 0:
                break
    cfg.dump(model_out + ".config")
    return best


def load_with_vocabs(path, task):
    """A checkpoint's model, header ``extra`` and source and target
    vocabularies; CheckpointError if the header stores no vocabularies or
    one whose size is not its model's, ConfigError if it was written for a
    task other than ``task`` (a header without a task loads for any)."""
    model, extra = Seq2SeqModel.load(path)
    if isinstance(extra, dict) and extra.get("task", task) != task:
        raise ConfigError(f"checkpoint {path} was written for task {extra['task']!r}; "
                          f"the configuration is for task {task!r}")
    keys = ("src_vocab", "tgt_vocab")
    for key in keys:
        if not isinstance(extra, dict) or key not in extra:
            raise CheckpointError(f"checkpoint {path} has no {key!r} in its header; "
                                  f"it was not written by bso pretrain or train-bso")
    vocabs = [Vocab(extra[key][len(tasks.RESERVED):]) for key in keys]
    for key, vocab in zip(keys, vocabs):
        if len(vocab) != getattr(model.config, key):
            raise CheckpointError(f"checkpoint {path} header {key!r} has {len(vocab)} "
                                  f"entries; its model has {getattr(model.config, key)}")
    return model, extra, *vocabs


def bso_epochs(model, cfg, pairs, train_examples, lines, tgt_vocab, rng):
    """Build each training example's constraint, then run the BSO epochs,
    yielding (epoch, EpochStats) after each. A SentenceError names the
    sentence by ``lines``: its index in the training file."""
    factory = constraint_factory(cfg, tgt_vocab)
    examples = []
    try:
        for (src_ids, tgt_ids), (src_toks, _) in zip(pairs, train_examples):
            examples.append((src_ids, tgt_ids, factory(src_toks)))
        for epoch in range(1, cfg.bso_epochs + 1):
            yield epoch, training.train_bso_epoch(model, examples, cfg, epoch, rng, BOS_ID)
    except beam_mod.SentenceError as exc:
        # a constraint that could not be built names no sentence: the next one
        exc.sentence = lines[len(examples) if exc.sentence is None else exc.sentence]
        raise


def cmd_train_bso(cfg, model_in, model_out, allow_cold_start=False):
    cfg.validate()
    if model_in is None and not allow_cold_start:
        raise ConfigError("train-bso requires a pretrained checkpoint "
                          "(use --allow-cold-start to override)")
    train_examples, lines = load_pairs(cfg, "train")
    dev_examples = load_pairs(cfg, "dev")[0]
    if model_in is None:
        print("# warning: cold start; BSO training from random initialization "
              "is expected to fail to learn", file=sys.stderr)
        # fresh random model, no cross-entropy phase
        model, extra, src_vocab, tgt_vocab = fresh_model(
            cfg, train_examples, np.random.default_rng(cfg.seed))
    else:
        model, extra, src_vocab, tgt_vocab = load_with_vocabs(model_in, cfg.task)
        # the echoed configuration must describe the model it trained
        for key in ("d_emb", "d_h", "layers"):
            have, want = getattr(model.config, key), getattr(cfg, key)
            if have != want:
                raise ConfigError(f"checkpoint {model_in} has {key} = {have}; "
                                  f"the configuration has {key} = {want}")
    pairs = encode_pairs(train_examples, src_vocab, tgt_vocab)
    rng = np.random.default_rng(cfg.seed)
    best = -float("inf")
    print("epoch\tbeam\tmargin_loss\tviolation_rate\tdev_metric")
    for epoch, stats in bso_epochs(model, cfg, pairs, train_examples, lines, tgt_vocab, rng):
        metric = dev_metric(model, cfg, dev_examples, src_vocab, tgt_vocab)
        print(f"{epoch}\t{stats.beam}\t{stats.loss:.4f}\t{stats.violation_rate:.4f}\t{metric:.4f}")
        model.save(model_out + ".last", extra=extra)
        if metric > best:
            best = metric
            model.save(model_out, extra=extra)
    cfg.dump(model_out + ".config")
    return best


def cmd_decode(cfg, model_in, input_path, output_path, with_scores=False):
    cfg.validate()
    model, _, src_vocab, tgt_vocab = load_with_vocabs(model_in, cfg.task)
    srcs = read_sentences(input_path)
    outs = decode_corpus(model, cfg, srcs, src_vocab, tgt_vocab, cfg.k_te)
    with open(output_path, "w", encoding="utf-8") as fh:
        for toks, score in outs:
            line = " ".join(toks)
            if with_scores:
                line += f"\t{score:.6f}"
            fh.write(line + "\n")
    return len(outs)


def cmd_eval(task, hyp_path, ref_path):
    hyps = tasks.read_plain_corpus(hyp_path)
    refs = tasks.read_conll(ref_path) if task == "parse" else tasks.read_plain_corpus(ref_path)
    if len(hyps) != len(refs):
        raise DataError(f"{hyp_path} and {ref_path} differ in length: "
                        f"{len(hyps)} against {len(refs)} sentences")
    if task == "parse":
        preds = [tasks.decode_parse_sequence(h, g.words, strict=False)
                 for h, g in zip(hyps, refs)]
        uas, las = uas_las(preds, refs)
        print(f"UAS\t{uas:.4f}")
        print(f"LAS\t{las:.4f}")
        return uas, las
    bleu = corpus_bleu(hyps, refs)
    print(f"BLEU\t{bleu:.4f}")
    return bleu


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(p):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--data-dir")
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--constraint", choices=CONSTRAINTS)
    p.add_argument("--delta", choices=tuple(training.DELTA_FNS))
    p.add_argument("--beam", type=int, help="override k_te (and decode beam)")
    p.add_argument("--seed", type=int)


def _build_config(args):
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    for key in ("data_dir", "task", "constraint", "delta", "seed"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if getattr(args, "beam", None) is not None:
        cfg.k_te = args.beam
    return cfg


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bso")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="cross-entropy pretraining")
    _add_common(p)
    p.add_argument("--model-out", required=True)

    p = sub.add_parser("train-bso", help="beam search optimization training")
    _add_common(p)
    p.add_argument("--model-in")
    p.add_argument("--model-out", required=True)
    p.add_argument("--allow-cold-start", action="store_true")

    p = sub.add_parser("decode", help="beam decode an input file")
    _add_common(p)
    p.add_argument("--model-in", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--scores", action="store_true",
                   help="append the cumulative score as a TSV column")

    p = sub.add_parser("eval", help="score hypotheses against references")
    p.add_argument("--task", choices=TASKS, required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "pretrain":
            cmd_pretrain(_build_config(args), args.model_out)
        elif args.command == "train-bso":
            cmd_train_bso(_build_config(args), args.model_in, args.model_out,
                          allow_cold_start=args.allow_cold_start)
        elif args.command == "decode":
            cmd_decode(_build_config(args), args.model_in, args.input,
                       args.output, with_scores=args.scores)
        elif args.command == "eval":
            cmd_eval(args.task, args.hyp, args.ref)
    except (ConfigError, DataError, OSError, CheckpointError, InputError,
            beam_mod.SentenceError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
