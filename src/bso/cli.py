"""Command-line orchestration: pretrain, train-bso, decode, eval.

Configuration comes from a flat ``key = value`` file (see RunConfig for
the keys) with command-line flags taking precedence. Every command is
deterministic given (config, seed, data); the effective configuration is
echoed next to the output checkpoint so a run can be reproduced from it.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass

import numpy as np

from . import beam as beam_mod
from . import tasks, training
from .metrics import corpus_bleu, uas_las
from .model import CheckpointError, InputError, ModelConfig, Seq2SeqModel
from .tasks import BOS_ID, EOS, EOS_ID, PAD_ID, UNK, UNK_ID, DataError, Vocab, pad_ids

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
class RunConfig:
    task: str = "word_order"
    constraint: str = "none"
    d_emb: int = 64
    d_h: int = 64
    layers: int = 1
    dropout: float = 0.0
    k_tr: int = 6
    k_te: int = 5
    margin_score: str = "cumulative"
    delta: str = "zero_one"
    lr_main: float = 0.02
    lr_out: float = 0.1
    clip_norm: float = 5.0
    batch_size: int = 16
    min_count: int = 2
    xent_epochs: int = 30
    patience: int = 3
    bso_epochs: int = 10
    curriculum_start: int = 2
    curriculum_epochs_per_increment: int = 2
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
        if self.k_tr < 2:
            raise ConfigError("k_tr must be >= 2")
        if self.margin_score not in ("cumulative", "laststep"):
            raise ConfigError(f"unknown margin_score {self.margin_score!r}")
        if self.delta not in training.DELTA_FNS:
            raise ConfigError(f"unknown delta {self.delta!r}")
        return self

    @classmethod
    def from_file(cls, path):
        values = {}
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
                values[key] = casts[fields[key]](val)
        return cls(**values)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for f in dataclasses.fields(self):
                fh.write(f"{f.name} = {getattr(self, f.name)}\n")

    def train_config(self):
        return training.TrainConfig(**{f.name: getattr(self, f.name)
                                       for f in dataclasses.fields(training.TrainConfig)})


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
    """Return (examples, src_vocab_sentences, tgt_vocab_sentences).

    examples are (src_tokens, tgt_tokens) with EOS already on the target.
    """
    d = cfg.data_dir
    if cfg.task == "word_order":
        sents = read_sentences(f"{d}/{split}.txt")
        rng = np.random.default_rng(cfg.shuffle_seed + (0 if split == "train" else 1))
        examples = [tasks.make_word_ordering_example(s, rng) for s in sents]
        return examples, [s for s in sents], [s for s in sents]
    if cfg.task == "parse":
        parses = tasks.read_conll(f"{d}/{split}.conll")
        examples = []
        skipped = 0
        for p in parses:
            try:
                tgt = tasks.encode_parse_example(p) + [EOS]
            except DataError:
                skipped += 1
                continue
            examples.append((list(p.words), tgt))
        if skipped:
            print(f"# skipped {skipped} non-encodable parse(s) in {split}", file=sys.stderr)
        return examples, [e[0] for e in examples], [e[1] for e in examples]
    srcs = read_sentences(f"{d}/{split}.src")
    tgts = read_sentences(f"{d}/{split}.tgt")
    if len(srcs) != len(tgts):
        raise DataError(f"{split}: source/target line counts differ")
    examples = [(s, t + [EOS]) for s, t in zip(srcs, tgts)]
    return examples, srcs, tgts


def build_vocabs(cfg, src_sents, tgt_sents):
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
    permutation puts the source's out-of-vocabulary words, in source order,
    where it emitted <unk>; other tasks keep <unk>."""
    words = tgt_vocab.decode([t for t in tokens if t not in (PAD_ID, BOS_ID, EOS_ID)],
                             strip_reserved=False)
    if cfg.constraint != "permutation":
        return words
    unknown = iter([w for w, i in zip(src, tgt_vocab.encode(src)) if i == UNK_ID])
    return [next(unknown) if w == UNK else w for w in words]


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
        except beam_mod.ConstraintError as exc:
            exc.sentence = chunk[len(constraints)]
            raise
        try:
            found = beam_mod.beam_search(model, enc, k, constraints,
                                         [max_decode_len(cfg, len(s)) for s in srcs],
                                         BOS_ID, EOS_ID)
        except (beam_mod.DecodeError, beam_mod.NonFiniteScoreError) as exc:
            exc.sentence = chunk[exc.sentence]
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
    train_examples, src_sents, tgt_sents = load_pairs(cfg, "train")
    dev_examples, _, _ = load_pairs(cfg, "dev")
    src_vocab, tgt_vocab = build_vocabs(cfg, src_sents, tgt_sents)
    pairs = encode_pairs(train_examples, src_vocab, tgt_vocab)
    dev_pairs = encode_pairs(dev_examples, src_vocab, tgt_vocab)
    mcfg = ModelConfig(src_vocab=len(src_vocab), tgt_vocab=len(tgt_vocab),
                       d_emb=cfg.d_emb, d_h=cfg.d_h, layers=cfg.layers)
    rng = np.random.default_rng(cfg.seed)
    model = Seq2SeqModel(mcfg, rng=rng)
    tcfg = cfg.train_config()
    extra = {"src_vocab": src_vocab.itos, "tgt_vocab": tgt_vocab.itos,
             "task": cfg.task}
    best = float("inf")
    patience_left = cfg.patience
    print("epoch\tbeam\txent_loss\tviolation_rate\tdev_ppl")
    for epoch in range(1, cfg.xent_epochs + 1):
        stats = training.train_xent_epoch(model, pairs, tcfg, rng, BOS_ID, PAD_ID)
        ppl = training.eval_perplexity(model, dev_pairs, tcfg, BOS_ID, PAD_ID)
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


def load_with_vocabs(path):
    """A checkpoint's model, header ``extra`` and source and target
    vocabularies; CheckpointError if the header stores no vocabularies."""
    model, extra = Seq2SeqModel.load(path, with_extra=True)
    vocabs = []
    for key in ("src_vocab", "tgt_vocab"):
        if not isinstance(extra, dict) or key not in extra:
            raise CheckpointError(f"checkpoint {path} has no {key!r} in its header; "
                                  f"it was not written by bso pretrain or train-bso")
        vocabs.append(Vocab(extra[key][len(tasks.RESERVED):]))
    return model, extra, *vocabs


def cmd_train_bso(cfg, model_in, model_out, allow_cold_start=False):
    cfg.validate()
    if model_in is None and not allow_cold_start:
        raise ConfigError("train-bso requires a pretrained checkpoint "
                          "(use --allow-cold-start to override)")
    train_examples, src_sents, tgt_sents = load_pairs(cfg, "train")
    if model_in is None:
        print("# warning: cold start; BSO training from random initialization "
              "is expected to fail to learn", file=sys.stderr)
        # fresh random model, no cross-entropy phase
        src_vocab, tgt_vocab = build_vocabs(cfg, src_sents, tgt_sents)
        mcfg = ModelConfig(src_vocab=len(src_vocab), tgt_vocab=len(tgt_vocab),
                           d_emb=cfg.d_emb, d_h=cfg.d_h, layers=cfg.layers)
        model = Seq2SeqModel(mcfg, rng=np.random.default_rng(cfg.seed))
        extra = {"src_vocab": src_vocab.itos, "tgt_vocab": tgt_vocab.itos,
                 "task": cfg.task}
    else:
        model, extra, src_vocab, tgt_vocab = load_with_vocabs(model_in)
    dev_examples, _, _ = load_pairs(cfg, "dev")
    pairs = encode_pairs(train_examples, src_vocab, tgt_vocab)
    tcfg = cfg.train_config()
    rng = np.random.default_rng(cfg.seed)
    factory = constraint_factory(cfg, tgt_vocab)
    examples = []
    for i, ((src_ids, tgt_ids), (src_toks, _)) in enumerate(zip(pairs, train_examples)):
        try:
            examples.append((src_ids, tgt_ids, factory(src_toks)))
        except beam_mod.ConstraintError as exc:
            exc.sentence = i
            raise
    best = -float("inf")
    print("epoch\tbeam\tmargin_loss\tviolation_rate\tdev_metric")
    for epoch in range(1, cfg.bso_epochs + 1):
        stats = training.train_bso_epoch(model, examples, tcfg, epoch, rng,
                                         BOS_ID)
        metric = dev_metric(model, cfg, dev_examples, src_vocab, tgt_vocab)
        print(f"{epoch}\t{stats.beam}\t{stats.loss:.4f}\t{stats.violation_rate:.4f}\t{metric:.4f}")
        model.save(model_out + ".last", extra=extra)
        if metric > best:
            best = metric
            model.save(model_out, extra=extra)
    cfg.dump(model_out + ".config")
    return best


def cmd_decode(cfg, model_in, input_path, output_path, k=None, with_scores=False):
    cfg.validate()
    model, _, src_vocab, tgt_vocab = load_with_vocabs(model_in)
    srcs = read_sentences(input_path)
    outs = decode_corpus(model, cfg, srcs, src_vocab, tgt_vocab, k or cfg.k_te)
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
        raise DataError("hypothesis/reference counts differ")
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
                       args.output, k=args.beam, with_scores=args.scores)
        elif args.command == "eval":
            cmd_eval(args.task, args.hyp, args.ref)
    except (ConfigError, DataError, OSError, CheckpointError, InputError,
            beam_mod.ConstraintError, beam_mod.DecodeError,
            FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
