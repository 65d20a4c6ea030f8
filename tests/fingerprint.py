"""Byte-identity fingerprint of the training and decoding arithmetic.

Prints one sha256 per artefact for a seed: the start models;
cross-entropy losses, gradients and parameters; BSO violation records,
gradients and parameters, of minibatches of eight sentences and of one;
beam-search tokens and scores, of batches of 20 sentences and of one; and
the bytes ``save`` writes for each start model. Two versions of the code
that do the same arithmetic and write the same checkpoint format print the
same lines, so a change meant to keep every number can be checked against
its parent by running this script on both and comparing the output:

    PYTHONPATH=src python tests/fingerprint.py --seed 7

The inputs are a seeded word-ordering corpus (40 word types with a hidden
order, 4-8 word sentences, shuffled sources) and small models, so a run
takes seconds. No test pins a hash: each one changes whenever the
arithmetic it covers changes on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import tempfile

import numpy as np

from bso.beam import NoConstraint, PermutationConstraint, beam_search
from bso.model import MaskSet, ModelConfig, Seq2SeqModel
from bso.tasks import BOS_ID, EOS_ID, PAD_ID, pad_ids
from bso.training import (TrainConfig, bso_backward, bso_forward, delta_01,
                          delta_sentence_bleu, make_batches, optimizer_step,
                          train_xent_epoch, xent_loss)

VOCAB = 40
D_EMB, D_H = 16, 24
CONFIG = TrainConfig(batch_size=16, lr_main=0.1, lr_out=0.2)
OUT = ("out.w", "out.b")         # the output layer's slots


def digest(*parts):
    """sha256 of arrays (dtype, shape and bytes) and of anything else by
    its repr; floats by their hex form, so every bit counts."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, float):
            h.update(part.hex().encode())
        else:
            h.update(repr(part).encode())
    return h


def params_digest(model, field="value"):
    return digest(*(getattr(s, field) for s in model.slots())).hexdigest()


def checkpoint_digest(model):
    """sha256 of the checkpoint file ``save`` writes for the model."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.bso")
        model.save(path)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def corpus(rng, n):
    """(source ids, target ids + EOS) pairs: the words of a target in their
    hidden order, its source shuffled."""
    words = np.arange(4, VOCAB)
    rank = rng.permutation(len(words))
    pairs = []
    for _ in range(n):
        sent = rng.choice(words, size=int(rng.integers(4, 9)), replace=False)
        sent = sent[np.argsort(rank[sent - 4])]
        pairs.append((rng.permutation(sent), np.append(sent, EOS_ID)))
    return pairs


def start_model(layers, pairs, seed):
    model = Seq2SeqModel(ModelConfig(VOCAB, VOCAB, D_EMB, D_H, layers),
                         rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for _ in range(2):
        train_xent_epoch(model, pairs, CONFIG, rng, BOS_ID)
    return model


def copy_of(model):
    """An identical copy: parameters and Adagrad accumulators."""
    return model.astype(model.dtype)


def xent_artefacts(start, pairs, dropout, seed):
    """Losses and gradients of six minibatches, with an update after each."""
    model = copy_of(start)
    rng = np.random.default_rng(seed + 2)
    losses, grads = digest(), digest()
    for src, s_len, tgt, t_len in make_batches(pairs, 16, rng)[:6]:
        masks = None
        if dropout:
            masks = MaskSet.build(dropout, model.config.layers, src.shape[1], tgt.shape[1],
                                  rng, D_H, dtype=model.dtype)
        model.zero_grads()
        loss = xent_loss(model, model.encode(src, s_len, masks), tgt, t_len, BOS_ID)
        losses.update(digest(float(loss), int(t_len.sum())).digest())
        grads.update(digest(*(s.grad for s in model.slots())).digest())
        optimizer_step(model, CONFIG)
    return {"loss": losses.hexdigest(), "grad": grads.hexdigest(),
            "params": params_digest(model)}


def record_digest(rec):
    """A violation record's fields, margin scores included."""
    return digest(rec.t, rec.r, rec.violating_tokens, rec.gold_score, rec.viol_score,
                  rec.delta, rec.sentence)


def bso_artefacts(start, pairs, constrained, seed, k=6, margin_score="cumulative",
                  dropout=0.0, size=8):
    """Records and gradients of the first 32 pairs in minibatches of
    ``size`` (four of eight by default), with an update after each:
    permutation constraint with 0/1 cost, or no constraint with
    sentence-BLEU cost, under ``margin_score``. With ``dropout``, each
    minibatch draws one MaskSet, which the search applies and the backward
    replays. ``grad0.out`` is the first minibatch's out.w and out.b
    gradient, ``grad0.rest`` every other slot's."""
    model = copy_of(start)
    rng = np.random.default_rng(seed + 3)
    delta = delta_01 if constrained else delta_sentence_bleu
    records, grads = digest(), digest()
    for lo in range(0, 32, size):
        batch = pairs[lo:lo + size]
        src, lengths = pad_ids([s for s, _ in batch])
        golds = [t for _, t in batch]
        constraints = [PermutationConstraint(VOCAB, s, EOS_ID) if constrained
                       else NoConstraint(VOCAB, blocked=(PAD_ID, BOS_ID)) for s, _ in batch]
        masks = None
        if dropout:
            masks = MaskSet.build(dropout, model.config.layers, src.shape[1],
                                  max(len(g) for g in golds), rng, D_H, dtype=model.dtype)
        enc = model.encode(src, lengths, masks)
        fwd = bso_forward(model, enc, golds, k, constraints, delta, BOS_ID,
                          margin_score=margin_score)
        for rec in fwd.records:
            records.update(record_digest(rec).digest())
        model.zero_grads()
        bso_backward(model, fwd)
        if not lo:
            # the first gradient, before clipping and Adagrad spread a
            # difference to every parameter, the output layer apart
            slots = model.slots()
            grad0 = {"grad0.out": digest(*(s.grad for s in slots if s.name in OUT)).hexdigest(),
                     "grad0.rest": digest(*(s.grad for s in slots
                                            if s.name not in OUT)).hexdigest()}
        grads.update(digest(*(s.grad for s in model.slots())).digest())
        optimizer_step(model, CONFIG)
    return {"records": records.hexdigest(), "grad": grads.hexdigest(), **grad0,
            "params": params_digest(model)}


def decode_artefact(model, pairs, k, constrained, chunk=20):
    """Tokens and scores of beam_search over the pairs' sources, in chunks
    of ``chunk``. Chunks of one take the one-row paths of a beam step (a
    one-row beam at K=1 and at every first step, single-segment ranking)."""
    h = digest()
    for lo in range(0, len(pairs), chunk):
        srcs = [s for s, _ in pairs[lo:lo + chunk]]
        enc = model.encode(*pad_ids(srcs))
        if constrained:
            constraints = [PermutationConstraint(VOCAB, s, EOS_ID) for s in srcs]
            max_lens = [len(s) + 1 for s in srcs]
        else:
            constraints = [NoConstraint(VOCAB, blocked=(PAD_ID, BOS_ID)) for _ in srcs]
            max_lens = [2 * len(s) + 5 for s in srcs]
        for tokens, score in beam_search(model, enc, k, constraints, max_lens, BOS_ID, EOS_ID):
            h.update(digest(tokens, float(score)).digest())
    return h.hexdigest()


def fingerprint(seed):
    """(artefact name, sha256) pairs, in a fixed order."""
    rng = np.random.default_rng(seed)
    train, dev = corpus(rng, 160), corpus(rng, 60)
    out = []
    starts = {layers: start_model(layers, train, seed) for layers in (1, 2)}
    for layers, model in starts.items():
        out.append((f"start.layers{layers}.params", params_digest(model)))
        out.append((f"start.layers{layers}.accum", params_digest(model, "adagrad_accum")))
    # one layer has no dropout: masks apply between stacked layers
    for layers, dropout in ((1, 0.0), (2, 0.0), (2, 0.3)):
        for name, h in xent_artefacts(starts[layers], train, dropout, seed).items():
            out.append((f"xent.layers{layers}.dropout{dropout}.{name}", h))
    for constrained, regime in ((True, "perm-zero_one"), (False, "free-sentence_bleu")):
        for name, h in bso_artefacts(starts[1], train, constrained, seed).items():
            out.append((f"bso.{regime}.k6.{name}", h))
    for name, h in bso_artefacts(starts[1], train, True, seed, margin_score="laststep").items():
        out.append((f"bso.perm-zero_one.k6.laststep.{name}", h))
    for name, h in bso_artefacts(starts[2], train, True, seed, dropout=0.3).items():
        out.append((f"bso.perm-zero_one.k6.layers2.dropout0.3.{name}", h))
    # one sentence per minibatch: every backward step runs at one or two
    # rows, the gold row and a violating one
    one = bso_artefacts(starts[1], train, True, seed, size=1)
    for name in ("records", "grad", "params"):
        out.append((f"bso.perm-zero_one.k6.batch1.{name}", one[name]))
    for constrained, regime in ((True, "perm"), (False, "free")):
        for k in (1, 5, 10):
            out.append((f"decode.{regime}.k{k}", decode_artefact(starts[1], dev, k, constrained)))
    for constrained, regime in ((True, "perm"), (False, "free")):
        for k in (1, 5, 10):
            out.append((f"decode.{regime}.k{k}.batch1",
                        decode_artefact(starts[1], dev, k, constrained, chunk=1)))
    for layers, model in starts.items():
        out.append((f"checkpoint.layers{layers}", checkpoint_digest(model)))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    for name, h in fingerprint(args.seed):
        print(f"{name}\t{h}")


if __name__ == "__main__":
    main()
