"""Evaluation metrics: corpus BLEU, smoothed sentence BLEU, UAS/LAS."""

from __future__ import annotations

import math
from collections import Counter

# Tokens made entirely of these characters are excluded from attachment
# scoring.
PUNCTUATION = set(",.:;!?\"'`()[]{}-–—…«»``''")
MAX_N = 4   # BLEU-4


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(hypotheses, references):
    """Corpus-level BLEU in [0, 100]: modified n-gram precision with a
    brevity penalty, no smoothing."""
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis/reference counts differ")
    matches = [0] * MAX_N
    totals = [0] * MAX_N
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp = list(hyp)
        ref = list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, MAX_N + 1):
            hgrams = _ngrams(hyp, n)
            rgrams = _ngrams(ref, n)
            totals[n - 1] += sum(hgrams.values())
            matches[n - 1] += sum(min(c, rgrams[g]) for g, c in hgrams.items())
    if hyp_len == 0:
        return 0.0
    log_p = 0.0
    for n in range(MAX_N):
        if totals[n] == 0 or matches[n] == 0:
            return 0.0
        log_p += math.log(matches[n] / totals[n])
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_p / MAX_N)


def sentence_bleu_smoothed(hyp, ref):
    """Smoothed sentence-level BLEU in [0, 1].

    Add-1 smoothing on the n-gram precision numerators and denominators for
    n >= 2; unigram precision is unsmoothed. Segments shorter than MAX_N
    use a truncated maximum n-gram order.
    """
    hyp = list(hyp)
    ref = list(ref)
    if not hyp or not ref:
        return 1.0 if hyp == ref else 0.0
    n_max = max(1, min(MAX_N, len(hyp), len(ref)))
    log_p = 0.0
    for n in range(1, n_max + 1):
        hgrams = _ngrams(hyp, n)
        rgrams = _ngrams(ref, n)
        total = sum(hgrams.values())
        match = sum(min(c, rgrams[g]) for g, c in hgrams.items())
        if n >= 2:
            match += 1
            total += 1
        if match == 0:
            return 0.0
        log_p += math.log(match / total)
    bp = 1.0 if len(hyp) >= len(ref) else math.exp(1.0 - len(ref) / len(hyp))
    return bp * math.exp(log_p / n_max)


def is_punctuation(token):
    return bool(token) and all(ch in PUNCTUATION for ch in token)


def uas_las(predicted, gold):
    """Attachment scores as percentages, punctuation excluded.

    predicted/gold: aligned lists of ParseExample-like objects with
    ``words``, ``heads`` and ``labels``.
    """
    if len(predicted) != len(gold):
        raise ValueError("predicted/gold example counts differ")
    total = 0
    head_ok = 0
    both_ok = 0
    for p, g in zip(predicted, gold):
        if list(p.words) != list(g.words):
            raise ValueError("predicted/gold words differ")
        for i, w in enumerate(g.words):
            if is_punctuation(w):
                continue
            total += 1
            if p.heads[i] == g.heads[i]:
                head_ok += 1
                if p.labels[i] == g.labels[i]:
                    both_ok += 1
    if total == 0:
        return 0.0, 0.0
    return 100.0 * head_ok / total, 100.0 * both_ok / total
