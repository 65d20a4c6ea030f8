"""Data ingestion and task-specific example construction.

Covers vocabulary building (singleton -> UNK, digit normalization), word
ordering examples (shuffled source, ordered target), parsing as a sequence
(source words interleaved with shift-reduce actions) and the file formats:
plain one-sentence-per-line corpora and CoNLL-style parse files.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3
PAD, UNK, BOS, EOS = "<pad>", "<unk>", "<s>", "</s>"
RESERVED = [PAD, UNK, BOS, EOS]

ROOT_LABEL = "root"
LEFT_PREFIX = "@L_"
RIGHT_PREFIX = "@R_"

_DIGITS = re.compile(r"\d")


class DataError(ValueError):
    """Malformed or unencodable input data."""


def normalize_digits(token):
    """Replace every digit character with '0'."""
    return _DIGITS.sub("0", token)


class Vocab:
    """Token/id bijection with fixed reserved ids PAD=0 UNK=1 BOS=2 EOS=3."""

    def __init__(self, tokens):
        self.itos = list(RESERVED) + [t for t in tokens if t not in RESERVED]
        self.stoi = {t: i for i, t in enumerate(self.itos)}
        if len(self.stoi) != len(self.itos):
            raise DataError("duplicate tokens in vocabulary")

    def __len__(self):
        return len(self.itos)

    @classmethod
    def build(cls, sentences, min_count=2, extra_tokens=()):
        """Count digit-normalized tokens; words below min_count become UNK.

        extra_tokens (action symbols and such) are always kept.
        """
        counts = Counter()
        for sent in sentences:
            for tok in sent:
                counts[normalize_digits(tok)] += 1
        kept = sorted((t for t, c in counts.items() if c >= min_count),
                      key=lambda t: (-counts[t], t))
        extras = [t for t in extra_tokens if t not in kept]
        return cls(kept + extras)

    def encode(self, tokens):
        return [self.stoi.get(normalize_digits(t), UNK_ID) for t in tokens]

    def decode(self, ids, strip_reserved=True):
        toks = [self.itos[i] for i in ids]
        if strip_reserved:
            toks = [t for t in toks if t not in RESERVED]
        return toks


# ---------------------------------------------------------------------------
# Word ordering


def make_word_ordering_example(sentence, rng):
    """(shuffled source, original target + EOS) from one token list."""
    if len(sentence) < 1:
        raise DataError("empty sentence")
    source = list(sentence)
    rng.shuffle(source)
    return source, list(sentence) + [EOS]


# ---------------------------------------------------------------------------
# Dependency parsing as a sequence


@dataclass
class ParseExample:
    """One parsed sentence; heads are 1-based with 0 for the root."""

    words: list
    heads: list
    labels: list

    def __post_init__(self):
        n = len(self.words)
        if len(self.heads) != n or len(self.labels) != n:
            raise DataError("words/heads/labels lengths differ")


def is_action(token):
    return token.startswith(LEFT_PREFIX) or token.startswith(RIGHT_PREFIX)


def encode_parse_example(p):
    """Arc-standard oracle: source words interleaved with reduce actions.

    A shift emits the word itself; attaching the second-top stack item to
    the top emits '@L_<label>', attaching the top to the second-top emits
    '@R_<label>'. The root word's own label is not emitted (decode restores
    it as ROOT_LABEL). Raises DataError for non-projective or multi-rooted
    trees.
    """
    n = len(p.words)
    roots = [i for i in range(n) if p.heads[i] == 0]
    if len(roots) != 1:
        raise DataError("tree must have exactly one root word")
    n_children = Counter(h for h in p.heads if h > 0)
    attached = Counter()
    stack = []
    buf = list(range(1, n + 1))
    out = []
    while True:
        if len(stack) >= 2:
            s0, s1 = stack[-1], stack[-2]
            if p.heads[s1 - 1] == s0 and attached[s1] == n_children[s1]:
                out.append(LEFT_PREFIX + p.labels[s1 - 1])
                attached[s0] += 1
                del stack[-2]
                continue
            if p.heads[s0 - 1] == s1 and attached[s0] == n_children[s0]:
                out.append(RIGHT_PREFIX + p.labels[s0 - 1])
                attached[s1] += 1
                stack.pop()
                continue
        if buf:
            i = buf.pop(0)
            out.append(p.words[i - 1])
            stack.append(i)
            continue
        break
    if len(stack) != 1:
        raise DataError("tree is not projective under arc-standard transitions")
    return out


def decode_parse_sequence(tokens, words, strict=True):
    """Inverse of encode_parse_example.

    Strict, it raises DataError on an invalid sequence. Otherwise it
    repairs one: illegal reduces are ignored, word tokens shift the next
    source word regardless of identity, and anything left unattached hangs
    off the root with the default label. Valid sequences decode exactly
    either way.
    """
    n = len(words)
    heads = [None] * n
    labels = [None] * n
    stack = []
    nxt = 1
    for tok in tokens:
        if tok == EOS:
            continue
        if is_action(tok):
            if len(stack) < 2:
                if strict:
                    raise DataError("reduce action with stack depth < 2")
                continue
            s0, s1 = stack[-1], stack[-2]
            label = tok[len(LEFT_PREFIX):]
            if tok.startswith(LEFT_PREFIX):
                heads[s1 - 1] = s0
                labels[s1 - 1] = label
                del stack[-2]
            else:
                heads[s0 - 1] = s1
                labels[s0 - 1] = label
                stack.pop()
        elif nxt <= n and (not strict or tok == words[nxt - 1]):
            stack.append(nxt)
            nxt += 1
        elif strict:
            raise DataError(f"unexpected word token {tok!r} at source position {nxt}")
    if strict and (nxt <= n or len(stack) != 1):
        raise DataError("action sequence does not parse the full sentence")
    for i in range(n):
        if heads[i] is None:
            heads[i] = 0
            labels[i] = ROOT_LABEL
    return ParseExample(list(words), heads, labels)


def decode_failure_fallback(tokens, words):
    """The repairing decode: ``decode_parse_sequence(..., strict=False)``."""
    return decode_parse_sequence(tokens, words, strict=False)


# ---------------------------------------------------------------------------
# File formats


def read_plain_corpus(path):
    """UTF-8, one tokenized sentence per line, space separated."""
    sentences = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            toks = line.split()
            if toks:
                sentences.append(toks)
    return sentences


def write_plain_corpus(path, sentences):
    with open(path, "w", encoding="utf-8") as fh:
        for sent in sentences:
            fh.write(" ".join(sent) + "\n")


def read_conll(path):
    """CoNLL-style TSV: index, form, head, label; blank line between trees."""
    examples = []
    words, heads, labels = [], [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                if words:
                    examples.append(ParseExample(words, heads, labels))
                    words, heads, labels = [], [], []
                continue
            fields = line.split("\t")
            if len(fields) < 4:
                raise DataError(f"bad CoNLL line: {line!r}")
            words.append(fields[1])
            heads.append(int(fields[2]))
            labels.append(fields[3])
    if words:
        examples.append(ParseExample(words, heads, labels))
    return examples


def write_conll(path, examples):
    with open(path, "w", encoding="utf-8") as fh:
        for p in examples:
            for i, (w, h, l) in enumerate(zip(p.words, p.heads, p.labels), start=1):
                fh.write(f"{i}\t{w}\t{h}\t{l}\n")
            fh.write("\n")
