"""Data ingestion and task-specific example construction.

Covers vocabulary building (singleton -> UNK, digit normalization), word
ordering examples (shuffled source, ordered target), parsing as a sequence
(source words interleaved with shift-reduce actions), the file formats
(plain one-sentence-per-line corpora and CoNLL-style parse files) and
padding id sequences into batches.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

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


# ---------------------------------------------------------------------------
# File formats


def read_plain_corpus(path):
    """UTF-8, one tokenized sentence per line, space separated; a blank
    line is an empty sentence, so entry i is always line i + 1."""
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh]


def read_conll(path):
    """CoNLL-style TSV: index, form, head, label; blank line between trees.
    DataError names ``path:lineno`` of a line with fewer fields, an index
    out of its tree's count 1..n, or a head that is not an integer in 0..n
    (0 is the root)."""
    examples, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                rows.append((lineno, line))
            elif rows:
                examples.append(_conll_tree(path, rows))
                rows = []
    if rows:
        examples.append(_conll_tree(path, rows))
    return examples


def _conll_tree(path, rows):
    """The ParseExample of one tree's (lineno, line) rows."""
    n = len(rows)
    words, heads, labels = [], [], []
    for i, (lineno, line) in enumerate(rows, start=1):
        fields = line.split("\t")
        if len(fields) < 4:
            raise DataError(f"{path}:{lineno}: bad CoNLL line {line!r}; "
                            f"it needs index, form, head and label")
        if fields[0] != str(i):
            raise DataError(f"{path}:{lineno}: index {fields[0]!r} should be {i}; "
                            f"the lines of a tree count 1..n")
        try:
            head = int(fields[2])
        except ValueError:
            raise DataError(f"{path}:{lineno}: head {fields[2]!r} is not an integer") from None
        if not 0 <= head <= n:
            raise DataError(f"{path}:{lineno}: head {head} is outside 0..{n}, "
                            f"the root and the words of its tree")
        words.append(fields[1])
        heads.append(head)
        labels.append(fields[3])
    return ParseExample(words, heads, labels)


def pad_ids(seqs):
    """Right-pad id sequences with PAD_ID into one [n, longest] int64
    array; returns it and the [n] int64 lengths."""
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    out = np.full((len(seqs), lengths.max(initial=0)), PAD_ID, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, :len(s)] = s
    return out, lengths
