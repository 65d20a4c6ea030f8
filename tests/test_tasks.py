import itertools

import numpy as np
import pytest

from bso import tasks
from bso.tasks import (BOS_ID, EOS, EOS_ID, PAD_ID, UNK_ID, DataError,
                       ParseExample, Vocab, decode_failure_fallback,
                       decode_parse_sequence, encode_parse_example,
                       is_action, make_word_ordering_example, normalize_digits,
                       read_conll, read_plain_corpus, write_conll,
                       write_plain_corpus)


class TestNormalizeDigits:
    def test_year(self):
        assert normalize_digits("2016") == "0000"

    def test_mixed(self):
        assert normalize_digits("a1b23") == "a0b00"

    def test_no_digits_unchanged(self):
        assert normalize_digits("word") == "word"


class TestVocab:
    def test_reserved_ids_fixed(self):
        v = Vocab.build([["a", "a"]])
        assert v.itos[:4] == ["<pad>", "<unk>", "<s>", "</s>"]
        assert v.stoi[EOS] == EOS_ID

    def test_singletons_become_unk(self):
        v = Vocab.build([["a", "a", "b"]])
        assert "a" in v.stoi
        assert "b" not in v.stoi
        assert v.encode(["b"]) == [UNK_ID]

    def test_min_count_one_keeps_all(self):
        v = Vocab.build([["a", "b"]], min_count=1)
        assert v.encode(["a", "b"]) == [4, 5]

    def test_extra_tokens_always_kept(self):
        v = Vocab.build([["a", "a"]], extra_tokens=["@L_sbj"])
        assert "@L_sbj" in v.stoi

    def test_digit_normalized_counting(self):
        # '1999' and '2016' pool into the same '0000' entry
        v = Vocab.build([["1999", "2016"]])
        assert "0000" in v.stoi
        assert v.encode(["1742"]) == [v.stoi["0000"]]

    def test_round_trip(self):
        v = Vocab.build([["a", "a", "b", "b"]])
        toks = ["a", "b", "a"]
        assert v.decode(v.encode(toks)) == toks

    def test_decode_strips_reserved(self):
        v = Vocab.build([["a", "a"]])
        assert v.decode([BOS_ID, 4, EOS_ID, PAD_ID]) == ["a"]
        assert v.decode([BOS_ID, 4], strip_reserved=False) == ["<s>", "a"]

    def test_deterministic_order(self):
        sents = [["b", "a", "b", "a", "c", "c"]]
        assert Vocab.build(sents).itos == Vocab.build(sents).itos

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(DataError):
            Vocab(["a", "a"])


class TestWordOrdering:
    def test_target_is_original_plus_eos(self):
        rng = np.random.default_rng(0)
        src, tgt = make_word_ordering_example(["a", "b", "c"], rng)
        assert tgt == ["a", "b", "c", EOS]

    def test_source_is_permutation(self):
        rng = np.random.default_rng(0)
        sent = ["a", "b", "b", "c", "d", "e"]
        src, _ = make_word_ordering_example(sent, rng)
        assert sorted(src) == sorted(sent)

    def test_seeded_shuffle_deterministic(self):
        sent = list("abcdefgh")
        a, _ = make_word_ordering_example(sent, np.random.default_rng(7))
        b, _ = make_word_ordering_example(sent, np.random.default_rng(7))
        assert a == b

    def test_empty_sentence_rejected(self):
        with pytest.raises(DataError):
            make_word_ordering_example([], np.random.default_rng(0))


class TestIsAction:
    def test_examples(self):
        assert is_action("@L_sbj")
        assert is_action("@R_obj")
        assert not is_action("dog")
        assert not is_action("@left")


class TestEncodeParse:
    def test_left_arcs(self):
        p = ParseExample(["the", "dog", "barks"], [2, 3, 0],
                         ["det", "sbj", "root"])
        assert encode_parse_example(p) == \
            ["the", "dog", "@L_det", "barks", "@L_sbj"]

    def test_right_arc(self):
        p = ParseExample(["eats", "apples"], [0, 1], ["root", "obj"])
        assert encode_parse_example(p) == ["eats", "apples", "@R_obj"]

    def test_mixed_sentence(self):
        p = ParseExample(["she", "eats", "red", "apples"], [2, 0, 4, 2],
                         ["sbj", "root", "mod", "obj"])
        assert encode_parse_example(p) == \
            ["she", "eats", "@L_sbj", "red", "apples", "@L_mod", "@R_obj"]

    def test_multi_root_rejected(self):
        with pytest.raises(DataError):
            encode_parse_example(ParseExample(["a", "b"], [0, 0], ["root", "root"]))

    def test_non_projective_rejected(self):
        # arcs 1<-3 and 2<-4 cross
        p = ParseExample(["a", "b", "c", "d"], [3, 4, 0, 3],
                         ["x", "y", "root", "z"])
        with pytest.raises(DataError):
            encode_parse_example(p)


class TestDecodeParse:
    def test_inverse_of_encode(self):
        p = ParseExample(["she", "eats", "red", "apples"], [2, 0, 4, 2],
                         ["sbj", "root", "mod", "obj"])
        seq = encode_parse_example(p)
        assert decode_parse_sequence(seq, p.words) == p

    def test_trailing_eos_ignored(self):
        p = ParseExample(["eats", "apples"], [0, 1], ["root", "obj"])
        seq = encode_parse_example(p) + [EOS]
        assert decode_parse_sequence(seq, p.words) == p

    def test_premature_reduce_rejected(self):
        with pytest.raises(DataError):
            decode_parse_sequence(["a", "@L_x"], ["a", "b"])

    def test_wrong_word_rejected(self):
        with pytest.raises(DataError):
            decode_parse_sequence(["b", "a"], ["a", "b"])

    def test_incomplete_rejected(self):
        with pytest.raises(DataError):
            decode_parse_sequence(["a", "b"], ["a", "b"])


def iter_trees(n):
    """All single-rooted dependency trees over n words (heads 0..n)."""
    for heads in itertools.product(range(n + 1), repeat=n):
        if sum(1 for h in heads if h == 0) != 1:
            continue
        ok = True
        for i in range(1, n + 1):
            seen, a = set(), i
            while a != 0:
                if a in seen:
                    ok = False
                    break
                seen.add(a)
                a = heads[a - 1]
            if not ok:
                break
        if ok:
            yield list(heads)


def is_projective(heads):
    """Every word strictly inside an arc's span descends from the arc's head."""
    n = len(heads)
    for d in range(1, n + 1):
        h = heads[d - 1]
        if h == 0:
            continue
        for k in range(min(h, d) + 1, max(h, d)):
            a = k
            while a != 0 and a != h:
                a = heads[a - 1]
            if a != h:
                return False
    return True


class TestExhaustiveRoundTrip:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_projective_trees_round_trip(self, n):
        words = [f"w{i}" for i in range(n)]
        count = 0
        for heads in iter_trees(n):
            labels = [f"l{h}" if h else "root" for h in heads]
            p = ParseExample(words, heads, labels)
            if is_projective(heads):
                seq = encode_parse_example(p)
                assert decode_parse_sequence(seq, words) == p
                count += 1
            else:
                with pytest.raises(DataError):
                    encode_parse_example(p)
        assert count > 0


class TestFallbackDecode:
    def test_valid_sequence_decodes_exactly(self):
        p = ParseExample(["she", "eats", "red", "apples"], [2, 0, 4, 2],
                         ["sbj", "root", "mod", "obj"])
        seq = encode_parse_example(p)
        assert decode_failure_fallback(seq, p.words) == p

    def test_illegal_reduce_ignored(self):
        got = decode_failure_fallback(["@L_x", "a", "b", "@R_y"], ["a", "b"])
        assert got.heads == [0, 1]
        assert got.labels == ["root", "y"]

    def test_unattached_words_hang_off_root(self):
        got = decode_failure_fallback(["a"], ["a", "b", "c"])
        assert got.heads == [0, 0, 0]
        assert got.labels == ["root", "root", "root"]

    def test_always_produces_full_parse(self):
        rng = np.random.default_rng(0)
        words = ["a", "b", "c"]
        alphabet = ["a", "b", "c", "@L_x", "@R_y", EOS]
        for _ in range(200):
            toks = [alphabet[i] for i in rng.integers(0, 6, size=rng.integers(0, 9))]
            got = decode_failure_fallback(toks, words)
            assert got.words == words
            assert all(h is not None for h in got.heads)
            assert all(l is not None for l in got.labels)


class TestStrictAndRepairAgree:
    def test_strict_raises_or_matches_the_repair(self):
        rng = np.random.default_rng(1)
        words = ["a", "b", "c"]
        alphabet = ["a", "b", "c", "@L_x", "@R_y", EOS]
        decoded = 0
        for _ in range(500):
            toks = [alphabet[i] for i in rng.integers(0, 6, size=rng.integers(0, 10))]
            try:
                strict = decode_parse_sequence(toks, words)
            except DataError:
                continue
            assert strict == decode_parse_sequence(toks, words, strict=False)
            decoded += 1
        assert decoded > 0


class TestFileFormats:
    def test_plain_corpus_round_trip(self, tmp_path):
        sents = [["a", "b"], ["c"]]
        path = tmp_path / "c.txt"
        write_plain_corpus(path, sents)
        assert read_plain_corpus(path) == sents

    def test_plain_corpus_skips_blank_lines(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a b\n\nc\n")
        assert read_plain_corpus(path) == [["a", "b"], ["c"]]

    def test_conll_round_trip(self, tmp_path):
        examples = [
            ParseExample(["the", "dog"], [2, 0], ["det", "root"]),
            ParseExample(["go"], [0], ["root"]),
        ]
        path = tmp_path / "t.conll"
        write_conll(path, examples)
        assert read_conll(path) == examples

    def test_bad_conll_line_raises(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("1\tword\n")
        with pytest.raises(DataError):
            read_conll(path)
