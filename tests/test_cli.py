import numpy as np
import pytest

from bso import cli, tasks
from bso.beam import (ArcStandardConstraint, NoConstraint,
                      PermutationConstraint, beam_decode)
from bso.cli import ConfigError, RunConfig, constraint_factory, max_decode_len
from bso.model import ModelConfig, Seq2SeqModel
from bso.tasks import ParseExample, Vocab
from writers import write_conll


class TestRunConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_dump_and_from_file_round_trip(self, tmp_path):
        cfg = RunConfig(task="parse", constraint="arc_standard", d_h=17,
                        lr_main=0.5, data_dir="/tmp/x")
        path = tmp_path / "run.cfg"
        cfg.dump(path)
        assert RunConfig.from_file(path) == cfg

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nd_h = 12  # trailing\n")
        assert RunConfig.from_file(path).d_h == 12

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("no_such_key = 1\n")
        with pytest.raises(ConfigError, match="no_such_key"):
            RunConfig.from_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)

    @pytest.mark.parametrize("kwargs", [
        {"task": "flights"},
        {"constraint": "sudoku"},
        {"task": "translate", "constraint": "permutation"},
        {"task": "word_order", "constraint": "arc_standard"},
        {"k_tr": 1},
        {"margin_score": "sometimes"},
        {"delta": "hinge"},
    ])
    def test_validate_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs).validate()

    def test_train_config_mapping(self):
        cfg = RunConfig(k_tr=4, lr_main=0.3, delta="sentence_bleu")
        t = cfg.train_config()
        assert (t.k_tr, t.lr_main, t.delta) == (4, 0.3, "sentence_bleu")


class TestConstraintFactory:
    def vocab(self):
        return Vocab(["a", "b", "@L_x"])

    def test_none(self):
        f = constraint_factory(RunConfig(constraint="none"), self.vocab())
        assert isinstance(f(["a"]), NoConstraint)

    def test_permutation(self):
        cfg = RunConfig(task="word_order", constraint="permutation")
        c = constraint_factory(cfg, self.vocab())(["a", "b"])
        assert isinstance(c, PermutationConstraint)
        assert c.allowed_mask()[1].tolist() == [4, 5]

    def test_arc_standard(self):
        cfg = RunConfig(task="parse", constraint="arc_standard")
        c = constraint_factory(cfg, self.vocab())(["a", "b"])
        assert isinstance(c, ArcStandardConstraint)
        assert c.reduce_ids.tolist() == [6]


class TestMaxDecodeLen:
    def test_permutation_exact(self):
        cfg = RunConfig(task="word_order", constraint="permutation")
        assert max_decode_len(cfg, 7) == 8

    def test_arc_standard_exact(self):
        cfg = RunConfig(task="parse", constraint="arc_standard")
        assert max_decode_len(cfg, 7) == 15

    def test_unconstrained_has_slack(self):
        cfg = RunConfig(task="word_order", constraint="none")
        assert max_decode_len(cfg, 7) > 7 + 1


class TestDecodeCorpus:
    def test_chunks_decode_like_one_sentence_at_a_time_in_input_order(self, monkeypatch):
        vocab = Vocab(["a", "b", "c", "d", "e"])
        model = Seq2SeqModel(ModelConfig(src_vocab=len(vocab), tgt_vocab=len(vocab),
                                         d_emb=4, d_h=5), rng=np.random.default_rng(3))
        cfg = RunConfig(task="word_order", constraint="permutation")
        rng = np.random.default_rng(4)
        srcs = [list(rng.choice(list("abcde"), size=rng.integers(1, 6))) for _ in range(7)]
        monkeypatch.setattr(cli, "DECODE_CHUNK", 3)
        outs = cli.decode_corpus(model, cfg, srcs, vocab, vocab, 3)
        for src, (toks, score) in zip(srcs, outs):
            enc = model.encode(np.array([vocab.encode(src)]))
            want = beam_decode(model, enc, 3, PermutationConstraint(len(vocab),
                                                                    vocab.encode(src), 3),
                               len(src) + 1, tasks.BOS_ID, tasks.EOS_ID)
            assert toks == vocab.decode(list(want))
            assert sorted(toks) == sorted(src)


# ---------------------------------------------------------------------------
# End-to-end command smoke tests on a tiny corpus


def write_word_order_data(d):
    sents = [
        "the dog runs fast", "the cat sleeps now", "a dog sleeps here",
        "the cat runs here", "a cat eats fast", "the dog eats now",
        "a dog runs now", "the cat sleeps fast", "a cat runs here",
        "the dog sleeps here", "a dog eats fast", "the cat eats now",
    ]
    (d / "train.txt").write_text("".join(s + "\n" for s in sents))
    (d / "dev.txt").write_text("".join(s + "\n" for s in sents[:4]))


def base_config(d, **overrides):
    cfg = RunConfig(task="word_order", constraint="permutation", d_emb=8,
                    d_h=8, k_tr=2, k_te=2, min_count=1, xent_epochs=3,
                    bso_epochs=2, batch_size=4, seed=0, data_dir=str(d))
    for k, v in overrides.items():
        setattr(cfg, k, v)
    path = d / "run.cfg"
    cfg.dump(path)
    return path


class TestCommands:
    def test_pipeline(self, tmp_path, capsys):
        write_word_order_data(tmp_path)
        cfg_path = base_config(tmp_path)
        model = tmp_path / "model.bso"

        rc = cli.main(["pretrain", "--config", str(cfg_path),
                       "--model-out", str(model)])
        assert rc == 0
        assert model.exists()
        assert (tmp_path / "model.bso.config").exists()
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("epoch\t")

        bso_model = tmp_path / "bso.bso"
        rc = cli.main(["train-bso", "--config", str(cfg_path),
                       "--model-in", str(model), "--model-out", str(bso_model)])
        assert rc == 0
        assert bso_model.exists()

        out = tmp_path / "hyp.txt"
        rc = cli.main(["decode", "--config", str(cfg_path),
                       "--model-in", str(bso_model),
                       "--input", str(tmp_path / "dev.txt"),
                       "--output", str(out), "--scores"])
        assert rc == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        for line, src in zip(lines, (tmp_path / "dev.txt").read_text().splitlines()):
            toks, score = line.rsplit("\t", 1)
            float(score)
            # permutation-constrained decodes are permutations of the source
            assert sorted(toks.split()) == sorted(src.split())

        # decode is deterministic
        out2 = tmp_path / "hyp2.txt"
        rc = cli.main(["decode", "--config", str(cfg_path),
                       "--model-in", str(bso_model),
                       "--input", str(tmp_path / "dev.txt"),
                       "--output", str(out2), "--scores"])
        assert rc == 0
        assert out2.read_text() == out.read_text()

        rc = cli.main(["eval", "--task", "word_order",
                       "--hyp", str(tmp_path / "dev.txt"),
                       "--ref", str(tmp_path / "dev.txt")])
        assert rc == 0
        assert "BLEU\t100.0000" in capsys.readouterr().out

    def test_train_bso_refuses_cold_start(self, tmp_path, capsys):
        write_word_order_data(tmp_path)
        cfg_path = base_config(tmp_path)
        rc = cli.main(["train-bso", "--config", str(cfg_path),
                       "--model-out", str(tmp_path / "m.bso")])
        assert rc == 1
        assert "cold" in capsys.readouterr().err.lower()

    def test_cold_start_reads_each_split_once(self, tmp_path, capsys, monkeypatch):
        write_word_order_data(tmp_path)
        cfg_path = base_config(tmp_path, bso_epochs=1)
        splits = []
        real = cli.load_pairs

        def counting(cfg, split):
            splits.append(split)
            return real(cfg, split)

        monkeypatch.setattr(cli, "load_pairs", counting)
        rc = cli.main(["train-bso", "--config", str(cfg_path), "--allow-cold-start",
                       "--model-out", str(tmp_path / "m.bso")])
        assert rc == 0
        assert (tmp_path / "m.bso").exists()
        assert sorted(splits) == ["dev", "train"]
        assert "cold start" in capsys.readouterr().err

    def test_missing_data_is_clean_error(self, tmp_path, capsys):
        cfg_path = base_config(tmp_path)
        rc = cli.main(["pretrain", "--config", str(cfg_path),
                       "--model-out", str(tmp_path / "m.bso")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_eval_count_mismatch_is_clean_error(self, tmp_path, capsys):
        (tmp_path / "h.txt").write_text("a b\n")
        (tmp_path / "r.txt").write_text("a b\nc d\n")
        rc = cli.main(["eval", "--task", "word_order",
                       "--hyp", str(tmp_path / "h.txt"),
                       "--ref", str(tmp_path / "r.txt")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_blank_training_line_is_clean_error(self, tmp_path, capsys):
        write_word_order_data(tmp_path)
        lines = (tmp_path / "train.txt").read_text().splitlines()
        (tmp_path / "train.txt").write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
        rc = cli.main(["pretrain", "--config", str(base_config(tmp_path)),
                       "--model-out", str(tmp_path / "m.bso")])
        assert rc == 1
        assert "train.txt:3" in capsys.readouterr().err

    def test_eval_scores_an_empty_hypothesis(self, tmp_path, capsys):
        # what decode writes for a sentence whose best sequence is EOS alone
        (tmp_path / "h.txt").write_text("a b c d\n\n")
        (tmp_path / "r.txt").write_text("a b c d\ne f\n")
        rc = cli.main(["eval", "--task", "word_order",
                       "--hyp", str(tmp_path / "h.txt"), "--ref", str(tmp_path / "r.txt")])
        assert rc == 0
        # four of four n-gram orders match; brevity penalty exp(1 - 6/4)
        assert f"BLEU\t{100 * np.exp(-0.5):.4f}" in capsys.readouterr().out

    def test_invalid_config_is_clean_error(self, tmp_path, capsys):
        write_word_order_data(tmp_path)
        cfg_path = base_config(tmp_path, constraint="arc_standard")
        rc = cli.main(["pretrain", "--config", str(cfg_path),
                       "--model-out", str(tmp_path / "m.bso")])
        assert rc == 1
        assert "incompatible" in capsys.readouterr().err

    def test_parse_task_eval(self, tmp_path, capsys):
        gold = [
            ParseExample(["the", "dog", "barks"], [2, 3, 0],
                         ["det", "sbj", "root"]),
            ParseExample(["she", "runs"], [2, 0], ["sbj", "root"]),
        ]
        ref = tmp_path / "dev.conll"
        write_conll(ref, gold)
        hyp = tmp_path / "hyp.txt"
        hyp.write_text(
            "the dog @L_det barks @L_sbj\n"
            "she runs @L_obj\n")
        rc = cli.main(["eval", "--task", "parse",
                       "--hyp", str(hyp), "--ref", str(ref)])
        assert rc == 0
        out = capsys.readouterr().out
        # second sentence has the right head but the wrong label
        assert "UAS\t100.0000" in out
        assert "LAS\t80.0000" in out


class TestCleanFailures:
    """Errors of a checkpoint, an input or the search end the command with
    ``error: ...`` on stderr and exit code 1, not a traceback."""

    def decode(self, tmp_path, src_vocab=None, nan_scores=False, truncate=False,
               extra=None, text="the dog runs fast\n", words=("the", "dog", "runs", "fast"),
               **overrides):
        write_word_order_data(tmp_path)
        cfg_path = base_config(tmp_path, **overrides)
        vocab = Vocab(words)
        model = Seq2SeqModel(ModelConfig(src_vocab=src_vocab or len(vocab),
                                         tgt_vocab=len(vocab), d_emb=4, d_h=4),
                             rng=np.random.default_rng(0))
        if nan_scores:
            model.params["out.w"].value[...] = np.nan
        path = tmp_path / "m.bso"
        model.save(path, extra=extra or {"src_vocab": vocab.itos, "tgt_vocab": vocab.itos})
        if truncate:
            path.write_bytes(path.read_bytes()[:-10])
        (tmp_path / "in.txt").write_text(text)
        return cli.main(["decode", "--config", str(cfg_path), "--model-in", str(path),
                         "--input", str(tmp_path / "in.txt"),
                         "--output", str(tmp_path / "out.txt")])

    def test_decodes_when_nothing_is_wrong(self, tmp_path, capsys):
        assert self.decode(tmp_path) == 0
        assert sorted((tmp_path / "out.txt").read_text().split()) == ["dog", "fast", "runs",
                                                                       "the"]

    def test_truncated_checkpoint(self, tmp_path, capsys):
        assert self.decode(tmp_path, truncate=True) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "truncated" in err

    def test_input_outside_the_model_vocabulary(self, tmp_path, capsys):
        # the checkpoint's source vocabulary lists more words than its model embeds
        assert self.decode(tmp_path, src_vocab=len(tasks.RESERVED)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "out of vocabulary range" in err

    def test_non_finite_scores(self, tmp_path, capsys):
        assert self.decode(tmp_path, nan_scores=True) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err

    # steps this large overflow the parameters within a few updates; numpy's
    # warnings on the way are expected, the run must end in one clean error
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_diverged_pretraining(self, tmp_path, capsys):
        write_word_order_data(tmp_path)
        cfg_path = base_config(tmp_path, lr_main=1e38, lr_out=1e38, clip_norm=1e38)
        rc = cli.main(["pretrain", "--config", str(cfg_path),
                       "--model-out", str(tmp_path / "m.bso")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite ")

    def test_search_stuck(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "constraint_factory", lambda cfg, vocab: lambda src: (
            NoConstraint(len(vocab), blocked=range(len(vocab)))))
        assert self.decode(tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no valid expansion" in err

    def test_stuck_sentence_named_by_its_input_index(self, tmp_path, capsys, monkeypatch):
        # decode_corpus sorts by length: "dog runs" is the second of its
        # chunk but the third input line. Its empty source allows nothing;
        # the others can complete, reducing with the pad id.
        def factory(cfg, vocab):
            return lambda src: ArcStandardConstraint(
                len(vocab), [] if src == ["dog", "runs"] else vocab.encode(src), (0,), 3)
        monkeypatch.setattr(cli, "constraint_factory", factory)
        assert self.decode(tmp_path, text="the dog runs fast\nthe\ndog runs\n") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sentence 2" in err

    def test_blank_input_line(self, tmp_path, capsys):
        # a skipped line would shift every later output against its input
        assert self.decode(tmp_path, text="the dog\n\nruns fast\n") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "in.txt:2" in err
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("constraint", ["permutation", "none"])
    def test_out_of_vocabulary_words_keep_their_place(self, tmp_path, constraint,
                                                      monkeypatch):
        real = cli.beam_mod.beam_search

        def emit_unknown(model, enc, k, constraints, max_lens, bos, eos):
            # an unconstrained model may emit <unk> anywhere: make it do so
            if constraint == "none":
                return [((1, 4, 1, eos), 0.0) for _ in constraints]
            return real(model, enc, k, constraints, max_lens, bos, eos)
        monkeypatch.setattr(cli.beam_mod, "beam_search", emit_unknown)
        words = ("the", "dog", "runs")
        assert self.decode(tmp_path, text="the cat runs\ngnu the yak dog\n", words=words,
                           constraint=constraint) == 0
        lines = [line.split() for line in (tmp_path / "out.txt").read_text().splitlines()]
        if constraint == "none":
            assert lines == [["<unk>", "the", "<unk>"]] * 2
        else:
            assert sorted(lines[0]) == ["cat", "runs", "the"]
            assert sorted(lines[1]) == ["dog", "gnu", "the", "yak"]
            # both unknown words come out as <unk>: they are written back in
            # source order
            assert [w for w in lines[1] if w not in words] == ["gnu", "yak"]

    def test_eos_in_a_permutation_source(self, tmp_path, capsys):
        assert self.decode(tmp_path, text="the </s> dog\n") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "EOS" in err
        # the error names the input line's index, as a search error does
        assert self.decode(tmp_path, text="the dog runs fast\ndog\nthe </s> dog\n") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sentence 2:") and "EOS" in err

    def test_eos_in_a_permutation_training_source(self, tmp_path, capsys):
        # train-bso names the training line as decode names its input line
        write_word_order_data(tmp_path)
        lines = (tmp_path / "train.txt").read_text().splitlines()
        lines[1] = "the </s> cat"
        (tmp_path / "train.txt").write_text("\n".join(lines) + "\n")
        assert cli.main(["train-bso", "--config", str(base_config(tmp_path)),
                         "--allow-cold-start", "--model-out", str(tmp_path / "m.bso")]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error: sentence 1: EOS")

    def test_action_in_an_arc_standard_source(self, tmp_path, capsys):
        assert self.decode(tmp_path, text="the @L_x dog\n", words=("the", "dog", "@L_x"),
                           task="parse", constraint="arc_standard") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "reduce action" in err

    @pytest.mark.parametrize("extra", [{"note": 1}, {"src_vocab": ["<pad>"]}])
    def test_checkpoint_without_vocabularies(self, tmp_path, capsys, extra):
        missing = "tgt_vocab" if "src_vocab" in extra else "src_vocab"
        assert self.decode(tmp_path, extra=extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(missing) in err
        assert cli.main(["train-bso", "--config", str(tmp_path / "run.cfg"),
                         "--model-in", str(tmp_path / "m.bso"),
                         "--model-out", str(tmp_path / "out.bso")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(missing) in err
