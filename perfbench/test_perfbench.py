"""Self-tests of the benchmark: tiny runs of every workload, the metric
specifications against BENCHMARK.json, and the correctness gate.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from bso import beam, nn  # noqa: E402

import workloads as W  # noqa: E402

TINY = W.Sizes(n_train=64, n_dev=12, d_emb=8, d_h=8, pretrain_epochs=1,
               bso_sentences=16, setups=2)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_lists_the_harness_metrics():
    bench = load_benchmark()
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == W.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == W.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    for w in bench["workloads"]:
        assert w["why"] == W.WORKLOADS[w["name"]].why
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace):
    res = W.run_workload(name, seed=3, seconds=0.01, trace=trace, sizes=TINY)
    assert res.correct, res.problems
    assert res.attempted > 0 and res.failed == 0
    specs = W.PER_LAYER if trace else W.END_TO_END
    assert [(n, u) for n, (_, u) in res.metrics.items()] == [(n, u) for n, u, _ in specs]
    for value, _ in res.metrics.values():
        assert np.isfinite(value)
    if not trace:
        # a model this small may match no 4-gram, so BLEU can be 0 here
        assert all(value > 0 for n, (value, _) in res.metrics.items() if n != "dev_bleu")


def test_corpus_follows_the_acceptance_recipe():
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    acceptance = pytest.importorskip("test_acceptance")
    vocab, dev_sents, train, dev = acceptance.desk_data(seed=4, n_train=30, n_dev=7)
    corpus = W.desk_corpus(4, W.Sizes(n_train=30, n_dev=7))
    assert corpus.vocab.itos == vocab.itos
    assert corpus.dev_sents == dev_sents
    for got, want in ((corpus.train, train), (corpus.dev, dev)):
        assert [(s.tolist(), t.tolist()) for s, t in got] == \
               [(s.tolist(), t.tolist()) for s, t in want]


def test_gate_fails_a_decode_that_breaks_its_constraint(monkeypatch):
    real = beam.beam_decode

    def reversed_decode(*args, **kwargs):
        toks = real(*args, **kwargs)
        return toks[:-1] + (toks[0],)

    monkeypatch.setattr(beam, "beam_decode", reversed_decode)
    res = W.run_workload("xent-b32", seed=3, seconds=0.01, trace=False, sizes=TINY)
    assert not res.correct and res.failed > 0


def test_gate_fails_a_non_finite_gradient_norm(monkeypatch):
    real = nn.clip_global_norm
    monkeypatch.setattr(nn, "clip_global_norm", lambda *a, **k: real(*a, **k) * np.nan)
    res = W.run_workload("bso-perm-k6", seed=3, seconds=0.01, trace=False, sizes=TINY)
    assert not res.correct and res.failed > 0


def test_traced_run_flags_a_span_that_records_nothing(monkeypatch):
    targets = [t for t in W.SPAN_TARGETS if t[2] != "nn.sigmoid"]
    monkeypatch.setattr(W, "SPAN_TARGETS", targets)
    res = W.run_workload("xent-b32", seed=3, seconds=0.01, trace=True, sizes=TINY)
    assert not res.correct
    assert any("nn.sigmoid" in p for p in res.problems)


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "xent-b32",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
