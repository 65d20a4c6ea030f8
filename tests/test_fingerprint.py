"""The fingerprint script is deterministic: two runs of one seed print the
same lines (a run is bit for bit a function of config, seed and data), and
every line hashes something."""

import hashlib

import fingerprint


def test_same_seed_same_fingerprint():
    first = fingerprint.fingerprint(7)
    assert fingerprint.fingerprint(7) == first
    names = [name for name, _ in first]
    assert len(set(names)) == len(names)
    assert "bso.perm-zero_one.k6.laststep.records" in names
    assert "bso.perm-zero_one.k6.layers2.dropout0.3.grad" in names
    assert "bso.perm-zero_one.k6.grad0.out" in names
    assert "bso.perm-zero_one.k6.grad0.rest" in names
    # one-sentence minibatches: the one-row backward steps
    assert "bso.perm-zero_one.k6.batch1.grad" in names
    # the one line that checks the two-layer encoder and decoder backward,
    # which rebuilds each layer's gates, under dropout
    assert "xent.layers2.dropout0.3.grad" in names
    # a digest nothing was fed into would pass any comparison unnoticed
    empty = hashlib.sha256().hexdigest()
    assert [name for name, h in first if h == empty] == []
