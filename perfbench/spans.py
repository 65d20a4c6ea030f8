"""Span tracing and result probes installed from outside the ``bso`` package.

Every probe replaces one attribute (a module function or a class method)
with a wrapper and puts the original back on exit. A probe can record a
span (name, start, end, parent) when a :class:`Tracer` is attached, and can
pass the wrapped call's result to a callback; the correctness gate uses the
callback alone, so untraced runs pay for a handful of calls per batch and
nothing per kernel.

Modules that import a function by name keep their own reference to it, so
such a function is patched in every module that binds it (``top_k`` and
``validate_gold`` in ``bso.training``, ``sentence_bleu_smoothed`` there too).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans of one cycle of work, kept in memory until :meth:`summary`."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.amounts = []          # rows or candidates per span, or None
        self._stack = []

    def enter(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.amounts.append(None)
        self._stack.append(idx)
        return idx

    def exit(self, idx, start, end, amount):
        self._stack.pop()
        self.starts[idx] = start
        self.ends[idx] = end
        self.amounts[idx] = amount

    def summary(self):
        """Per span name: calls, self seconds and summed amount.

        A span's self time is its duration minus the durations of its
        direct children (children never outlive their parent).
        """
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "amount": 0})
        for i, name in enumerate(self.names):
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += self.ends[i] - self.starts[i] - child[i]
            if self.amounts[i] is not None:
                rec["amount"] += self.amounts[i]
        return dict(out)


def _wrap(fn, name, tracer, amount, on_result):
    clock = time.perf_counter

    if tracer is None:
        def probe(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result)
            return result
        return probe

    def span(*args, **kwargs):
        idx = tracer.enter(name)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            n = None
            if amount is not None:
                try:
                    n = amount(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    n = None
            tracer.exit(idx, start, end, n)
        if on_result is not None:
            on_result(result)
        return result
    return span


@contextmanager
def installed(targets, tracer=None, on_result=None):
    """Patch ``targets`` for the duration of the block.

    targets: iterable of (owner, attribute, span name, amount) where owner is
    a module or class and ``amount(args, kwargs)`` gives the rows or
    candidates one call handled (or is None). With ``tracer`` None only the
    targets named in ``on_result`` ({span name: callback}) are patched.
    A target the program no longer has is skipped; the traced run's
    self-check reports it as a span with no calls.
    """
    on_result = on_result or {}
    saved = []
    try:
        for owner, attr, name, amount in targets:
            if tracer is None and name not in on_result:
                continue
            if attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, name, tracer, amount,
                                       on_result.get(name)))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
