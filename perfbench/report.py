"""Environment record and output formatting of the bso benchmark."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform

import numpy as np

# The name each workload's tok_per_s goes by in the README.
TOK_NAMES = {"xent-b32": "xent_tok_per_s", "bso-perm-k6": "bso_tok_per_s",
             "bso-free-k6": "bso_tok_per_s"}


def _openblas():
    """(version, threads in use) of numpy's OpenBLAS, or 'unknown'."""
    version = threads = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        pass
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = str(fn())
                break
    return version, threads


def _git_sha(root):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def _source_digest(root):
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "bso", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def environment(thread_pin, root):
    version, threads = _openblas()
    pin = " ".join(f"{k}={v}" for k, v in thread_pin.items())
    return [
        f"python {platform.python_version()}, numpy {np.__version__}, {version}",
        f"nproc {os.cpu_count()}, usable cpus {len(os.sched_getaffinity(0))}",
        f"thread pin: {pin}; OpenBLAS threads in use: {threads}",
        f"git sha {_git_sha(root)}, src/bso sha256 {_source_digest(root)}",
    ]


def _result(correct, attempted, failed, metrics):
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed),
                       "metrics": {n: {"value": v, "unit": u}
                                   for n, (v, u) in metrics.items()}})


def result_line(results, workload):
    """The final JSON line; with several workloads, names are prefixed."""
    if workload != "all":
        res = results[workload]
        return _result(res.correct, res.attempted, res.failed, res.metrics)
    merged = {f"{w}.{n}": m for w, res in results.items() for n, m in res.metrics.items()}
    return _result(all(r.correct for r in results.values()),
                   sum(r.attempted for r in results.values()),
                   sum(r.failed for r in results.values()), merged)


def table(results):
    lines = [f"{'metric':24} {'workload':12} {'value':>12} unit"]
    for w, res in results.items():
        for name, (value, unit) in res.metrics.items():
            if name == "tok_per_s":
                name = TOK_NAMES.get(w, name)
            lines.append(f"{name:24} {w:12} {value:12.4f} {unit}")
        share = res.failed / max(res.attempted, 1)
        lines.append(f"{'fail_share':24} {w:12} {share:12.4f} share")
    return lines
