"""Run one workload of the bso benchmark and print its metrics.

    python3 perfbench/run.py --workload bso-perm-k6 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the benchmark imports ``bso`` from
``src/`` there. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. ``--workload all`` runs every workload in turn and prints
each end-to-end metric under the name the benchmark's README gives it.
The exit code is 0 only when every correctness check passed.
"""

import argparse
import os
import sys

# One BLAS thread, pinned before numpy is imported: with the default pool
# the small matrices here run slower and the timings wander.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "bso", "__init__.py")):
        print(f"error: no bso sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.dont_write_bytecode = True

    import report
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")

    for line in report.environment(THREAD_PIN, ROOT):
        print(f"# {line}")
    results = {}
    for name in names:
        res = workloads.run_workload(name, args.seed, args.seconds, bool(args.trace))
        for line in res.notes:
            print(f"# {line}")
        for problem in res.problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        results[name] = res
    if args.workload == "all":
        for line in report.table(results):
            print(line)
    print(report.result_line(results, args.workload))
    return 0 if all(r.correct for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
