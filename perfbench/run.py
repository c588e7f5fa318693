"""treespec benchmark: three CLI workloads measured end to end or traced.

    python3 perfbench/run.py [--workload all|reference|open_vocab|reanalyze]
                             [--seed 42] [--seconds 15] [--trace 0|1]

Run from the repository root. One workload runs in this process; ``all``
runs each workload in its own child process, so heap state cannot leak from
one workload into the next. Each workload prints its metrics by name with
units, then, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. End-to-end times
are scaled to a fixed machine speed (see ``bench.py``); the unscaled ones
are printed beside them. Full results go to
``perfbench/out/<workload>-full-seed<seed>-trace<t>.json`` and a traced
run's spans to ``perfbench/out/<workload>-full.spans.tsv``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("reference", "open_vocab", "reanalyze")

# One BLAS/OpenMP thread, set before anything imports numpy.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15.0, help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; ends with one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    combined["correct"] = combined["correct"] and status == 0
    print(json.dumps(combined, sort_keys=True))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "treespec" / "cli.py").is_file():
        print(f"error: no treespec sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    for var in _THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import bench  # imports numpy, so only after the thread settings

    result = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(bench.report(result))
    print(json.dumps(bench.result_line(result), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
