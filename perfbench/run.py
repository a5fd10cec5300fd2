"""TPC-W benchmark of the Queryll stack: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload browse-inproc --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
workload with spans around every layer, prints the per-layer ledger and
writes the spans as JSON lines to ``.perfbench_spans/<workload>.jsonl.gz``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every interaction succeeded and every correctness check passed.
See ``perfbench/METRICS.md`` for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SOURCE_DIR = REPO_ROOT / "src"

WORKLOADS = ("browse-inproc", "browse-remote", "ordering-sharded")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Keep this process, and every thread it starts, on one CPU.

    The calibration kernel runs on the client thread and can only see
    contention on the CPU it runs on.  Unpinned, the in-process server,
    coordinator and shard threads land on whichever CPU is free, and a
    neighbour loading the other CPU slowed browse-remote by 25% for
    minutes while the kernel readings stayed put.  With the interpreter
    lock the threads rarely run Python in parallel anyway.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SOURCE_DIR / 'repro'})", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path.insert(0, str(SOURCE_DIR))
    sys.path.insert(0, str(BENCH_DIR))
    from tpcwbench.driver import RunConfig, run

    work_dir = REPO_ROOT / ".perfbench_work" / str(os.getpid())
    config = RunConfig(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        work_dir=str(work_dir),
        spans_path=str(REPO_ROOT / ".perfbench_spans" / f"{args.workload}.jsonl.gz") if args.trace else None,
    )
    try:
        result = run(config)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
