"""Steadiness report: run one workload k times and show each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload browse-inproc --runs 10 [--first-seed 1]

Each run gets its own seed (``first-seed``, ``first-seed + 1``, ...) and
``run_seconds`` from ``BENCHMARK.json``.  For every end-to-end metric the
report prints the median, the quartiles as ``statistics.quantiles(n=4)``
gives them, min and max, and the spread (q3 - q1) / median against the
metric's bound.  A metric is steady when its spread stays below a third
of its bound; the bound itself is what a later change may worsen the
median by before it counts as a regression.

Why the timings are normalised (measured on a 2-vCPU shared host before
the calibration kernel existed):

* the host switches between fast and slow phases lasting seconds: a
  pure-Python kernel's median moved from 10.6 ms to 13.3 ms between two
  20 s windows, and in-process throughput per 400-interaction round
  swung between 450 and 1,160;
* CPU time slows down with wall time (cpu ms per interaction ranged
  1.23-1.92), so measuring CPU time instead does not help;
* a ~0.15 s set-up fits inside one phase, so it came out either ~0.11 s
  or ~0.20 s; two sets of 22 runs gave browse-inproc set-up medians of
  0.150 s and 0.196 s (31% apart) while their throughput medians were 4%
  apart, and the benchmark was rejected as too noisy.

With the kernel, browse-inproc throughput over 8 runs went from 551-770
interactions/s raw (+-17%) to +-2.6% normalised, and set-up, normalised
by kernel readings right before and after it, from 0.11-0.24 s raw to
0.079-0.095.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tpcwbench import stats  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed} failed ({completed.returncode}):\n{completed.stdout}\n{completed.stderr}")
    return json.loads(lines[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics_spec = spec["end_to_end"]
    values: dict[str, list[float]] = {m["name"]: [] for m in metrics_spec}
    for index in range(args.runs):
        result = run_once(args.workload, args.first_seed + index, seconds)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(
            f"seed {args.first_seed + index}: "
            + "  ".join(f"{name}={values[name][-1]:.4g}" for name in list(values)[:8]),
            flush=True,
        )
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<40} {'median':>11} {'q1':>11} {'q3':>11} {'min':>11} {'max':>11} {'spread':>7} {'bound':>6}")
    unsteady = 0
    for metric in metrics_spec:
        series = values[metric["name"]]
        q1, median, q3 = stats.quartiles(series)
        spread = stats.relative_spread(series)
        bound = metric["bound"]
        flag = ""
        if spread > bound:
            flag = "  OVER BOUND"
            unsteady += 1
        elif spread > bound / 3:
            flag = "  above bound/3"
        print(
            f"{metric['name']:<40} {median:>11.4f} {q1:>11.4f} {q3:>11.4f} {min(series):>11.4f} "
            f"{max(series):>11.4f} {spread:>7.3f} {bound:>6}{flag}"
        )
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
