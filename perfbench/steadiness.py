"""Steadiness report: run one workload N times and summarise its spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload sharded_read --runs 10

Each run is ``perfbench/run.py`` with its own seed (``--first-seed``,
``--first-seed + 1``, ...).  For every metric the report prints the
median, the first and third quartile (``statistics.quantiles(n=4)``),
the spread ``(q3 - q1) / median`` and, for an end-to-end metric, that
spread as a share of the metric's bound in ``BENCHMARK.json``.  These
figures are the evidence behind the bounds.  ``--save`` writes every
run's values to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bounds() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(runs: list[dict], bounds: dict) -> list[str]:
    lines = [f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
             f"{'spread':>8s} {'/bound':>7s}"]
    for name in runs[0]:
        values = [run[name] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        share = (f"{spread / bounds[name]:7.2f}" if name in bounds
                 else f"{'-':>7s}")
        lines.append(f"{name:42s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                     f"{spread:8.3f} {share}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            seconds = json.load(fh)["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        runs.append(run_once(args.workload, seed, seconds, args.trace))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(runs, fh, indent=1)
    print("\n".join(summarise(runs, load_bounds())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
