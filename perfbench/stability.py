"""Stability command: repeat one workload K times and summarise each metric.

Run from the root of a checkout::

    python3 perfbench/stability.py --workload dedup --runs 10 --first-seed 1

Each repetition is one ``perfbench/run.py`` invocation with its own seed
(``--first-seed``, ``--first-seed + 1``, ...).  For every metric the command
prints the median, the quartiles, their distance as a share of the median
(the spread the benchmark's bounds are judged against) and the min/max
ratio, next to the metric's bound from ``BENCHMARK.json``.  It exits 1 when
a repetition failed or an end-to-end spread (other than ``setup_s``) reaches
the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import quartiles, spread  # noqa: E402


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(done.stderr[-4000:])
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    results: List[dict] = []
    for offset in range(args.runs):
        seed = args.first_seed + offset
        result = run_once(root, args.workload, seed, seconds, args.trace)
        results.append(result)
        brief = {name: round(m["value"], 6) for name, m in result["metrics"].items() if name in bounds}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {brief}", flush=True)

    steady = all(result["correct"] for result in results)
    names = sorted({name for result in results for name in result["metrics"]})
    print(f"\n{args.workload}: {len(results)} runs")
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'min/max':>8s} {'bound':>6s}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        q1, median, q3 = quartiles(values)
        low, high = min(values), max(values)
        ratio = low / high if high else 1.0
        bound = bounds.get(name)
        share = spread(values)
        flag = ""
        if bound is not None:
            flag = "ok" if share < bound / 3 else ("within bound" if share < bound else "TOO WIDE")
            if share >= bound and name != "setup_s":
                steady = False
        print(
            f"{name:28s} {median:12.6f} {q1:12.6f} {q3:12.6f} {share:8.4f} {ratio:8.4f}"
            f" {bound if bound is not None else '':>6} {flag}"
        )
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
