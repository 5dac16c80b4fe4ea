"""Entity-resolution benchmark: one workload, repeated in fresh child processes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dedup-2w --seed 1 --seconds 40 --trace 0

``--trace 0`` repeats the untraced workload for ``--seconds`` seconds, each
repetition in a fresh child with a fixed ``PYTHONHASHSEED``, cycling over
six inputs generated from ``--seed``, and reports the median of every
end-to-end metric.  ``--trace 1`` adds one traced child and
reports the per-layer metrics instead.  Human-readable lines come first; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when
an output check failed and 2 when the program source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostinfo  # noqa: E402
from stats import MIN_BEYOND, percentile, quartiles, samples_beyond, tail_percentile  # noqa: E402

WORKLOADS = ("dedup-2w", "link-progressive", "stream")
END_TO_END = {
    "setup_s": "s",
    "resolve_s": "s",
    "peak_rss_mb": "MB",
    "f1": "ratio",
    "recall": "ratio",
}
#: printed with their units but not part of the JSON result: they exist on one workload only
WORKLOAD_ONLY = {"auc": "ratio"}
PYTHONHASHSEED = "0"
#: distinct inputs generated from one ``--seed``; repetition i resolves input
#: i % INPUTS_PER_RUN, so quality medians do not hang on one random draw
INPUTS_PER_RUN = 6
#: repetitions made even when ``--seconds`` has run out: every input once
MIN_REPETITIONS = INPUTS_PER_RUN
#: metrics the input alone decides: summarised once per distinct input
PER_INPUT = ("f1", "recall", "auc")
CHILD_TIMEOUT_S = 150.0
WORK_DIR = ".perfbench-work"
TRACE_DIR = ".perfbench-traces"


def checkout_root() -> str:
    return os.path.dirname(HERE)


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    source = os.path.join(root, "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = PYTHONHASHSEED
    return env


def run_child(root: str, workload: str, seed: int, mode: str, workdir: str) -> dict:
    """Run one child to completion; a crash or timeout becomes one failed operation."""
    command = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--workdir", workdir,
    ]
    # a new session, so a timeout also takes down the child's pool workers
    process = subprocess.Popen(
        command,
        cwd=root,
        env=child_env(root),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        stdout, stderr = process.communicate()
        return crashed(f"{mode} child timed out after {CHILD_TIMEOUT_S:.0f}s", stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        return crashed(f"{mode} child exited with {process.returncode}", stderr)
    try:
        return json.loads(lines[-1])
    except ValueError:
        return crashed(f"{mode} child printed no result", stderr)


def crashed(reason: str, stderr: str) -> dict:
    sys.stderr.write(stderr[-4000:])
    return {
        "metrics": {},
        "checks": [{"name": "child_completed", "passed": False, "detail": reason}],
        "attempted": 1,
        "failed": 1,
    }


def input_seed(seed: int, repetition: int) -> int:
    """Generator seed of a repetition's input; distinct across ``--seed`` values."""
    return seed * INPUTS_PER_RUN + repetition % INPUTS_PER_RUN


def repeat(root: str, workload: str, seed: int, seconds: float) -> List[dict]:
    """Untraced repetitions until ``seconds`` are used (at least :data:`MIN_REPETITIONS`).

    A repetition is not started when the median repetition so far would
    overrun the measuring window.
    """
    runs: List[dict] = []
    walls: List[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(runs) >= MIN_REPETITIONS and elapsed + statistics.median(walls) > seconds:
            break
        began = time.perf_counter()
        repetition = len(runs)
        workdir = os.path.join(root, WORK_DIR, f"rep{repetition}")
        outcome = run_child(root, workload, input_seed(seed, repetition), "plain", workdir)
        outcome["input"] = repetition % INPUTS_PER_RUN
        runs.append(outcome)
        walls.append(time.perf_counter() - began)
    return runs


def median_of(runs: List[dict], name: str) -> Optional[float]:
    values = [run["metrics"][name] for run in runs if name in run.get("metrics", {})]
    return statistics.median(values) if values else None


def report_end_to_end(workload: str, runs: List[dict]) -> Dict[str, dict]:
    metrics: Dict[str, dict] = {}
    for name, unit in {**END_TO_END, **WORKLOAD_ONLY}.items():
        measured = [run for run in runs if name in run.get("metrics", {})]
        if name in PER_INPUT:
            measured = list({run["input"]: run for run in measured}.values())
        values = [run["metrics"][name] for run in measured]
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        print(
            f"{workload:17s} {name:13s} {median:12.6f} {unit:5s}"
            f"  (median of {len(values)}; q1 {q1:.6f}, q3 {q3:.6f})"
        )
        if name in END_TO_END:
            metrics[name] = {"value": median, "unit": unit}
    for kind in ("add", "query"):
        samples = [x for run in runs for x in run.get("samples", {}).get(f"{kind}_ms", [])]
        if not samples:
            continue
        count = len(samples)
        shown = {50.0, 99.0, tail_percentile(count)} - {None}
        for pct in sorted(p for p in shown if samples_beyond(count, p) >= MIN_BEYOND):
            name = f"{kind}_p{pct:g}_ms"
            print(f"{workload:17s} {name:13s} {percentile(samples, pct):12.6f} ms     (n={count})")
    return metrics


def report_layers(workload: str, traced: dict, runs: List[dict]) -> Dict[str, dict]:
    layers = dict(traced.get("layers", {}))
    if not layers:
        return {}
    untraced = median_of(runs, "resolve_s")
    if untraced is not None:
        layers["trace.overhead_s"] = layers["trace.wall_s"] - untraced
    metrics = {}
    for name, value in layers.items():
        unit = layer_unit(name)
        print(f"{workload:17s} {name:27s} {value:16.6f} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "evaluation.s":
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.split(".", 1)[1] in ("pc", "pq", "true_ratio", "merge_ratio"):
        return "ratio"
    return "count"


def write_trace(root: str, workload: str, seed: int, traced: dict) -> str:
    folder = os.path.join(root, TRACE_DIR)
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{workload}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump({"workload": workload, "seed": seed, "spans": traced.get("spans", [])}, handle)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = checkout_root()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        sys.stderr.write(f"program source not found under {root}/src; nothing to measure\n")
        return 2

    host = hostinfo.stamp(root, args.seed, PYTHONHASHSEED)
    host["input_seeds"] = [input_seed(args.seed, i) for i in range(INPUTS_PER_RUN)]
    print("host " + json.dumps(host))
    traced: dict = {}
    if args.trace:
        traced = run_child(
            root,
            args.workload,
            input_seed(args.seed, 0),
            "traced",
            os.path.join(root, WORK_DIR, "traced"),
        )
    runs = repeat(root, args.workload, args.seed, args.seconds)
    shutil.rmtree(os.path.join(root, WORK_DIR), ignore_errors=True)

    outcomes = runs + ([traced] if traced else [])
    for outcome in outcomes:
        for check in outcome["checks"]:
            if not check["passed"]:
                print(f"{args.workload:17s} CHECK FAILED {check['name']}: {check['detail']}")
    children = [outcome["child"] for outcome in outcomes if "child" in outcome]
    if children:
        print("children " + json.dumps(children[0]) + f" x{len(children)}")

    if args.trace:
        metrics = report_layers(args.workload, traced, runs)
        if traced.get("spans"):
            print(f"spans written to {write_trace(root, args.workload, args.seed, traced)}")
    else:
        metrics = report_end_to_end(args.workload, runs)
    attempted = sum(outcome["attempted"] for outcome in outcomes)
    failed = sum(outcome["failed"] for outcome in outcomes)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
