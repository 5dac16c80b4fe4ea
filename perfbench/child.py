"""One benchmark repetition in a fresh process.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py --workload dedup --seed 1 --mode plain --workdir DIR

``--mode plain`` times one untraced repetition; ``--mode traced`` makes the
traced run and checks its output against the untraced program.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import time


def import_program() -> float:
    """Import the library (and NumPy through it); return the seconds taken."""
    start = time.perf_counter()
    import repro  # noqa: F401
    import repro.core.workflow  # noqa: F401
    import repro.iterative.index  # noqa: F401

    return time.perf_counter() - start


def plain(workload: str, seed: int, workdir: str, import_s: float) -> dict:
    import workloads

    generated = workloads.generate(workload, seed)
    if workload == "stream":
        return workloads.run_stream(generated, import_s, workdir)
    return workloads.run_batch(workload, generated, import_s)


def traced(workload: str, seed: int, workdir: str) -> dict:
    import redrive
    import workloads
    from repro.core.workflow import ERWorkflow
    from workloads import Check

    generated = workloads.generate(workload, seed)
    checks = []
    if workload == "stream":
        run = redrive.trace_stream(generated, workdir)
        ingest, held_out = workloads.split_stream(generated)
        never_restored = redrive.replay_stream(ingest, held_out)
        checks.append(
            Check(
                "restored_equals_never_restored",
                run.clusters == never_restored.clusters(),
                f"clusters={len(run.clusters)}",
            )
        )
    else:
        config = workloads.workflow_config(workload, generated)
        truth = generated.ground_truth if workloads.passes_ground_truth(workload) else None
        data = workloads.build_input(generated)
        run = redrive.trace_workflow(data, config, truth)
        redrive.layer_quality(run, data, generated.ground_truth)
        reference = ERWorkflow(config).run(data, truth)
        checks.append(
            Check(
                "trace_equals_run",
                run.clusters == reference.clusters and run.matches == reference.matches,
                f"clusters={len(run.clusters)} matches={len(run.matches)}",
            )
        )
        if config.num_workers > 1:
            config.num_workers = 1
            serial = ERWorkflow(config).run(data, truth)
            checks.append(
                Check(
                    "parallel_equals_serial",
                    serial.clusters == reference.clusters and serial.matches == reference.matches,
                    f"workers=2 vs 1, matches={len(serial.matches)}",
                )
            )
    layers = run.finish()
    failed = sum(1 for check in checks if not check.passed)
    return {
        "layers": layers,
        "spans": run.tracer.as_records(),
        "checks": checks,
        "attempted": len(checks),
        "failed": failed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    wall = time.perf_counter()
    import_s = import_program()
    os.makedirs(args.workdir, exist_ok=True)
    if args.mode == "plain":
        outcome = plain(args.workload, args.seed, args.workdir, import_s)
    else:
        outcome = traced(args.workload, args.seed, args.workdir)
    outcome["checks"] = [check.as_dict() for check in outcome["checks"]]
    outcome.setdefault("metrics", {})["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    outcome["child"] = {
        "pid": os.getpid(),
        "wall_s": time.perf_counter() - wall,
        "python": sys.version.split()[0],
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
