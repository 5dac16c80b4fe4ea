"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

They cover the span and self-time arithmetic, the choice of the latency
tail percentile, the agreement between ``BENCHMARK.json`` and the metrics
the benchmark prints, and -- on tiny inputs -- that the traced re-drive
produces exactly what ``ERWorkflow.run`` produces.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import redrive  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.core.workflow import ERWorkflow  # noqa: E402
from stats import percentile, samples_beyond, spread, tail_percentile  # noqa: E402
from tracing import Tracer, covered  # noqa: E402


def fake_clock(*ticks: float):
    return iter(ticks).__next__


# ----------------------------------------------------------------------
# spans and self time
# ----------------------------------------------------------------------
def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered([(4.0, 6.0)], 6.0, 10.0) == 0.0


def test_self_time_is_duration_minus_children():
    # root 0..10 holds a 1..3 child (itself holding 2..2.5) and a 4..8 child
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 8.0, 10.0))
    with tracer.span("progressive.run") as root:
        with tracer.span("matching.score") as first:
            with tracer.span("matching.inner") as inner:
                pass
        with tracer.span("matching.score") as second:
            pass
    assert root.duration == 10.0
    assert tracer.self_time(root) == pytest.approx(4.0)
    assert tracer.self_time(first) == pytest.approx(1.5)
    assert tracer.self_time(inner) == pytest.approx(0.5)
    assert tracer.self_time(second) == pytest.approx(4.0)
    assert tracer.total("matching.score") == pytest.approx(6.0)
    assert tracer.count("matching.score") == 2
    assert [s.parent for s in tracer.spans] == [None, root.ident, first.ident, root.ident]


def test_residual_counts_wall_time_outside_top_level_spans():
    tracer = Tracer(clock=fake_clock(1.0, 2.0, 2.0, 4.0, 3.0, 3.5))
    with tracer.span("core.intern"):
        pass
    with tracer.span("blocking.build"):
        pass
    with tracer.span("blocking.purge"):  # overlaps the previous span's interval
        pass
    assert tracer.residual(0.0, 5.0) == pytest.approx(2.0)


def test_wrapped_methods_count_outermost_calls_only():
    class Engine:
        def outer(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n * 2

    engine = Engine()
    tracer = Tracer()
    tracer.wrap_methods(engine, ("outer", "inner"), "matching.score")
    assert engine.outer(3) == 7
    assert engine.inner(2) == 4
    assert tracer.count("matching.score") == 2
    assert all(span.parent is None for span in tracer.spans)
    assert all(span.maxrss_mb > 0 for span in tracer.spans)


# ----------------------------------------------------------------------
# percentiles and spread
# ----------------------------------------------------------------------
def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(10000) == 99.9
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(99) == 50.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None
    for count in (20, 99, 100, 999, 1000, 10000):
        assert samples_beyond(count, tail_percentile(count)) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert percentile(values, 50) == 500
    assert percentile(values, 99) == 990
    assert sum(1 for v in values if v > percentile(values, 99)) == 10
    assert percentile([7.0], 99) == 7.0


def test_spread_is_interquartile_share_of_median():
    assert spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


# ----------------------------------------------------------------------
# the benchmark definition
# ----------------------------------------------------------------------
def test_benchmark_json_matches_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(redrive.LAYER_METRICS)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.WORKLOADS


def test_each_seed_owns_its_inputs():
    inputs = [
        {run.input_seed(seed, rep) for rep in range(2 * run.INPUTS_PER_RUN)} for seed in range(1, 40)
    ]
    assert all(len(seeds) == run.INPUTS_PER_RUN for seeds in inputs)
    assert len(set().union(*inputs)) == sum(len(seeds) for seeds in inputs)


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode not in (0, None)
    assert done.stdout == ""


# ----------------------------------------------------------------------
# the traced re-drive is the program
# ----------------------------------------------------------------------
def tiny(workload: str, seed: int = 5) -> workloads.Generated:
    if workload == "link-progressive":
        return workloads.generate_link(120, seed)
    return workloads.generate_dirty(120, seed)


@pytest.mark.parametrize(
    "workload, workers", [("dedup-2w", 1), ("dedup-2w", 2), ("link-progressive", 1)]
)
def test_redrive_equals_workflow_run(workload, workers):
    generated = tiny(workload)
    config = workloads.workflow_config(workload, generated)
    config.num_workers = workers
    truth = generated.ground_truth if workloads.passes_ground_truth(workload) else None
    data = workloads.build_input(generated)
    traced = redrive.trace_workflow(data, config, truth)
    reference = ERWorkflow(config).run(data, truth)
    assert traced.matches and traced.clusters
    assert traced.matches == reference.matches
    assert traced.clusters == reference.clusters
    redrive.layer_quality(traced, data, generated.ground_truth)
    layers = traced.finish()
    assert set(layers) == set(redrive.LAYER_METRICS)
    assert layers["core.descriptions"] == len(data)
    assert layers["progressive.comparisons"] == reference.comparisons_executed
    assert 0.0 < layers["blocking.pc"] <= 1.0
    assert layers["matching.score_calls"] >= 1
    assert layers["trace.residual_s"] >= 0.0
    assert (layers["mapreduce.intern_s"] > 0.0) == (config.num_workers > 1)
    assert (layers["evaluation.s"] > 0.0) == (truth is not None)
    assert (layers["metablocking.retained"] > 0) == config.enable_metablocking


def test_redrive_refuses_unmirrored_stages():
    generated = tiny("dedup-2w")
    config = workloads.workflow_config("dedup-2w", generated)
    config.iterate_merges = True
    with pytest.raises(ValueError, match="iterate_merges"):
        redrive.trace_workflow(workloads.build_input(generated), config)


def test_traced_stream_restored_equals_never_restored(tmp_path):
    generated = tiny("stream")
    traced = redrive.trace_stream(generated, str(tmp_path), held_out_size=40)
    ingest, held_out = workloads.split_stream(generated, 40)
    never_restored = redrive.replay_stream(ingest, held_out)
    assert traced.clusters == never_restored.clusters()
    layers = traced.finish()
    assert layers["core.descriptions"] == len(ingest) + len(held_out[::2])
    assert layers["iterative.snapshot_bytes"] > 0
    assert 0.0 <= layers["iterative.merge_ratio"] <= 1.0
    assert not os.path.exists(tmp_path / "snapshot")
