"""The traced run: per-layer spans around the library's public calls.

For the batch workloads :func:`trace_workflow` re-drives the stage sequence
of ``ERWorkflow._run`` through public constructors and methods, one span per
call; the traced child then asserts that its clusters and matches equal an
untraced ``ERWorkflow.run`` on the same input, so the trace can never
measure a different program.  :func:`trace_stream` does the same for the
incremental index.  End-to-end metrics never come from here.
"""

from __future__ import annotations

import os
import resource
import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.blocking.cleaning import BlockFiltering, BlockPurging
from repro.blocking.engine import BlockingEngine
from repro.blocking.token_blocking import TokenBlocking
from repro.core.config import WorkflowConfig
from repro.core.context import PipelineContext
from repro.datamodel.pairs import DecisionColumns
from repro.evaluation.metrics import (
    cluster_spanning_pairs,
    evaluate_blocks,
    evaluate_comparisons,
    evaluate_matches,
)
from repro.iterative.index import IncrementalIndex
from repro.matching.cluster_engine import ClusteringEngine
from repro.matching.clustering import ConnectedComponentsClustering
from repro.matching.engine import MatchingEngine
from repro.matching.matchers import ProfileSimilarityMatcher
from repro.metablocking.pipeline import MetaBlocking
from repro.progressive.engine import SchedulingEngine
from repro.progressive.hierarchy import PartitionHierarchyScheduler
from repro.progressive.runner import run_progressive
from repro.progressive.schedulers import WeightOrderScheduler

import workloads
from tracing import Tracer, maxrss_mb

#: public scoring methods of a MatchingEngine, spanned on the instance
SCORING_METHODS = (
    "decide_all",
    "decide",
    "decide_pairs",
    "similarity_scores",
    "decide_columns",
    "score_id_set_pairs",
)

_SCHEDULERS = {"weight_order": WeightOrderScheduler, "hierarchy": PartitionHierarchyScheduler}

#: every per-layer metric, in report order; a layer that does not run reports 0
LAYER_METRICS = (
    "core.intern_s", "core.descriptions", "core.vocabulary", "core.maxrss_mb",
    "text.tfidf_fit_s", "text.maxrss_mb",
    "blocking.build_s", "blocking.purge_s", "blocking.filter_s",
    "blocking.comparisons_raw", "blocking.comparisons_clean",
    "blocking.pc", "blocking.pq", "blocking.maxrss_mb",
    "metablocking.prune_s", "metablocking.graph_edges", "metablocking.retained",
    "metablocking.pc", "metablocking.pq", "metablocking.maxrss_mb",
    "progressive.self_s", "progressive.comparisons", "progressive.maxrss_mb",
    "matching.score_s", "matching.score_calls", "matching.declared",
    "matching.true_ratio", "matching.cluster_s", "matching.clusters", "matching.maxrss_mb",
    "evaluation.s", "evaluation.maxrss_mb",
    "iterative.add_s", "iterative.add_comparisons", "iterative.merge_ratio",
    "iterative.resolve_s", "iterative.save_s", "iterative.load_s",
    "iterative.snapshot_bytes", "iterative.maxrss_mb",
    "mapreduce.intern_s", "mapreduce.retries", "mapreduce.degraded",
    "mapreduce.pool_rebuilds", "mapreduce.worker_maxrss_mb", "mapreduce.maxrss_mb",
    "trace.wall_s", "trace.overhead_s", "trace.residual_s",
)


@dataclass
class Traced:
    """Outcome of one traced run."""

    tracer: Tracer
    start: float
    end: float
    clusters: list
    matches: List[Tuple[str, str]] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    #: batch runs: cleaned blocks, meta-blocking output and comparisons
    #: executed, kept for the untimed ground-truth ratios
    blocks: object = None
    candidates: object = None
    comparisons: int = 0

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def finish(self) -> Dict[str, float]:
        """Fill the tracer-derived layer metrics; return every layer metric."""
        tracer = self.tracer
        for module, mark in tracer.module_maxrss().items():
            self.layers[f"{module}.maxrss_mb"] = mark
        self.layers["trace.wall_s"] = self.wall_s
        self.layers["trace.residual_s"] = tracer.residual(self.start, self.end)
        return {name: float(self.layers.get(name, 0.0)) for name in LAYER_METRICS}


def _check_mirrored(config: WorkflowConfig) -> None:
    """The re-drive mirrors only the stage choices the benchmark's workloads use."""
    unsupported = []
    if config.blocking != "token":
        unsupported.append(f"blocking={config.blocking!r}")
    if not (config.enable_purging and config.enable_filtering):
        unsupported.append("block cleaning off")
    if config.scheduler not in _SCHEDULERS:
        unsupported.append(f"scheduler={config.scheduler!r}")
    if config.iterate_merges:
        unsupported.append("iterate_merges")
    if config.clustering != "connected_components":
        unsupported.append(f"clustering={config.clustering!r}")
    if not config.shared_context:
        unsupported.append("shared_context off")
    if unsupported:
        raise ValueError("traced re-drive does not mirror: " + ", ".join(unsupported))


def trace_workflow(data, config: WorkflowConfig, ground_truth=None) -> Traced:
    """Run the workflow of ``config`` on ``data`` as ``ERWorkflow.run`` would, spanned.

    ``ground_truth`` is passed into the run exactly like
    ``ERWorkflow.run(data, ground_truth)``: it adds the in-run evaluation
    and the recall curve.  Quality figures that need the ground truth but
    are not part of the run are computed by :func:`layer_quality` after
    the clock stops.
    """
    _check_mirrored(config)
    tracer = Tracer()
    span = tracer.span
    layers: Dict[str, float] = {}
    start = tracer.clock()
    parallel = None
    if config.num_workers > 1:
        from repro.mapreduce.parallel import ParallelEngine

        with span("mapreduce.open"):
            parallel = ParallelEngine(
                num_workers=config.num_workers,
                worker_timeout=config.worker_timeout,
                max_shard_retries=config.max_shard_retries,
                on_worker_failure=config.on_worker_failure,
            )
    try:
        context = PipelineContext(data)
        if parallel is not None:
            with span("mapreduce.intern"):
                parallel.intern_context(context)
        with span("core.intern"):
            layers["core.descriptions"] = context.num_descriptions
        layers["core.vocabulary"] = context.vocabulary_size

        blocking = BlockingEngine(
            TokenBlocking(), engine=config.blocking_engine, context=context, parallel=parallel
        )
        with span("blocking.build"):
            raw_blocks = blocking.build(data)
        with span("blocking.purge"):
            blocks = blocking.clean(raw_blocks, purging=BlockPurging())
        with span("blocking.filter"):
            blocks = blocking.clean(blocks, filtering=BlockFiltering(ratio=config.filtering_ratio))
        layers["blocking.comparisons_raw"] = raw_blocks.total_comparisons()
        layers["blocking.comparisons_clean"] = blocks.total_comparisons()

        candidates = blocks
        if config.enable_metablocking:
            metablocking = MetaBlocking(
                config.weighting_scheme, config.pruning_scheme, engine=config.metablocking_engine
            )
            with span("metablocking.prune"):
                candidates = metablocking.weighted_columns(blocks, context=context, parallel=parallel)
            layers["metablocking.graph_edges"] = metablocking.last_graph_edges
            layers["metablocking.retained"] = metablocking.last_retained_edges

        if ground_truth is not None:
            with span("evaluation.candidates"):
                pairs = candidates if candidates is not blocks else blocks.distinct_pairs()
                evaluate_comparisons(pairs, ground_truth, data)

        scheduler = _SCHEDULERS[config.scheduler]()
        vectorizer = None
        if config.use_tfidf:
            with span("text.tfidf_fit"):
                vectorizer = context.fit_vectorizer()
        matcher = ProfileSimilarityMatcher(threshold=config.match_threshold, vectorizer=vectorizer)
        engine = MatchingEngine(
            matcher, engine=config.matching_engine, context=context, parallel=parallel
        )
        tracer.wrap_methods(engine, SCORING_METHODS, "matching.score")
        scheduling = SchedulingEngine(scheduler, engine=config.scheduling_engine)
        with span("progressive.run"):
            progressive = run_progressive(
                scheduler=scheduler,
                matcher=matcher,
                data=data,
                candidates=candidates,
                budget=config.budget,
                ground_truth=ground_truth,
                keep_decisions=False,
                engine=engine,
                scheduling=scheduling,
            )
        matches = list(progressive.declared_matches)
        layers["progressive.comparisons"] = progressive.comparisons_executed

        clustering = ClusteringEngine(
            ConnectedComponentsClustering(), engine=config.clustering_engine, parallel=parallel
        )
        with span("matching.cluster"):
            clusters = clustering.cluster(DecisionColumns.from_match_pairs(matches))
        if ground_truth is not None:
            with span("evaluation.matches"):
                evaluate_matches(cluster_spanning_pairs(clusters), ground_truth)

        if parallel is not None:
            for counts in parallel.fault_stats.values():
                for key in ("retries", "degraded", "pool_rebuilds"):
                    layers[f"mapreduce.{key}"] = layers.get(f"mapreduce.{key}", 0) + counts.get(key, 0)
    finally:
        if parallel is not None:
            with span("mapreduce.close"):
                parallel.close()
    end = tracer.clock()

    if parallel is not None:
        layers["mapreduce.worker_maxrss_mb"] = maxrss_mb(resource.RUSAGE_CHILDREN)
    layers["mapreduce.intern_s"] = tracer.total("mapreduce.intern")
    layers["core.intern_s"] = tracer.total("core.intern")
    layers["text.tfidf_fit_s"] = tracer.total("text.tfidf_fit")
    layers["blocking.build_s"] = tracer.total("blocking.build")
    layers["blocking.purge_s"] = tracer.total("blocking.purge")
    layers["blocking.filter_s"] = tracer.total("blocking.filter")
    layers["metablocking.prune_s"] = tracer.total("metablocking.prune")
    layers["progressive.self_s"] = sum(
        tracer.self_time(run) for run in tracer.named("progressive.run")
    )
    layers["matching.score_s"] = tracer.total("matching.score")
    layers["matching.score_calls"] = tracer.count("matching.score")
    layers["matching.declared"] = len(matches)
    layers["matching.cluster_s"] = tracer.total("matching.cluster")
    layers["matching.clusters"] = len(clusters)
    layers["evaluation.s"] = tracer.total("evaluation.candidates") + tracer.total(
        "evaluation.matches"
    )
    return Traced(
        tracer,
        start,
        end,
        clusters,
        matches,
        layers,
        blocks=blocks,
        candidates=candidates if config.enable_metablocking else None,
        comparisons=progressive.comparisons_executed,
    )


def layer_quality(traced: Traced, data, ground_truth) -> None:
    """Ground-truth ratios of the blocking, meta-blocking and matching layers (untimed)."""
    layers = traced.layers
    quality = evaluate_blocks(traced.blocks, ground_truth, data)
    layers["blocking.pc"] = quality.pair_completeness
    layers["blocking.pq"] = quality.pairs_quality
    if traced.candidates is not None:
        quality = evaluate_comparisons(traced.candidates, ground_truth, data)
        layers["metablocking.pc"] = quality.pair_completeness
        layers["metablocking.pq"] = quality.pairs_quality
    true_matches = sum(1 for pair in traced.matches if ground_truth.are_matches(*pair))
    layers["matching.true_ratio"] = true_matches / traced.comparisons if traced.comparisons else 0.0
    traced.blocks = traced.candidates = None


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------
def replay_stream(ingest, held_out) -> IncrementalIndex:
    """The stream's write sequence on an index that is never restored."""
    index = workloads.new_index()
    for description in ingest:
        index.add(description)
    for position, description in enumerate(held_out):
        if position % 2 == 0:
            index.add(description)
    return index


def trace_stream(generated, workdir: str, held_out_size: int = workloads.STREAM_HELD_OUT) -> Traced:
    """Ingest, save + load and the mixed phase of the ``stream`` workload, spanned."""
    ingest, held_out = workloads.split_stream(generated, held_out_size)
    tracer = Tracer()
    span = tracer.span
    layers: Dict[str, float] = {}
    snapshot = os.path.join(workdir, "snapshot")
    index = workloads.new_index()
    tracer.wrap_methods(index.context, ("add_record",), "core.intern")

    arrivals = comparisons = merged = 0

    def add(description) -> None:
        nonlocal arrivals, comparisons, merged
        with span("iterative.add"):
            arrival = index.add(description)
        arrivals += 1
        comparisons += arrival.comparisons
        merged += 0 if arrival.is_new_entity else 1

    start = tracer.clock()
    for description in ingest:
        add(description)
    with span("iterative.save"):
        index.save(snapshot)
    with span("iterative.load"):
        index = IncrementalIndex.load(snapshot)
    tracer.wrap_methods(index.context, ("add_record",), "core.intern")
    for position, description in enumerate(held_out):
        with span("iterative.resolve"):
            index.resolve(description)
        if position % 2 == 0:
            add(description)
    end = tracer.clock()
    layers["iterative.snapshot_bytes"] = workloads.snapshot_bytes(snapshot)
    shutil.rmtree(snapshot, ignore_errors=True)

    layers["core.intern_s"] = tracer.total("core.intern")
    layers["core.descriptions"] = len(index)
    layers["core.vocabulary"] = index.context.vocabulary_size
    layers["iterative.add_s"] = tracer.total("iterative.add")
    layers["iterative.add_comparisons"] = comparisons / arrivals
    layers["iterative.merge_ratio"] = merged / arrivals
    layers["iterative.resolve_s"] = tracer.total("iterative.resolve")
    layers["iterative.save_s"] = tracer.total("iterative.save")
    layers["iterative.load_s"] = tracer.total("iterative.load")
    return Traced(tracer, start, end, index.clusters(), [], layers)
