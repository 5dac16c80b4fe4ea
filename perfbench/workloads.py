"""The benchmark's workloads: input generation, program set-up and the timed call.

Every function here runs inside a fresh child process (see ``child.py``),
after the clock around ``import repro`` has stopped.  Input generation is
never timed; set-up covers building the objects the program receives.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import WorkflowConfig
from repro.core.workflow import ERWorkflow
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription
from repro.datamodel.ground_truth import GroundTruth
from repro.datasets.corruption import CorruptionConfig
from repro.datasets.generator import (
    DatasetConfig,
    generate_clean_clean_task,
    generate_dirty_dataset,
)
from repro.evaluation.metrics import cluster_spanning_pairs, evaluate_matches
from repro.iterative.index import IncrementalIndex
from repro.matching.matchers import ProfileSimilarityMatcher

WORKLOADS = ("dedup-2w", "link-progressive", "stream")

#: entities of the dirty publication collection (about twice as many descriptions)
DEDUP_ENTITIES = 5000
#: entities of the clean-clean publication task (left side holds all of them)
LINK_ENTITIES = 5000
#: comparison budget per left description on ``link-progressive``
LINK_BUDGET_PER_LEFT = 2

#: entities of the dirty collection streamed through the incremental index
STREAM_ENTITIES = 2000
#: descriptions held out of the ingest phase for the mixed read/write phase
STREAM_HELD_OUT = 1000
#: similarity threshold of the incremental index's matcher (``run_incremental``'s default)
STREAM_THRESHOLD = WorkflowConfig().match_threshold

#: output checks: a degenerate configuration fails instead of posting a fast time
F1_FLOOR = {"dedup-2w": 0.75, "link-progressive": 0.45, "stream": 0.80}
RECALL_FLOOR = {"link-progressive": 0.30}


@dataclass
class Generated:
    """Generator output: the description objects and their ground truth."""

    descriptions: List[EntityDescription]
    ground_truth: GroundTruth
    right: Optional[List[EntityDescription]] = None


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


# ----------------------------------------------------------------------
# generation (untimed) and set-up (timed)
# ----------------------------------------------------------------------
def generate_dirty(entities: int, seed: int) -> Generated:
    dataset = generate_dirty_dataset(
        DatasetConfig(
            num_entities=entities,
            domain="publication",
            duplicates_per_entity=1.0,
            seed=seed,
        )
    )
    return Generated(list(dataset.collection), dataset.ground_truth)


def generate_link(entities: int, seed: int) -> Generated:
    dataset = generate_clean_clean_task(
        DatasetConfig(
            num_entities=entities,
            domain="publication",
            noise=CorruptionConfig.somehow_similar(),
            missing_in_right=0.25,
            seed=seed,
        )
    )
    return Generated(list(dataset.task.left), dataset.ground_truth, list(dataset.task.right))


def build_input(generated: Generated):
    """The program's input object: a collection, or a clean-clean task."""
    if generated.right is None:
        return EntityCollection(generated.descriptions, name="dirty-publication")
    return CleanCleanTask(
        EntityCollection(generated.descriptions, name="kbA"),
        EntityCollection(generated.right, name="kbB"),
    )


def new_index() -> IncrementalIndex:
    return IncrementalIndex(ProfileSimilarityMatcher(threshold=STREAM_THRESHOLD))


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------
def workflow_config(workload: str, generated: Generated) -> WorkflowConfig:
    if workload == "dedup-2w":
        return WorkflowConfig(num_workers=2)
    if workload == "link-progressive":
        return WorkflowConfig(
            scheduler="hierarchy",
            enable_metablocking=False,
            match_threshold=0.5,
            budget=LINK_BUDGET_PER_LEFT * len(generated.descriptions),
        )
    raise KeyError(workload)


def passes_ground_truth(workload: str) -> bool:
    """Only the progressive workload resolves with ground truth inside the run."""
    return workload == "link-progressive"


def generate(workload: str, seed: int) -> Generated:
    if workload == "link-progressive":
        return generate_link(LINK_ENTITIES, seed)
    if workload == "stream":
        return generate_dirty(STREAM_ENTITIES, seed)
    return generate_dirty(DEDUP_ENTITIES, seed)


def quality_checks(workload: str, f1: float, recall: float) -> List[Check]:
    checks = [Check("f1_floor", f1 >= F1_FLOOR[workload], f"f1={f1:.4f} floor={F1_FLOOR[workload]}")]
    if workload in RECALL_FLOOR:
        floor = RECALL_FLOOR[workload]
        checks.append(Check("recall_floor", recall >= floor, f"recall={recall:.4f} floor={floor}"))
    return checks


def run_batch(workload: str, generated: Generated, setup_s: float) -> dict:
    """One untimed set-up plus one timed ``ERWorkflow.run``; scored after the clock."""
    start = time.perf_counter()
    data = build_input(generated)
    setup_s += time.perf_counter() - start

    config = workflow_config(workload, generated)
    truth = generated.ground_truth if passes_ground_truth(workload) else None
    workflow = ERWorkflow(config)
    start = time.perf_counter()
    result = workflow.run(data, truth)
    resolve_s = time.perf_counter() - start

    quality = evaluate_matches(cluster_spanning_pairs(result.clusters), generated.ground_truth)
    metrics = {"setup_s": setup_s, "resolve_s": resolve_s, "f1": quality.f1}
    if result.curve is not None:
        metrics["recall"] = result.curve.final_recall()
        metrics["auc"] = result.curve.auc()
    else:
        metrics["recall"] = quality.recall
    checks = quality_checks(workload, metrics["f1"], metrics["recall"])
    checks.append(Check("clusters_nonempty", bool(result.clusters), f"clusters={len(result.clusters)}"))
    if result.degraded_shards:
        checks.append(Check("no_degraded_shards", False, f"degraded={result.degraded_shards}"))
    return {
        "metrics": metrics,
        "checks": checks,
        "attempted": 1,
        "failed": 0 if all(check.passed for check in checks) else 1,
    }


# ----------------------------------------------------------------------
# stream workload
# ----------------------------------------------------------------------
def split_stream(generated: Generated, held_out: int = STREAM_HELD_OUT):
    """Ingest set and held-out set (the last ``held_out`` descriptions)."""
    descriptions = generated.descriptions
    cut = len(descriptions) - held_out
    return descriptions[:cut], descriptions[cut:]


def snapshot_bytes(path: str) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(folder, name)) for name in files)
    return total


def stream_quality(index: IncrementalIndex, generated: Generated, present: List[str]):
    truth = generated.ground_truth.restricted_to(present)
    return evaluate_matches(cluster_spanning_pairs(index.non_trivial_clusters()), truth)


def run_stream(generated: Generated, setup_s: float, workdir: str) -> dict:
    """Closed loop, one client: ingest from empty, save + load, then mixed reads/writes.

    ``resolve_s`` is the whole client session (ingest, restart and mixed
    phase); per-operation latencies are returned as samples.
    """
    ingest, held_out = split_stream(generated)
    start = time.perf_counter()
    index = new_index()
    setup_s += time.perf_counter() - start

    clock = time.perf_counter
    add_ms: List[float] = []
    query_ms: List[float] = []
    moved = 0
    snapshot = os.path.join(workdir, "snapshot")
    session_start = clock()
    for description in ingest:
        begin = clock()
        index.add(description)
        add_ms.append((clock() - begin) * 1e3)
    index.save(snapshot)
    index = IncrementalIndex.load(snapshot)
    for position, description in enumerate(held_out):
        comparisons, clusters = index.comparisons_executed, index.num_clusters
        begin = clock()
        index.resolve(description)
        query_ms.append((clock() - begin) * 1e3)
        if (index.comparisons_executed, index.num_clusters) != (comparisons, clusters):
            moved += 1
        if position % 2 == 0:
            begin = clock()
            index.add(description)
            add_ms.append((clock() - begin) * 1e3)
    resolve_s = clock() - session_start
    shutil.rmtree(snapshot, ignore_errors=True)

    present = [d.identifier for d in ingest] + [d.identifier for d in held_out[::2]]
    quality = stream_quality(index, generated, present)
    checks = quality_checks("stream", quality.f1, quality.recall)
    checks.append(Check("all_added", len(index) == len(present), f"live={len(index)}"))
    # each resolve() that moved a counter is one failed operation; a failed
    # whole-state check counts as one more
    failed = moved + sum(1 for check in checks if not check.passed)
    checks.append(
        Check("resolve_is_read_only", not moved, f"{moved} resolve() calls moved a counter")
    )
    return {
        "metrics": {
            "setup_s": setup_s,
            "resolve_s": resolve_s,
            "f1": quality.f1,
            "recall": quality.recall,
        },
        "samples": {"add_ms": add_ms, "query_ms": query_ms},
        "checks": checks,
        "attempted": len(add_ms) + len(query_ms),
        "failed": failed,
    }

