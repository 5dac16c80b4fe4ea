"""Bit-identity of the multi-process parallel engine vs the sequential engines.

The contract of :class:`~repro.mapreduce.parallel.ParallelEngine` is that
enabling it never changes a result: the blocks, the retained meta-blocking
edges (weights *and* order, i.e. tie order), and the matching scores must be
bit-identical to the single-process array engines for every worker count.
These tests sweep dirty and clean--clean collections across 1/2/4/8 workers,
every weighting x pruning scheme pair, both matcher modes (TF-IDF cosine and
set similarity), the pure-Python index replica, and the degenerate shapes
(empty collection, single entity, more workers than entities).

The lifecycle tests assert the driver-owns-everything rule observably: after
``close`` no shared-memory segment created by the engine is left behind in
``/dev/shm``, and further work on the engine is refused.
"""

from __future__ import annotations

import os

import pytest

from repro.blocking.engine import BlockingEngine
from repro.blocking.token_blocking import TokenBlocking
from repro.core import ERWorkflow, WorkflowConfig
from repro.core.context import PipelineContext
from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription
from repro.mapreduce.balancing import contiguous_partitions
from repro.mapreduce.parallel import ParallelEngine
from repro.matching.engine import MatchingEngine
from repro.matching.matchers import ProfileSimilarityMatcher
from repro.metablocking.entity_index import EntityIndexEngine
from repro.metablocking.pipeline import MetaBlocking

DATASETS = ("dirty", "clean")
WORKER_COUNTS = (1, 2, 4, 8)
WEIGHTINGS = ("CBS", "JS", "ARCS", "ECBS", "EJS")
PRUNINGS = ("WEP", "CEP", "WNP", "CNP")


def blocks_snapshot(blocks):
    """Full structural snapshot: key order, member order, bilateral split."""
    return [
        (block.key, tuple(block.members), tuple(block.left_members), tuple(block.right_members))
        for block in blocks
    ]


def edges_snapshot(edge_iterable):
    """Retained edges in stream order, weights compared exactly."""
    return [(edge.first, edge.second, edge.weight) for edge in edge_iterable]


def shm_segments():
    """The POSIX shared-memory segments currently alive (None if unobservable)."""
    if not os.path.isdir("/dev/shm"):
        return None
    return sorted(
        name
        for name in os.listdir("/dev/shm")
        if name.startswith("psm_") or name.startswith("repro-")
    )


@pytest.fixture(scope="module")
def dirty_setup(small_dirty_dataset):
    data = small_dirty_dataset.collection
    context = PipelineContext(data)
    blocks = BlockingEngine(TokenBlocking(max_block_fraction=0.5), context=context).build(data)
    return data, context, blocks


@pytest.fixture(scope="module")
def clean_setup(small_clean_clean_dataset):
    data = small_clean_clean_dataset.task
    context = PipelineContext(data)
    blocks = BlockingEngine(TokenBlocking(max_block_fraction=0.5), context=context).build(data)
    return data, context, blocks


def _setup(request, dataset):
    return request.getfixturevalue(f"{dataset}_setup")


class TestContiguousPartitions:
    def test_exactly_num_workers_ranges_in_order(self):
        parts = contiguous_partitions([1.0] * 10, 3)
        assert len(parts) == 3
        assert parts[0][0] == 0 and parts[-1][1] == 10
        for (_, stop), (next_start, _) in zip(parts, parts[1:]):
            assert stop == next_start

    def test_more_workers_than_items_yields_empty_tails(self):
        parts = contiguous_partitions([1.0, 1.0], 5)
        assert len(parts) == 5
        assert parts[0][0] == 0 and parts[-1][1] == 2
        covered = sum(stop - start for start, stop in parts)
        assert covered == 2

    def test_empty_input(self):
        parts = contiguous_partitions([], 4)
        assert len(parts) == 4
        assert all(start == stop for start, stop in parts)

    def test_skew_is_balanced(self):
        costs = [100.0] + [1.0] * 99
        parts = contiguous_partitions(costs, 4)
        loads = [sum(costs[start:stop]) for start, stop in parts]
        # the huge item sits alone-ish; no worker gets everything
        assert max(loads) < sum(costs)
        assert all(stop > start for start, stop in parts)

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            contiguous_partitions([1.0], 0)


class TestParallelBlocking:
    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_blocks_bit_identical(self, request, dataset, workers):
        data, context, seq_blocks = _setup(request, dataset)
        with ParallelEngine(num_workers=workers) as par:
            engine = BlockingEngine(
                TokenBlocking(max_block_fraction=0.5), context=context, parallel=par
            )
            built = engine.build(data)
        # sharding the postings pass does not change the algorithm reported
        assert engine.last_engine == "index"
        assert blocks_snapshot(built) == blocks_snapshot(seq_blocks)

    @pytest.mark.parametrize("dataset", DATASETS)
    def test_member_limit_matches_sequential(self, request, dataset):
        # max_block_fraction exercises the member-limit admission mask
        data, context, _ = _setup(request, dataset)
        builder = TokenBlocking(max_block_fraction=0.3)
        seq_blocks = BlockingEngine(builder, context=context).build(data)
        with ParallelEngine(num_workers=3) as par:
            built = BlockingEngine(
                TokenBlocking(max_block_fraction=0.3), context=context, parallel=par
            ).build(data)
        assert blocks_snapshot(built) == blocks_snapshot(seq_blocks)


class TestParallelMetaBlocking:
    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    @pytest.mark.parametrize("pruning", PRUNINGS)
    def test_edges_bit_identical(self, request, dataset, weighting, pruning):
        _, _, blocks = _setup(request, dataset)
        metablocking = MetaBlocking(weighting, pruning)
        expected = edges_snapshot(metablocking.iter_retained(blocks))
        with ParallelEngine(num_workers=3) as par:
            got = edges_snapshot(metablocking.iter_retained(blocks, parallel=par))
        assert metablocking.last_engine == "parallel"
        assert got == expected

    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_worker_count_invariance(self, request, dataset, workers):
        # EJS/WNP exercises both support rounds: pooled degrees + node weights
        _, _, blocks = _setup(request, dataset)
        metablocking = MetaBlocking("EJS", "WNP")
        expected = edges_snapshot(metablocking.iter_retained(blocks))
        with ParallelEngine(num_workers=workers) as par:
            got = edges_snapshot(metablocking.iter_retained(blocks, parallel=par))
        assert metablocking.last_engine == "parallel"
        assert got == expected


class TestParallelMatching:
    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("mode", ("tfidf", "jaccard"))
    def test_scores_bit_identical(self, request, dataset, workers, mode):
        _, context, _ = _setup(request, dataset)
        if mode == "tfidf":
            matcher = ProfileSimilarityMatcher(
                threshold=0.5, vectorizer=context.fit_vectorizer()
            )
        else:
            matcher = ProfileSimilarityMatcher(threshold=0.5, similarity_name="jaccard")
        descriptions = context.descriptions
        pairs = [
            (descriptions[i], descriptions[i + 1])
            for i in range(min(len(descriptions), 60) - 1)
        ]
        expected = MatchingEngine(matcher, context=context).similarity_scores(pairs)
        with ParallelEngine(num_workers=workers) as par:
            engine = MatchingEngine(matcher, context=context, parallel=par)
            got = engine.similarity_scores(pairs)
        assert engine.last_engine == "parallel"
        assert got == expected

    def test_foreign_description_falls_back(self, dirty_setup):
        # a pair outside the shared context cannot be resolved to ordinals:
        # the whole batch must take the sequential path, not crash or drift
        _, context, _ = dirty_setup
        matcher = ProfileSimilarityMatcher(threshold=0.5, similarity_name="jaccard")
        descriptions = context.descriptions
        foreign = EntityDescription("not-in-context", {"name": "A Stranger Here"})
        pairs = [(descriptions[0], descriptions[1]), (descriptions[2], foreign)]
        expected = MatchingEngine(matcher, context=context).similarity_scores(pairs)
        with ParallelEngine(num_workers=2) as par:
            engine = MatchingEngine(matcher, context=context, parallel=par)
            got = engine.similarity_scores(pairs)
        assert engine.last_engine == "batch"
        assert got == expected


class TestEdgeCasesAndLifecycle:
    def test_empty_collection(self):
        data = EntityCollection([], name="empty")
        context = PipelineContext(data)
        with ParallelEngine(num_workers=4) as par:
            blocks = BlockingEngine(TokenBlocking(), context=context, parallel=par).build(data)
            assert len(blocks) == 0
            assert not par.install_node_weights(EntityIndexEngine(blocks))

    def test_single_entity_with_more_workers_than_input(self):
        data = EntityCollection(
            [EntityDescription("x1", {"name": "Lonely Entity"})], name="single"
        )
        context = PipelineContext(data)
        sequential = BlockingEngine(TokenBlocking(), context=context).build(data)
        with ParallelEngine(num_workers=8) as par:
            built = BlockingEngine(TokenBlocking(), context=context, parallel=par).build(data)
            assert blocks_snapshot(built) == blocks_snapshot(sequential)
            metablocking = MetaBlocking("CBS", "WNP")
            assert edges_snapshot(metablocking.iter_retained(built, parallel=par)) == []

    def test_tiny_collection_more_workers_than_entities(self, tiny_collection):
        context = PipelineContext(tiny_collection)
        sequential = BlockingEngine(TokenBlocking(), context=context).build(tiny_collection)
        metablocking = MetaBlocking("JS", "CNP")
        expected = edges_snapshot(metablocking.iter_retained(sequential))
        with ParallelEngine(num_workers=16) as par:
            built = BlockingEngine(TokenBlocking(), context=context, parallel=par).build(
                tiny_collection
            )
            got = edges_snapshot(metablocking.iter_retained(built, parallel=par))
        assert blocks_snapshot(built) == blocks_snapshot(sequential)
        assert got == expected

    def test_segments_destroyed_on_close(self, dirty_setup):
        before = shm_segments()
        if before is None:
            pytest.skip("/dev/shm not observable on this platform")
        data, context, blocks = dirty_setup
        par = ParallelEngine(num_workers=2)
        try:
            BlockingEngine(TokenBlocking(), context=context, parallel=par).build(data)
            metablocking = MetaBlocking("EJS", "WNP")
            edges_snapshot(metablocking.iter_retained(blocks, parallel=par))
        finally:
            par.close()
        leaked = sorted(set(shm_segments()) - set(before))
        assert leaked == []

    def test_close_is_idempotent_and_final(self, dirty_setup):
        data, context, _ = dirty_setup
        par = ParallelEngine(num_workers=2)
        BlockingEngine(TokenBlocking(), context=context, parallel=par).build(data)
        par.close()
        par.close()
        with pytest.raises(RuntimeError):
            BlockingEngine(TokenBlocking(), context=context, parallel=par).build(data)

    @pytest.mark.parametrize("dataset", DATASETS)
    def test_workflow_end_to_end_equivalence(self, request, dataset):
        data, _, _ = _setup(request, dataset)
        signatures = []
        for workers in (1, 4):
            config = WorkflowConfig(num_workers=workers, iterate_merges=True)
            result = ERWorkflow(config).run(data)
            signatures.append(
                (
                    sorted(tuple(sorted(match)) for match in result.matches),
                    sorted(frozenset(cluster) for cluster in result.clusters),
                    result.comparisons_executed,
                )
            )
        assert signatures[0] == signatures[1]
