"""Seeded equivalence suite: array vs object scheduling engines.

The object engine (every scheduler's own ``schedule`` generator) is the
oracle.  For each seeded dataset, candidate shape, scheduler, budget and
NumPy mode, the array engine must reproduce the oracle *bit for bit*: the
same comparisons in the same order (including order under weight ties), the
same declared matches, the same progressive recall curve and the same budget
accounting.
"""

import random
from array import array

import pytest

from repro.blocking.base import Block, BlockCollection
from repro.blocking.cleaning import BlockFiltering, BlockPurging
from repro.blocking.engine import BlockingEngine
from repro.blocking.sorted_neighborhood import sorting_key_from_attributes
from repro.blocking.token_blocking import TokenBlocking
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription
from repro.datamodel.pairs import Comparison, ComparisonColumns
from repro.datasets import (
    DatasetConfig,
    generate_clean_clean_task,
    generate_dirty_dataset,
)
from repro.matching.matchers import ProfileSimilarityMatcher
from repro.metablocking.pipeline import MetaBlocking
from repro.progressive.engine import SCHEDULING_ENGINES, SchedulingEngine
from repro.progressive.psnm import (
    ProgressiveBlockScheduler,
    ProgressiveSortedNeighborhood,
)
from repro.progressive.runner import run_progressive
from repro.progressive.schedulers import (
    RandomOrderScheduler,
    StaticOrderScheduler,
    WeightOrderScheduler,
)
from repro.progressive.sorted_list import SortedListScheduler
from repro.progressive.hierarchy import PartitionHierarchyScheduler
from repro.text.vectorizer import TfIdfVectorizer


def _dataset(kind: str, seed: int):
    config = DatasetConfig(
        num_entities=60, duplicates_per_entity=1.4, domain="person", seed=seed
    )
    if kind == "dirty":
        dataset = generate_dirty_dataset(config)
        return dataset.collection, dataset.ground_truth
    dataset = generate_clean_clean_task(config)
    return dataset.task, dataset.ground_truth


def _blocks(data):
    engine = BlockingEngine(TokenBlocking())
    return engine.clean(
        engine.build(data), purging=BlockPurging(), filtering=BlockFiltering(0.8)
    )


def _candidates(data, shape: str):
    blocks = _blocks(data)
    if shape == "blocks":
        return blocks
    return MetaBlocking("CBS", "WNP").weighted_columns(blocks)


def _matcher(data, mode: str):
    if mode == "tfidf":
        return ProfileSimilarityMatcher(
            threshold=0.55, vectorizer=TfIdfVectorizer().fit(iter(data))
        )
    return ProfileSimilarityMatcher(threshold=0.3)


def _schedulers():
    return [
        WeightOrderScheduler(),
        RandomOrderScheduler(seed=5),
        SortedListScheduler(),
        SortedListScheduler(restrict_to_candidates=False, max_distance=7),
        ProgressiveBlockScheduler(promote_on_match=False),
        PartitionHierarchyScheduler(),
        PartitionHierarchyScheduler(
            sorting_key=sorting_key_from_attributes(["surname", "first_name"]),
            max_prefix=5,
            step=2,
        ),
    ]


def _trace(result):
    return (
        [(d.pair, d.similarity, d.is_match) for d in result.decisions],
        result.declared_matches,
        result.comparisons_executed,
        result.budget_spent,
        result.skipped_comparisons,
        result.curve.history() if result.curve is not None else None,
    )


def _run(scheduler, matcher, data, candidates, scheduling, **kwargs):
    return run_progressive(
        scheduler=scheduler,
        matcher=matcher,
        data=data,
        candidates=candidates,
        keep_decisions=True,
        scheduling=scheduling,
        **kwargs,
    )


class TestSeededEquivalence:
    @pytest.mark.parametrize("kind", ["dirty", "clean_clean"])
    @pytest.mark.parametrize("shape", ["columns", "blocks"])
    @pytest.mark.parametrize("budget", [None, 40])
    def test_all_feedback_free_schedulers(self, kind, shape, budget):
        """Array and object engines execute identical schedules end to end."""
        data, ground_truth = _dataset(kind, seed=11)
        candidates = _candidates(data, shape)
        matcher = _matcher(data, "tfidf")
        for scheduler in _schedulers():
            if (
                isinstance(scheduler, ProgressiveBlockScheduler)
                and shape != "blocks"
            ):
                continue  # its array path only exists for block input
            results = {}
            for engine in SCHEDULING_ENGINES:
                results[engine] = _trace(
                    _run(
                        scheduler,
                        matcher,
                        data,
                        candidates,
                        SchedulingEngine(scheduler, engine=engine),
                        budget=budget,
                        ground_truth=ground_truth,
                    )
                )
            assert results["array"] == results["object"], (
                kind,
                shape,
                budget,
                scheduler.name,
            )

    @pytest.mark.parametrize("kind", ["dirty", "clean_clean"])
    def test_matches_historical_runner_path(self, kind):
        """`scheduling=None` (the pre-engine runner) is the same oracle."""
        data, ground_truth = _dataset(kind, seed=23)
        candidates = _candidates(data, "columns")
        matcher = _matcher(data, "set")
        for scheduler in (WeightOrderScheduler(), RandomOrderScheduler(seed=2)):
            baseline = _trace(
                _run(scheduler, matcher, data, candidates, None, ground_truth=ground_truth)
            )
            arrayed = _trace(
                _run(
                    scheduler,
                    matcher,
                    data,
                    candidates,
                    SchedulingEngine(scheduler, engine="array"),
                    ground_truth=ground_truth,
                )
            )
            assert arrayed == baseline

    def test_pairwise_matching_engine_consumes_array_schedule(self):
        """The array schedule also feeds the per-pair matching path unchanged."""
        data, ground_truth = _dataset("dirty", seed=31)
        candidates = _candidates(data, "columns")
        matcher = _matcher(data, "set")
        scheduler = WeightOrderScheduler()
        results = [
            _trace(
                _run(
                    scheduler,
                    matcher,
                    data,
                    candidates,
                    SchedulingEngine(scheduler, engine=engine),
                    engine=matching_engine,
                    ground_truth=ground_truth,
                )
            )
            for engine in SCHEDULING_ENGINES
            for matching_engine in ("batch", "pairwise")
        ]
        assert all(result == results[0] for result in results[1:])

    @pytest.mark.parametrize("engine", SCHEDULING_ENGINES)
    def test_static_order_runs_verbatim(self, engine):
        data, _ = _dataset("dirty", seed=7)
        candidates = _candidates(data, "columns")
        order = list(candidates)[:50]
        random.Random(3).shuffle(order)
        order = order + order[:5]  # duplicates must be preserved verbatim
        scheduler = StaticOrderScheduler(order)
        result = _run(
            scheduler,
            _matcher(data, "set"),
            data,
            candidates,
            SchedulingEngine(scheduler, engine=engine),
        )
        assert [d.pair for d in result.decisions] == [c.pair for c in order]


class TestWeightTies:
    def test_tie_order_matches_object_sort(self):
        """At equal weights the array order breaks ties on the identifier pair."""
        identifiers = [f"id{i:02d}" for i in range(12)]
        rng = random.Random(9)
        rows = []
        for i in range(len(identifiers)):
            for j in range(i + 1, len(identifiers)):
                rows.append((identifiers[i], identifiers[j], rng.choice([0.25, 0.5])))
        rng.shuffle(rows)
        comparisons = [Comparison(a, b, weight=w) for a, b, w in rows]

        ids = sorted({x for a, b, _ in rows for x in (a, b)}, key=lambda x: rng.random())
        ordinal = {identifier: o for o, identifier in enumerate(ids)}
        columns = ComparisonColumns(
            ids,
            array("q", (ordinal[min(a, b)] for a, b, _ in rows)),
            array("q", (ordinal[max(a, b)] for a, b, _ in rows)),
            array("d", (w for _, _, w in rows)),
        )
        scheduler = WeightOrderScheduler()
        expected = list(scheduler.schedule(None, comparisons))
        got = list(SchedulingEngine(scheduler, engine="array").schedule(None, columns))
        assert [(c.pair, c.weight) for c in got] == [
            (c.pair, c.weight) for c in expected
        ]

    def test_weight_sorted_matches_the_object_sort_on_shuffled_rows(self):
        data, _ = _dataset("dirty", seed=13)
        columns = _candidates(data, "columns")
        # rebuild from a shuffled row list (drops the pre-sorted marker, so
        # the lexsort actually runs)
        rng = random.Random(1)
        order = list(range(len(columns)))
        rng.shuffle(order)
        shuffled = ComparisonColumns(
            columns.ids,
            array("q", (columns.first[i] for i in order)),
            array("q", (columns.second[i] for i in order)),
            array("d", (columns.weights[i] for i in order)),
        )
        got = list(shuffled.weight_sorted())
        expected = sorted(
            list(shuffled), key=lambda c: (-c.weight, c.first, c.second)
        )
        assert [(c.pair, c.weight) for c in got] == [
            (c.pair, c.weight) for c in expected
        ]


class TestFallback:
    def test_adaptive_schedulers_fall_back(self):
        data, ground_truth = _dataset("dirty", seed=17)
        candidates = _candidates(data, "blocks")
        for scheduler in (
            ProgressiveSortedNeighborhood(),
            ProgressiveBlockScheduler(),  # promotion enabled => adaptive
        ):
            engine = SchedulingEngine(scheduler, engine="array")
            assert not engine.array_applicable(candidates)
            assert engine.schedule_rows(data, candidates) is None
            assert engine.last_engine == "object"
            assert not SchedulingEngine(
                ProgressiveBlockScheduler(), engine="array"
            ).feedback_free
            # and the run still matches the plain runner
            matcher = _matcher(data, "set")
            via_engine = _trace(
                _run(scheduler, matcher, data, candidates, engine, ground_truth=ground_truth)
            )
            plain = _trace(
                _run(scheduler, matcher, data, candidates, None, ground_truth=ground_truth)
            )
            assert via_engine == plain

    def test_feedback_free_non_native_scheduler_falls_back(self):
        data, _ = _dataset("dirty", seed=19)
        candidates = _candidates(data, "columns")
        # without the candidate restriction the hierarchy itself defines
        # the candidates: only the object generator enumerates it
        scheduler = PartitionHierarchyScheduler(restrict_to_candidates=False)
        engine = SchedulingEngine(scheduler, engine="array")
        assert engine.feedback_free
        assert engine.schedule_rows(data, candidates) is None
        assert engine.last_engine == "object"
        native = SchedulingEngine(PartitionHierarchyScheduler(), engine="array")
        assert native.schedule_rows(data, candidates) is not None
        assert native.last_engine == "array"

    def test_subclasses_fall_back(self):
        class TweakedWeightOrder(WeightOrderScheduler):
            def schedule(self, data, candidates):
                yield from reversed(list(super().schedule(data, candidates)))

        data, _ = _dataset("dirty", seed=3)
        candidates = _candidates(data, "columns")
        engine = SchedulingEngine(TweakedWeightOrder(), engine="array")
        assert engine.schedule_rows(data, candidates) is None
        scheduled = list(engine.schedule(data, candidates))
        assert engine.last_engine == "object"
        expected = list(TweakedWeightOrder().schedule(data, candidates))
        assert [c.pair for c in scheduled] == [c.pair for c in expected]

    def test_object_engine_forces_fallback(self):
        data, _ = _dataset("dirty", seed=3)
        candidates = _candidates(data, "columns")
        engine = SchedulingEngine(WeightOrderScheduler(), engine="object")
        assert engine.schedule_rows(data, candidates) is None
        assert engine.last_engine == "object"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            SchedulingEngine(WeightOrderScheduler(), engine="bogus")

    def test_mismatched_engine_wrapper_rejected(self):
        data, _ = _dataset("dirty", seed=3)
        candidates = _candidates(data, "columns")
        with pytest.raises(ValueError):
            run_progressive(
                scheduler=WeightOrderScheduler(),
                matcher=_matcher(data, "set"),
                data=data,
                candidates=candidates,
                scheduling=SchedulingEngine(WeightOrderScheduler(), engine="array"),
            )


def _described(identifier, text):
    return EntityDescription(identifier, {"name": text} if text else None)


def _assert_array_identical(scheduler, data, candidates):
    """The array schedule exists and equals the object generator, pair for pair."""
    engine = SchedulingEngine(scheduler, engine="array")
    rows = engine.schedule_rows(data, candidates)
    assert rows is not None and engine.last_engine == "array"
    got = [(c.first, c.second, c.weight) for c in rows.comparisons()]
    expected = [(c.first, c.second, c.weight) for c in scheduler.schedule(data, candidates)]
    assert got == expected
    return got


def _columns_of(pairs):
    ids = sorted({identifier for pair in pairs for identifier in pair}, reverse=True)
    ordinal = {identifier: o for o, identifier in enumerate(ids)}
    return ComparisonColumns(
        ids,
        array("q", (ordinal[min(pair)] for pair in pairs)),
        array("q", (ordinal[max(pair)] for pair in pairs)),
    )


class TestPartitionHierarchy:
    """Direct bit-identity cases of the array hierarchy schedule."""

    def test_empty_sorting_keys_never_partition(self):
        texts = ["", "smith john", "", "smith jon", "!!", "smyth john", "smith john"]
        data = EntityCollection(
            _described(f"p{i}", text) for i, text in enumerate(texts)
        )
        blocks = BlockCollection([Block("all", members=[f"p{i}" for i in range(len(texts))])])
        got = _assert_array_identical(PartitionHierarchyScheduler(), data, blocks)
        assert got and all("p0" not in pair[:2] and "p2" not in pair[:2] for pair in got)

    def test_candidates_outside_the_data_are_dropped(self):
        data = EntityCollection(
            _described(f"p{i}", f"anna {i % 3}") for i in range(6)
        )
        blocks = BlockCollection(
            [
                Block("a", members=["p0", "ghost", "p3", "p1"]),
                Block("b", members=["p2", "p5", "phantom"]),
            ]
        )
        pairs = [("p0", "ghost"), ("p1", "p4"), ("phantom", "p2"), ("p2", "p5")]
        for scheduler in (PartitionHierarchyScheduler(), SortedListScheduler()):
            _assert_array_identical(scheduler, data, blocks)
            got = _assert_array_identical(scheduler, data, _columns_of(pairs))
            assert sorted(pair[:2] for pair in got) == [("p1", "p4"), ("p2", "p5")]

    def test_equal_partition_sizes_order_by_prefix(self):
        # three two-member partitions whose prefix order is the reverse of
        # their identifier order, plus one larger partition
        texts = {
            "a1": "zulu", "a2": "zulu", "b1": "mike", "b2": "mike",
            "c1": "alfa", "c2": "alfa", "d1": "bravo", "d2": "bravo", "d3": "bravo",
        }
        data = EntityCollection(_described(i, t) for i, t in texts.items())
        blocks = BlockCollection([Block("all", members=list(texts))])
        got = _assert_array_identical(PartitionHierarchyScheduler(), data, blocks)
        assert [pair[:2] for pair in got[:3]] == [("c1", "c2"), ("b1", "b2"), ("a1", "a2")]

    def test_prefixes_keep_python_string_order(self):
        # a trailing NUL distinguishes two prefixes only under str semantics
        data = EntityCollection(
            EntityDescription(i, {"k": k})
            for i, k in [("x1", "a"), ("x2", "a\x00"), ("x3", "a\x00"), ("x4", "a")]
        )
        scheduler = PartitionHierarchyScheduler(
            sorting_key=lambda description: description.value("k"), max_prefix=2, step=1
        )
        blocks = BlockCollection([Block("all", members=["x1", "x2", "x3", "x4"])])
        got = _assert_array_identical(scheduler, data, blocks)
        assert [pair[:2] for pair in got[:2]] == [("x1", "x4"), ("x2", "x3")]

    def test_keys_differing_only_in_spaces_share_partitions(self):
        texts = ["jo hn smith", "john smith", "johns mith", "john smyth", "jane doe"]
        data = EntityCollection(
            _described(f"p{i}", text) for i, text in enumerate(texts)
        )
        blocks = BlockCollection([Block("all", members=[f"p{i}" for i in range(len(texts))])])
        got = _assert_array_identical(PartitionHierarchyScheduler(), data, blocks)
        assert [pair[:2] for pair in got[:3]] == [("p0", "p1"), ("p0", "p2"), ("p1", "p2")]

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_clean_clean_metablocking_columns(self, seed):
        data, _ = _dataset("clean_clean", seed=seed)
        columns = _candidates(data, "columns")
        assert isinstance(columns, ComparisonColumns)
        got = _assert_array_identical(PartitionHierarchyScheduler(), data, columns)
        assert got

    def test_clean_clean_unilateral_and_mixed_blocks(self):
        left = EntityCollection(_described(f"L{i}", f"maria {i % 2}") for i in range(4))
        right = EntityCollection(_described(f"R{i}", f"maria {i % 2}") for i in range(4))
        data = CleanCleanTask(left, right)
        blocks = BlockCollection(
            [
                # a non-bilateral block mixes both sides: only cross pairs count
                Block("mixed", members=["L0", "L1", "R0", "R1", "L2"]),
                Block("cross", left_members=["L2", "L3"], right_members=["R2", "R3", "R0"]),
            ]
        )
        got = _assert_array_identical(PartitionHierarchyScheduler(), data, blocks)
        assert got and all(pair[0][0] != pair[1][0] for pair in got)

    def test_no_emittable_pair(self):
        data = EntityCollection([_described("p0", "x"), _described("p1", "")])
        for candidates in (BlockCollection(), _columns_of([("p0", "p1")])):
            assert _assert_array_identical(
                PartitionHierarchyScheduler(), data, candidates
            ) == []

    def test_array_paths_make_no_per_pair_validity_call(self, monkeypatch):
        data, _ = _dataset("clean_clean", seed=13)
        blocks = _candidates(data, "blocks")
        calls = []
        original = CleanCleanTask.is_valid_pair

        def counting(self, first, second):
            calls.append(1)
            return original(self, first, second)

        monkeypatch.setattr(CleanCleanTask, "is_valid_pair", counting)
        for scheduler in (PartitionHierarchyScheduler(), SortedListScheduler()):
            rows = SchedulingEngine(scheduler, engine="array").schedule_rows(data, blocks)
            assert list(rows.rows)
        assert not calls
        list(PartitionHierarchyScheduler().schedule(data, blocks))
        assert calls  # the object generator does call it: the counter works


class TestBudgetSlicing:
    def test_budget_draws_only_the_affordable_prefix(self):
        """The array path never schedules past the budget slice."""
        data, ground_truth = _dataset("dirty", seed=29)
        candidates = _candidates(data, "columns")
        drawn = []
        scheduler = WeightOrderScheduler()
        engine = SchedulingEngine(scheduler, engine="array")
        rows = engine.schedule_rows(data, candidates)
        original = rows.rows

        def counting_rows():
            for row in original:
                drawn.append(row)
                yield row

        rows.rows = counting_rows()
        matcher = _matcher(data, "tfidf")
        result = run_progressive(
            scheduler=scheduler,
            matcher=matcher,
            data=data,
            candidates=candidates,
            budget=25,
            ground_truth=ground_truth,
            engine="batch",
            scheduling=engine_with_rows(engine, rows),
        )
        assert result.comparisons_executed == 25
        assert result.budget_spent == 25
        # one batched draw: budget + 1 rows at most (the draw-size guard)
        assert len(drawn) <= 26


def engine_with_rows(engine, rows):
    """A SchedulingEngine stub returning a pre-built (instrumented) schedule."""

    class _Stub(SchedulingEngine):
        def schedule_rows(self, data, candidates):
            self.last_engine = "array"
            return rows

    stub = _Stub(engine.scheduler, engine="array")
    return stub
