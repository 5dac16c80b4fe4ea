"""Tests for the end-to-end ER workflow (tutorial Figure 1)."""

import pytest

from repro.core.config import WorkflowConfig
from repro.core.workflow import ERWorkflow, default_workflow
from repro.datasets import DatasetConfig, generate_clean_clean_task, generate_dirty_dataset
from repro.matching.oracle import OracleMatcher
from repro.progressive.schedulers import RandomOrderScheduler


class TestWorkflowConfig:
    def test_describe_mentions_all_enabled_stages(self):
        config = WorkflowConfig(iterate_merges=True, budget=100)
        description = config.describe()
        assert "token" in description
        assert "metablocking" in description
        assert "budget=100" in description
        assert "iterative-merging" in description

    def test_default_workflow_rejects_unknown_overrides(self):
        with pytest.raises(AttributeError):
            default_workflow(nonexistent_option=True)


class TestWorkflowExecution:
    def test_default_workflow_resolves_dirty_collection(self, small_dirty_dataset):
        workflow = default_workflow()
        result = workflow.run(small_dirty_dataset.collection, small_dirty_dataset.ground_truth)
        assert result.matching_quality is not None
        assert result.matching_quality.f1 > 0.7
        assert result.blocking_quality.pair_completeness > 0.9
        assert result.comparisons_executed < small_dirty_dataset.collection.total_comparisons()
        assert len(result.report) >= 4
        assert "clusters" in result.summary()

    def test_blocking_engines_produce_identical_results(self, small_dirty_dataset):
        """Swapping the blocking engine changes stage labels, not the outcome."""
        results = {}
        for engine in ("index", "oracle"):
            workflow = default_workflow(blocking_engine=engine)
            result = workflow.run(small_dirty_dataset.collection, small_dirty_dataset.ground_truth)
            results[engine] = result
            stage_names = [stage.stage for stage in result.report]
            assert f"blocking[token_blocking@{engine}]" in stage_names
            assert f"block_purging@{engine}" in stage_names
            assert f"block_filtering@{engine}" in stage_names
        assert sorted(results["index"].matches) == sorted(results["oracle"].matches)
        assert (
            results["index"].comparisons_executed == results["oracle"].comparisons_executed
        )

    @pytest.mark.parametrize("num_workers", [0, -3])
    def test_worker_counts_below_one_are_rejected(self, tiny_collection, num_workers):
        workflow = ERWorkflow(WorkflowConfig(num_workers=num_workers))
        with pytest.raises(ValueError, match="num_workers must be at least 1"):
            workflow.run(tiny_collection)

    def test_workflow_without_ground_truth_still_runs(self, small_dirty_dataset):
        result = default_workflow().run(small_dirty_dataset.collection)
        assert result.matching_quality is None
        assert result.blocking_quality is None
        assert result.clusters

    def test_clean_clean_workflow(self, small_clean_clean_dataset):
        workflow = default_workflow()
        result = workflow.run(small_clean_clean_dataset.task, small_clean_clean_dataset.ground_truth)
        assert result.matching_quality.f1 > 0.5
        # all declared matches must be cross-collection pairs
        task = small_clean_clean_dataset.task
        for first, second in result.matches:
            assert task.is_valid_pair(first, second)

    def test_budget_limits_comparisons(self, small_dirty_dataset):
        limited = default_workflow(budget=100).run(
            small_dirty_dataset.collection, small_dirty_dataset.ground_truth
        )
        assert limited.comparisons_executed <= 100

    def test_component_overrides_take_precedence(self, small_dirty_dataset):
        oracle = OracleMatcher(small_dirty_dataset.ground_truth)
        workflow = ERWorkflow(
            WorkflowConfig(enable_metablocking=False),
            matcher=oracle,
            scheduler=RandomOrderScheduler(seed=1),
        )
        result = workflow.run(small_dirty_dataset.collection, small_dirty_dataset.ground_truth)
        assert result.matching_quality.precision == 1.0  # the oracle never errs
        assert oracle.calls == result.comparisons_executed

    def test_unknown_component_names_raise(self, small_dirty_dataset):
        with pytest.raises(KeyError):
            ERWorkflow(WorkflowConfig(blocking="bogus")).run(small_dirty_dataset.collection)
        with pytest.raises(KeyError):
            ERWorkflow(WorkflowConfig(scheduler="bogus")).run(small_dirty_dataset.collection)
        with pytest.raises(KeyError):
            ERWorkflow(WorkflowConfig(clustering="bogus")).run(small_dirty_dataset.collection)

    def test_iterative_merging_finds_at_least_as_many_matches(self):
        dataset = generate_dirty_dataset(
            DatasetConfig(num_entities=60, duplicates_per_entity=2.0, seed=23)
        )
        plain = default_workflow(iterate_merges=False, use_tfidf=False, match_threshold=0.6).run(
            dataset.collection, dataset.ground_truth
        )
        iterative = default_workflow(iterate_merges=True, use_tfidf=False, match_threshold=0.6).run(
            dataset.collection, dataset.ground_truth
        )
        assert iterative.matching_quality.recall >= plain.matching_quality.recall
        assert iterative.iterations >= 1

    @pytest.mark.parametrize("blocking", ["token", "attribute_clustering", "sorted_neighborhood"])
    def test_alternative_blocking_schemes(self, small_dirty_dataset, blocking):
        workflow = default_workflow(blocking=blocking, enable_metablocking=blocking == "token")
        result = workflow.run(small_dirty_dataset.collection, small_dirty_dataset.ground_truth)
        assert result.matching_quality is not None

    @pytest.mark.parametrize("scheduler", ["random", "sorted_list", "psnm", "progressive_blocks"])
    def test_alternative_schedulers(self, small_dirty_dataset, scheduler):
        workflow = default_workflow(scheduler=scheduler, budget=500)
        result = workflow.run(small_dirty_dataset.collection, small_dirty_dataset.ground_truth)
        assert result.comparisons_executed <= 500


class TestBudgetedWorkflowRuns:
    """Progressive-curve and comparison accounting through budgeted runs.

    Exercises the full ``ERWorkflow.run`` path -- budget, ground truth and
    merge iteration together -- on both scheduling engines, which must agree
    on every number they report.
    """

    BUDGET = 120

    @pytest.fixture(scope="class")
    def budget_dataset(self):
        return generate_dirty_dataset(
            DatasetConfig(num_entities=80, duplicates_per_entity=1.6, seed=77)
        )

    @pytest.mark.parametrize("engine", ["array", "object"])
    def test_budget_curve_and_accounting(self, budget_dataset, engine):
        workflow = default_workflow(
            budget=self.BUDGET,
            scheduling_engine=engine,
            iterate_merges=True,
            match_threshold=0.5,
        )
        result = workflow.run(budget_dataset.collection, budget_dataset.ground_truth)

        # the budget caps the scheduling+matching phase; merge iteration runs
        # on top of it and its extra comparisons are accounted separately
        matching = next(s for s in result.report if s.stage.startswith("matching["))
        assert f"@{engine}+" in matching.stage
        assert matching.metrics["comparisons"] <= self.BUDGET
        extra = result.comparisons_executed - matching.metrics["comparisons"]
        assert extra >= 0
        if result.iterations:
            update = next(s for s in result.report if s.stage == "update_iterate")
            assert update.metrics["comparisons"] == extra

        # the curve records exactly the budgeted comparisons, monotonically
        curve = result.curve
        assert curve is not None
        assert curve.num_comparisons == matching.metrics["comparisons"]
        history = curve.history()
        assert history[0] == (0, 0)
        assert all(
            later[0] == earlier[0] + 1 and later[1] >= earlier[1]
            for earlier, later in zip(history, history[1:])
        )
        assert 0.0 < curve.final_recall() <= 1.0
        assert 0.0 < curve.auc() <= 1.0

    def test_engines_agree_on_budgeted_runs(self, budget_dataset):
        results = {}
        for engine in ("array", "object"):
            workflow = default_workflow(
                budget=self.BUDGET,
                scheduling_engine=engine,
                iterate_merges=True,
                match_threshold=0.5,
            )
            results[engine] = workflow.run(
                budget_dataset.collection, budget_dataset.ground_truth
            )
        assert results["array"].matches == results["object"].matches
        assert (
            results["array"].comparisons_executed
            == results["object"].comparisons_executed
        )
        assert results["array"].iterations == results["object"].iterations
        assert results["array"].curve.history() == results["object"].curve.history()
        assert results["array"].clusters == results["object"].clusters

    @pytest.mark.parametrize("engine", ["array", "object"])
    def test_unbudgeted_run_executes_all_candidates(self, budget_dataset, engine):
        workflow = default_workflow(scheduling_engine=engine)
        result = workflow.run(budget_dataset.collection, budget_dataset.ground_truth)
        metablocking = next(
            s for s in result.report if s.stage.startswith("metablocking[")
        )
        matching = next(s for s in result.report if s.stage.startswith("matching["))
        assert matching.metrics["comparisons"] == metablocking.metrics["retained"]


class TestClusteringEngineThreading:
    def test_clustering_engines_produce_identical_results(self, small_dirty_dataset):
        """Swapping the clustering engine changes stage labels, not the outcome."""
        results = {}
        for engine in ("array", "object"):
            for clustering in ("connected_components", "center", "merge_center"):
                workflow = default_workflow(
                    clustering=clustering, clustering_engine=engine
                )
                result = workflow.run(
                    small_dirty_dataset.collection, small_dirty_dataset.ground_truth
                )
                results[(engine, clustering)] = result
                stage_names = [stage.stage for stage in result.report]
                assert f"clustering[{clustering}@{engine}]" in stage_names
        for clustering in ("connected_components", "center", "merge_center"):
            array_result = results[("array", clustering)]
            object_result = results[("object", clustering)]
            # exact cluster lists, including order, and identical metrics
            assert array_result.clusters == object_result.clusters
            assert (
                array_result.matching_quality.as_dict()
                == object_result.matching_quality.as_dict()
            )

    def test_custom_clustering_override_not_supported_by_name(self, small_dirty_dataset):
        with pytest.raises(KeyError):
            ERWorkflow(WorkflowConfig(clustering_engine="array", clustering="bogus")).run(
                small_dirty_dataset.collection
            )

    def test_default_run_creates_no_match_decision_objects(self, small_dirty_dataset):
        """The default engine path is object-free end to end: scheduling
        drains into decision columns and clustering consumes them as flat
        ordinals, so not a single MatchDecision is ever constructed."""
        from repro.matching.matchers import MatchDecision

        calls = []
        original = MatchDecision.__init__

        def counting(self, *args, **kwargs):
            calls.append(1)
            original(self, *args, **kwargs)

        MatchDecision.__init__ = counting
        try:
            result = default_workflow().run(
                small_dirty_dataset.collection, small_dirty_dataset.ground_truth
            )
        finally:
            MatchDecision.__init__ = original
        assert result.clusters  # the run actually resolved something
        assert result.matching_quality is not None
        assert not calls, f"{len(calls)} MatchDecision objects created on the default path"

    def test_object_engines_do_create_decision_objects(self, small_dirty_dataset):
        """Sanity check of the zero-object assertion: the legacy object
        pipeline trips the same counter."""
        from repro.matching.matchers import MatchDecision

        calls = []
        original = MatchDecision.__init__

        def counting(self, *args, **kwargs):
            calls.append(1)
            original(self, *args, **kwargs)

        MatchDecision.__init__ = counting
        try:
            default_workflow(
                scheduling_engine="object", clustering_engine="object"
            ).run(small_dirty_dataset.collection, small_dirty_dataset.ground_truth)
        finally:
            MatchDecision.__init__ = original
        assert calls


class TestIncrementalWorkflow:
    """``run_incremental``: arrival-stream resolution with snapshot/restore."""

    def test_stage_labels_and_metrics(self, small_dirty_dataset):
        result = ERWorkflow(WorkflowConfig()).run_incremental(
            small_dirty_dataset.collection, small_dirty_dataset.ground_truth
        )
        stages = [stage.stage for stage in result.report]
        assert stages == ["incremental[profile_similarity@array]"]
        (stage,) = list(result.report)
        assert stage.get("arrivals") == len(small_dirty_dataset.collection)
        assert stage.get("comparisons") > 0
        assert result.clusters
        assert result.matching_quality is not None

    def test_engines_produce_identical_results(self, small_dirty_dataset):
        results = {}
        for engine in ("array", "object"):
            config = WorkflowConfig(incremental_engine=engine)
            result = ERWorkflow(config).run_incremental(small_dirty_dataset.collection)
            (stage,) = list(result.report)
            assert stage.stage == f"incremental[profile_similarity@{engine}]"
            results[engine] = (
                sorted(sorted(c) for c in result.clusters),
                sorted(result.matches),
                stage.get("comparisons"),
            )
        assert results["array"] == results["object"]

    def test_snapshot_and_restore_stages(self, small_dirty_dataset, tmp_path):
        descriptions = list(small_dirty_dataset.collection)
        half = len(descriptions) // 2
        from repro.datamodel.collection import EntityCollection

        snapshot_dir = tmp_path / "snap"
        first = ERWorkflow(WorkflowConfig()).run_incremental(
            EntityCollection(descriptions[:half]), snapshot=snapshot_dir
        )
        assert [s.stage for s in first.report] == [
            "incremental[profile_similarity@array]",
            "incremental_snapshot",
        ]
        second = ERWorkflow(WorkflowConfig()).run_incremental(
            EntityCollection(descriptions[half:]), restore=snapshot_dir
        )
        assert [s.stage for s in second.report] == [
            "incremental_restore",
            "incremental[profile_similarity@array]",
        ]
        straight = ERWorkflow(WorkflowConfig()).run_incremental(
            EntityCollection(descriptions)
        )
        assert sorted(sorted(c) for c in second.clusters) == sorted(
            sorted(c) for c in straight.clusters
        )
