"""Batch-vs-pairwise equivalence suite for the matching engines.

The per-pair matchers of :mod:`repro.matching.matchers` are the oracle;
``MatchingEngine("batch")`` must reproduce their decisions *bit for bit* --
exact float equality on every similarity, identical match booleans, identical
order, identical skip accounting -- across every matcher family, at exact
threshold ties, on merged (iterative) descriptions and on degenerate
profiles, with the NumPy and pure-Python scoring passes agreeing with each
other as well.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription, merge_descriptions
from repro.datamodel.pairs import Comparison
from repro.matching import (
    AttributeWeightedMatcher,
    MatchingEngine,
    ProfileSimilarityMatcher,
    RuleBasedMatcher,
    ThresholdRule,
)
from repro.progressive.runner import run_progressive
from repro.progressive.scheduler import CostBenefitScheduler
from repro.progressive.schedulers import WeightOrderScheduler
from repro.text.vectorizer import TfIdfVectorizer

VOCABULARY = [
    "alan", "turing", "grace", "hopper", "ada", "lovelace", "london", "york",
    "mathematician", "scientist", "computing", "machine", "enigma", "compiler",
    "navy", "analytical", "bombe", "cambridge", "princeton", "logic",
    # deliberately include stop words and sub-minimum-length tokens
    "the", "of", "and", "a", "b", "42",
]


def _random_collection(seed: int, size: int = 48) -> EntityCollection:
    """A seeded collection with heavy token overlap plus degenerate profiles."""
    rng = random.Random(seed)
    descriptions = []
    for index in range(size):
        attributes = {}
        for attribute in ("name", "city", "occupation")[: rng.randint(1, 3)]:
            attributes[attribute] = " ".join(
                rng.choice(VOCABULARY) for _ in range(rng.randint(1, 6))
            )
        descriptions.append(EntityDescription(f"e{index:03d}", attributes))
    descriptions.append(EntityDescription("empty", {}))
    descriptions.append(EntityDescription("blank", {"name": ""}))
    # stop-word-only: empty profile in set mode, non-empty under TF-IDF
    descriptions.append(EntityDescription("stopwords", {"name": "the of and"}))
    # every token shorter than the default min_token_length of 2
    descriptions.append(EntityDescription("short", {"name": "a b a b"}))
    return EntityCollection(descriptions, name=f"equivalence-{seed}")


def _random_comparisons(collection: EntityCollection, seed: int, count: int = 400):
    identifiers = list(collection.identifiers)
    rng = random.Random(seed + 1)
    comparisons = []
    seen = set()
    while len(comparisons) < count:
        first, second = rng.sample(identifiers, 2)
        comparison = Comparison(first, second)
        if comparison.pair not in seen:
            seen.add(comparison.pair)
            comparisons.append(comparison)
    return comparisons


def _matchers(collection: EntityCollection):
    """One configured matcher per family (batch-native and fallback alike)."""
    vectorizer = TfIdfVectorizer().fit(iter(collection))
    return {
        "profile-jaccard": ProfileSimilarityMatcher(threshold=0.3),
        "profile-dice": ProfileSimilarityMatcher(threshold=0.4, similarity_name="dice"),
        "profile-overlap": ProfileSimilarityMatcher(threshold=0.5, similarity_name="overlap"),
        "profile-cosine": ProfileSimilarityMatcher(threshold=0.35, similarity_name="cosine"),
        "profile-nostop": ProfileSimilarityMatcher(
            threshold=0.3, stop_words=None, min_token_length=1
        ),
        "profile-tfidf": ProfileSimilarityMatcher(threshold=0.25, vectorizer=vectorizer),
        "attribute-weighted": AttributeWeightedMatcher(
            {"name": 2.0, "city": 1.0}, threshold=0.7
        ),
        "rule-based": RuleBasedMatcher([ThresholdRule("name", 0.7)]),
    }


def assert_bit_identical(oracle_decisions, engine_decisions):
    assert len(oracle_decisions) == len(engine_decisions)
    for expected, actual in zip(oracle_decisions, engine_decisions):
        assert actual.comparison.pair == expected.comparison.pair
        # exact float equality: the engines must agree bit for bit
        assert actual.similarity == expected.similarity, expected.comparison.pair
        assert actual.is_match == expected.is_match
        assert actual.cost == expected.cost
    assert engine_decisions.skipped == oracle_decisions.skipped
    assert engine_decisions.skipped_examples == oracle_decisions.skipped_examples


class TestBatchMatchesOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "matcher_name",
        [
            "profile-jaccard",
            "profile-dice",
            "profile-overlap",
            "profile-cosine",
            "profile-nostop",
            "profile-tfidf",
            "attribute-weighted",
            "rule-based",
        ],
    )
    def test_all_matcher_families(self, seed, matcher_name):
        collection = _random_collection(seed)
        comparisons = _random_comparisons(collection, seed)
        matcher = _matchers(collection)[matcher_name]
        oracle = matcher.decide_all(comparisons, collection)
        engine = MatchingEngine(matcher, engine="batch")
        assert_bit_identical(oracle, engine.decide_all(comparisons, collection))
        expected_engine = "batch" if matcher_name.startswith("profile") else "pairwise"
        assert engine.last_engine == expected_engine

    def test_clean_clean_task(self):
        left = _random_collection(5, size=20)
        right = EntityCollection(
            [
                EntityDescription(f"r{i}", dict(description.attributes))
                for i, description in enumerate(_random_collection(6, size=20))
            ],
            name="right",
        )
        task = CleanCleanTask(left, right)
        comparisons = [
            Comparison(a, b)
            for a in list(left.identifiers)[:10]
            for b in list(right.identifiers)[:10]
        ]
        matcher = ProfileSimilarityMatcher(threshold=0.3)
        engine = MatchingEngine(matcher, engine="batch")
        assert_bit_identical(
            matcher.decide_all(comparisons, task), engine.decide_all(comparisons, task)
        )

    @pytest.mark.parametrize("use_tfidf", [False, True])
    def test_single_pair_scorer_matches_the_batch_scorer(self, use_tfidf):
        # one-pair batches (adaptive schedulers, the incremental index) skip
        # the vectorised pass; both scorers must agree bit for bit
        collection = _random_collection(3)
        comparisons = _random_comparisons(collection, 3)
        vectorizer = TfIdfVectorizer().fit(iter(collection)) if use_tfidf else None
        matcher = ProfileSimilarityMatcher(threshold=0.25, vectorizer=vectorizer)
        batched = MatchingEngine(matcher).decide_all(comparisons, collection)
        single = MatchingEngine(matcher)
        for comparison, expected in zip(comparisons, batched):
            pair = (collection[comparison.first], collection[comparison.second])
            (decision,) = single.decide_pairs([pair])
            assert decision.similarity == expected.similarity
            assert decision.is_match == expected.is_match

    def test_single_pair_id_set_scores_match_the_batch(self):
        columns = [[1, 2, 3], [2, 3], [], [4], [1, 4, 5]]
        pairs = [(a, b) for a in range(5) for b in range(5) if a < b]
        engine = MatchingEngine(ProfileSimilarityMatcher(similarity_name="jaccard"))
        batched = engine.score_id_set_pairs(pairs, columns, 6)
        single = [engine.score_id_set_pairs([pair], columns, 6)[0] for pair in pairs]
        assert single == batched


class TestThresholdTies:
    """At an exact tie the decision is >= on both engines, bit for bit."""

    @pytest.mark.parametrize("use_tfidf", [False, True])
    def test_exact_tie_is_a_match_on_both_engines(self, use_tfidf):
        collection = _random_collection(4)
        comparisons = _random_comparisons(collection, 4, count=50)
        vectorizer = TfIdfVectorizer().fit(iter(collection)) if use_tfidf else None
        probe = ProfileSimilarityMatcher(threshold=0.0, vectorizer=vectorizer)
        scores = [
            d.similarity
            for d in probe.decide_all(comparisons, collection)
            if 0.0 < d.similarity < 1.0
        ]
        assert scores, "expected at least one non-trivial similarity"
        tie = scores[len(scores) // 2]

        for threshold in (tie, min(1.0, math.nextafter(tie, 2.0))):
            matcher = ProfileSimilarityMatcher(threshold=threshold, vectorizer=vectorizer)
            oracle = matcher.decide_all(comparisons, collection)
            engine = MatchingEngine(matcher)
            assert_bit_identical(oracle, engine.decide_all(comparisons, collection))
        # sanity: the tie itself flips exactly at nextafter(threshold)
        at_tie = ProfileSimilarityMatcher(threshold=tie, vectorizer=vectorizer)
        above = ProfileSimilarityMatcher(
            threshold=math.nextafter(tie, 2.0), vectorizer=vectorizer
        )
        tie_engine = MatchingEngine(at_tie)
        above_engine = MatchingEngine(above)
        tie_decisions = tie_engine.decide_all(comparisons, collection)
        above_decisions = above_engine.decide_all(comparisons, collection)
        flipped = [
            (a.is_match, b.is_match)
            for a, b in zip(tie_decisions, above_decisions)
            if a.similarity == tie
        ]
        assert flipped and all(a and not b for a, b in flipped)


class TestMergedDescriptions:
    """The iterative phase compares freshly merged descriptions through the engine."""

    @pytest.mark.parametrize("use_tfidf", [False, True])
    def test_decide_pairs_on_merged_descriptions(self, use_tfidf):
        collection = _random_collection(7)
        descriptions = list(collection)
        vectorizer = TfIdfVectorizer().fit(iter(collection)) if use_tfidf else None
        matcher = ProfileSimilarityMatcher(threshold=0.3, vectorizer=vectorizer)
        engine = MatchingEngine(matcher)
        pairs = []
        for i in range(0, 16, 2):
            merged = merge_descriptions(descriptions[i], descriptions[i + 1])
            pairs.append((merged, descriptions[i + 2]))
        decisions = engine.decide_pairs(pairs)
        assert engine.last_engine == "batch"
        for (first, second), decision in zip(pairs, decisions):
            expected = matcher.decide(first, second)
            assert decision.similarity == expected.similarity
            assert decision.is_match == expected.is_match
            assert decision.comparison.pair == expected.comparison.pair

    def test_reused_identifier_is_recomputed_not_served_stale(self):
        matcher = ProfileSimilarityMatcher(threshold=0.3)
        engine = MatchingEngine(matcher)
        other = EntityDescription("z", {"name": "alan turing london"})
        version_one = EntityDescription("m", {"name": "alan turing london"})
        version_two = EntityDescription("m", {"name": "grace hopper navy"})
        score_one = engine.decide_pairs([(version_one, other)])[0].similarity
        # same identifier, different object and content: must not serve the
        # stale cached profile
        score_two = engine.decide_pairs([(version_two, other)])[0].similarity
        assert score_one == matcher.similarity(version_one, other) == 1.0
        assert score_two == matcher.similarity(version_two, other) == 0.0

    def test_invalidate_drops_a_single_entry(self):
        matcher = ProfileSimilarityMatcher(threshold=0.3)
        engine = MatchingEngine(matcher)
        a = EntityDescription("a", {"name": "alan turing"})
        b = EntityDescription("b", {"name": "grace hopper"})
        engine.decide_pairs([(a, b)])
        store = engine.store
        assert len(store) == 2
        assert engine.invalidate("a")
        assert len(store) == 1
        assert not engine.invalidate("a")  # already gone
        assert store.profile(b) is not None  # the other entry survived


class TestDegenerateProfiles:
    def test_empty_and_stopword_only_profiles(self):
        collection = _random_collection(8)
        degenerate = ["empty", "blank", "stopwords", "short"]
        regular = ["e000", "e001"]
        comparisons = [
            Comparison(a, b)
            for a in degenerate
            for b in degenerate + regular
            if a != b
        ]
        for matcher in (
            ProfileSimilarityMatcher(threshold=0.5),
            ProfileSimilarityMatcher(
                threshold=0.5, vectorizer=TfIdfVectorizer().fit(iter(collection))
            ),
        ):
            oracle = matcher.decide_all(comparisons, collection)
            engine = MatchingEngine(matcher)
            assert_bit_identical(oracle, engine.decide_all(comparisons, collection))
        # two empty set-profiles are identical (similarity 1), empty vs
        # non-empty scores 0; both engines agree on the conventions
        set_engine = MatchingEngine(ProfileSimilarityMatcher(threshold=0.5))
        decisions = {
            d.comparison.pair: d.similarity
            for d in set_engine.decide_all(comparisons, collection)
        }
        assert decisions[Comparison("empty", "stopwords").pair] == 1.0
        assert decisions[Comparison("empty", "e000").pair] == 0.0


class TestSkipAccounting:
    """Satellite: unresolvable comparisons are counted and warned, not dropped silently."""

    @pytest.mark.parametrize("engine_name", ["batch", "pairwise"])
    def test_skips_are_counted_and_warned(self, tiny_collection, engine_name):
        matcher = ProfileSimilarityMatcher(threshold=0.3)
        engine = MatchingEngine(matcher, engine=engine_name)
        comparisons = [
            Comparison("a1", "a2"),
            Comparison("a1", "ghost"),
            Comparison("ghost", "phantom"),
        ]
        with pytest.warns(RuntimeWarning, match="skipped 2 comparison"):
            decisions = engine.decide_all(comparisons, tiny_collection)
        assert len(decisions) == 1
        assert decisions.skipped == 2
        assert decisions.skipped_examples == [("a1", "ghost"), ("ghost", "phantom")]
        assert engine.last_skipped == 2

    def test_no_warning_when_everything_resolves(self, tiny_collection, recwarn):
        matcher = ProfileSimilarityMatcher(threshold=0.3)
        decisions = MatchingEngine(matcher).decide_all(
            [Comparison("a1", "a2")], tiny_collection
        )
        assert decisions.skipped == 0
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


class TestEngineDispatch:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            MatchingEngine(ProfileSimilarityMatcher(), engine="sparkles")

    def test_profile_matcher_subclass_falls_back_to_oracle(self, tiny_collection):
        class Spiced(ProfileSimilarityMatcher):
            def similarity(self, first, second):
                return min(1.0, super().similarity(first, second) + 0.1)

        matcher = Spiced(threshold=0.3)
        engine = MatchingEngine(matcher, engine="batch")
        assert not engine.batch_applicable
        comparisons = [Comparison("a1", "a2")]
        decisions = engine.decide_all(comparisons, tiny_collection)
        assert engine.last_engine == "pairwise"
        assert decisions[0].similarity == matcher.decide_all(comparisons, tiny_collection)[0].similarity


class TestRunnerEquivalence:
    """run_progressive produces identical results whatever the engine."""

    @pytest.mark.parametrize("scheduler_factory", [WeightOrderScheduler, CostBenefitScheduler])
    @pytest.mark.parametrize("budget", [None, 150])
    def test_batch_and_pairwise_runs_agree(self, scheduler_factory, budget):
        collection = _random_collection(9)
        comparisons = _random_comparisons(collection, 9, count=300)
        matcher = ProfileSimilarityMatcher(threshold=0.35)
        results = {}
        for engine in ("batch", "pairwise"):
            results[engine] = run_progressive(
                scheduler=scheduler_factory(),
                matcher=matcher,
                data=collection,
                candidates=comparisons,
                budget=budget,
                keep_decisions=True,
                engine=engine,
            )
        batch, pairwise = results["batch"], results["pairwise"]
        assert batch.comparisons_executed == pairwise.comparisons_executed
        assert batch.declared_matches == pairwise.declared_matches
        assert batch.budget_spent == pairwise.budget_spent
        assert [d.similarity for d in batch.decisions] == [
            d.similarity for d in pairwise.decisions
        ]

    def test_small_batch_size_changes_nothing(self):
        collection = _random_collection(10)
        comparisons = _random_comparisons(collection, 10, count=120)
        matcher = ProfileSimilarityMatcher(threshold=0.35)
        baseline = run_progressive(
            scheduler=WeightOrderScheduler(),
            matcher=matcher,
            data=collection,
            candidates=comparisons,
            engine="pairwise",
            keep_decisions=True,
        )
        for batch_size in (1, 7, 1000):
            result = run_progressive(
                scheduler=WeightOrderScheduler(),
                matcher=matcher,
                data=collection,
                candidates=comparisons,
                engine="batch",
                batch_size=batch_size,
                keep_decisions=True,
            )
            assert [d.similarity for d in result.decisions] == [
                d.similarity for d in baseline.decisions
            ]
            assert result.declared_matches == baseline.declared_matches


class TestWorkflowEquivalence:
    """ERWorkflow output is engine-independent, including the iterate phase."""

    def test_workflow_engines_agree_with_iteration(self, small_dirty_dataset):
        from repro.core.config import WorkflowConfig
        from repro.core.workflow import ERWorkflow

        results = {}
        for engine in ("batch", "pairwise"):
            config = WorkflowConfig(iterate_merges=True, matching_engine=engine)
            results[engine] = ERWorkflow(config).run(
                small_dirty_dataset.collection, small_dirty_dataset.ground_truth
            )
        batch, pairwise = results["batch"], results["pairwise"]
        assert batch.matches == pairwise.matches
        assert batch.comparisons_executed == pairwise.comparisons_executed
        assert sorted(map(sorted, batch.clusters)) == sorted(map(sorted, pairwise.clusters))

    def test_stateful_fallback_matcher_sees_identical_call_sequence(
        self, small_dirty_dataset
    ):
        """A noisy oracle draws from a seeded RNG per decide() call: if the
        batch path issued extra or reordered calls in the iterate phase, the
        RNG stream -- and hence the declared matches -- would diverge."""
        from repro.core.config import WorkflowConfig
        from repro.core.workflow import ERWorkflow
        from repro.matching.oracle import OracleMatcher

        results = {}
        calls = {}
        for engine in ("batch", "pairwise"):
            oracle = OracleMatcher(
                small_dirty_dataset.ground_truth,
                false_negative_rate=0.3,
                false_positive_rate=0.05,
                seed=42,
            )
            config = WorkflowConfig(iterate_merges=True, matching_engine=engine)
            results[engine] = ERWorkflow(config, matcher=oracle).run(
                small_dirty_dataset.collection
            )
            calls[engine] = oracle.calls
        assert results["batch"].matches == results["pairwise"].matches
        assert calls["batch"] == calls["pairwise"]
        assert results["batch"].comparisons_executed == results["pairwise"].comparisons_executed


class TestGuards:
    def test_runner_rejects_engine_wrapping_a_different_matcher(self, tiny_collection):
        matcher_a = ProfileSimilarityMatcher(threshold=0.3)
        matcher_b = ProfileSimilarityMatcher(threshold=0.9)
        engine = MatchingEngine(matcher_a)
        with pytest.raises(ValueError, match="different matcher"):
            run_progressive(
                scheduler=WeightOrderScheduler(),
                matcher=matcher_b,
                data=tiny_collection,
                candidates=[Comparison("a1", "a2")],
                engine=engine,
            )

    @pytest.mark.parametrize("engine_name", ["batch", "pairwise"])
    def test_runner_counts_and_warns_on_unresolvable_comparisons(
        self, tiny_collection, engine_name
    ):
        comparisons = [
            Comparison("a1", "a2"),
            Comparison("a1", "ghost"),
            Comparison("b1", "b2"),
        ]
        with pytest.warns(RuntimeWarning, match="skipped 1 comparison"):
            result = run_progressive(
                scheduler=WeightOrderScheduler(),
                matcher=ProfileSimilarityMatcher(threshold=0.3),
                data=tiny_collection,
                candidates=comparisons,
                engine=engine_name,
            )
        assert result.skipped_comparisons == 1
        assert result.comparisons_executed == 2
