"""Array-vs-object clustering-engine equivalence, tie-breaking and goldens.

The object algorithms of :mod:`repro.matching.clustering` are the oracle;
:class:`~repro.matching.cluster_engine.ClusteringEngine` must reproduce their
clusters bit for bit -- same frozensets, same list order, same behaviour at
equal-similarity ties -- on both its NumPy and pure-Python edge-sort paths.

``tests/fixtures/clustering/*.json`` freezes the oracle's clusters on the
builtin datasets at two thresholds; every engine configuration must keep
reproducing them exactly.  Regenerating the fixtures (only when the
clustering semantics change on purpose): run this module as a script::

    PYTHONPATH=src python tests/test_clustering_engine.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.datamodel.pairs import Comparison, DecisionColumns
from repro.matching.cluster_engine import CLUSTERING_ENGINES, ClusteringEngine
from repro.matching.clustering import (
    CenterClustering,
    ConnectedComponentsClustering,
    MergeCenterClustering,
)
from repro.matching.matchers import MatchDecision, ProfileSimilarityMatcher

FIXTURES_DIR = Path(__file__).parent / "fixtures" / "clustering"

ALGORITHMS = {
    "connected_components": ConnectedComponentsClustering,
    "center": CenterClustering,
    "merge_center": MergeCenterClustering,
}


def decision(first, second, similarity=1.0, is_match=True):
    return MatchDecision(
        Comparison(first, second), similarity=similarity, is_match=is_match
    )


def _seeded_decisions(seed: int, kind: str, variant: str):
    """A reproducible decision log of the given shape.

    ``kind`` controls the identifier structure (dirty: one namespace;
    clean_clean: two source prefixes, as clean--clean matching emits);
    ``variant`` stresses a specific regime: quantised similarities full of
    ties, a dense match graph, mostly negatives, only negatives (no edge to
    cluster), or degenerate logs.
    """
    rng = random.Random(seed)
    if variant == "empty":
        return []
    if variant == "singleton":
        return [decision("solo:a", "solo:b", 0.75)]
    if kind == "dirty":
        universe = [f"d{i}" for i in range(40)]
        pair = lambda: rng.sample(universe, 2)
    else:
        left = [f"a{i}" for i in range(25)]
        right = [f"b{i}" for i in range(25)]
        pair = lambda: (rng.choice(left), rng.choice(right))
    decisions = []
    for _ in range(160):
        first, second = pair()
        if first == second:
            continue
        if variant == "ties":
            # a five-step similarity grid: most edges tie with many others
            similarity = rng.randrange(1, 6) / 5.0
        else:
            similarity = rng.random()
        is_match = rng.random() < (0.7 if variant == "dense" else 0.35)
        if variant == "negative":
            is_match = False
        decisions.append(decision(first, second, similarity, is_match))
    return decisions


def _cluster_lists(clusters):
    """Serialise preserving both membership and cluster order."""
    return [sorted(cluster) for cluster in clusters]


class TestSeededEquivalence:
    @pytest.mark.parametrize("kind", ["dirty", "clean_clean"])
    @pytest.mark.parametrize(
        "variant", ["plain", "ties", "dense", "negative", "empty", "singleton"]
    )
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_array_equals_oracle(self, kind, variant, algorithm):
        """Identical clusters -- content *and* list order -- on every path."""
        for seed in (3, 11, 27):
            decisions = _seeded_decisions(seed, kind, variant)
            oracle = ALGORITHMS[algorithm]().cluster(decisions)
            engine = ClusteringEngine(ALGORITHMS[algorithm](), engine="array")
            columns = DecisionColumns.from_decisions(decisions)
            assert engine.cluster(columns) == oracle
            assert engine.last_engine == "array"
            # decision-object input is interned and clustered identically
            assert engine.cluster(decisions) == oracle

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_object_engine_runs_the_oracle(self, algorithm):
        decisions = _seeded_decisions(5, "dirty", "plain")
        engine = ClusteringEngine(ALGORITHMS[algorithm](), engine="object")
        assert engine.cluster(decisions) == ALGORITHMS[algorithm]().cluster(decisions)
        assert engine.last_engine == "object"

    def test_columns_bridge_feeds_the_object_engine(self):
        """DecisionColumns input works on the object path via lazy decisions."""
        decisions = _seeded_decisions(9, "dirty", "ties")
        columns = DecisionColumns.from_decisions(decisions)
        engine = ClusteringEngine(CenterClustering(), engine="object")
        assert engine.cluster(columns) == CenterClustering().cluster(decisions)


class TestTieBreaking:
    """Equal-similarity edges are scanned in canonical identifier-pair order
    -- the ``ComparisonColumns.weight_sorted`` rule -- on both engines."""

    TIED = [
        # all similarities equal: the scan order is purely the pair order
        decision("c", "d", 0.8),
        decision("a", "b", 0.8),
        decision("b", "c", 0.8),
    ]

    @pytest.mark.parametrize("engine_name", CLUSTERING_ENGINES)
    def test_center_processes_tied_edges_in_pair_order(self, engine_name):
        # order (a,b), (b,c), (c,d): a centers b; b is no center, so c starts
        # its own cluster; then (c,d) attaches d to center c
        engine = ClusteringEngine(CenterClustering(), engine=engine_name)
        clusters = engine.cluster(DecisionColumns.from_decisions(self.TIED))
        assert clusters == [frozenset({"a", "b"}), frozenset({"c", "d"})]

    @pytest.mark.parametrize("engine_name", CLUSTERING_ENGINES)
    def test_merge_center_processes_tied_edges_in_pair_order(self, engine_name):
        # order (a,b), (b,c), (c,d): a centers b; (b,c) attaches c to a's
        # cluster; (c,d) attaches d as well -- one cluster, deterministically
        engine = ClusteringEngine(MergeCenterClustering(), engine=engine_name)
        clusters = engine.cluster(DecisionColumns.from_decisions(self.TIED))
        assert clusters == [frozenset({"a", "b", "c", "d"})]

    def test_heavier_edge_beats_pair_order(self):
        decisions = [
            decision("b", "c", 0.9),  # heaviest first: b centers c...
            decision("a", "c", 0.8),
        ]
        for engine_name in CLUSTERING_ENGINES:
            engine = ClusteringEngine(CenterClustering(), engine=engine_name)
            clusters = engine.cluster(DecisionColumns.from_decisions(decisions))
            # ...so a arrives at assigned non-center c and centers itself;
            # under pair order (a,c) first, a would instead have centered c
            assert clusters == [frozenset({"b", "c"}), frozenset({"a"})]


class TestEngineDispatch:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ClusteringEngine(CenterClustering(), engine="bogus")

    def test_custom_subclass_falls_back_to_object(self):
        class LoudCenter(CenterClustering):
            def cluster(self, decisions):
                return [frozenset({"overridden"})]

        engine = ClusteringEngine(LoudCenter(), engine="array")
        assert not engine.array_applicable
        clusters = engine.cluster(DecisionColumns.from_decisions([decision("a", "b")]))
        assert clusters == [frozenset({"overridden"})]
        assert engine.last_engine == "object"

    def test_custom_algorithm_receives_lazy_decisions(self):
        from repro.matching.clustering import ClusteringAlgorithm

        seen = []

        class Recorder(ClusteringAlgorithm):
            def cluster(self, decisions):
                seen.extend(decisions)
                return []

        original = [decision("a", "b", 0.5), decision("b", "c", 0.25, is_match=False)]
        ClusteringEngine(Recorder()).cluster(DecisionColumns.from_decisions(original))
        assert seen == original


# ----------------------------------------------------------------------
# golden fixtures
# ----------------------------------------------------------------------

def _builtin_datasets():
    from repro.datasets.builtin import load_census, load_restaurants

    return {"restaurants": load_restaurants(), "census": load_census()}


THRESHOLDS = {"strict": 0.5, "permissive": 0.25}


def _dataset_decisions(dataset, threshold):
    """Deterministic decision log: token blocking + jaccard profile matcher."""
    from repro.blocking.token_blocking import TokenBlocking

    blocks = TokenBlocking().build(dataset.collection)
    comparisons = list(blocks.distinct_comparisons())
    matcher = ProfileSimilarityMatcher(threshold=threshold)
    return matcher.decide_all(comparisons, dataset.collection)


def _freeze_fixtures() -> None:
    FIXTURES_DIR.mkdir(parents=True, exist_ok=True)
    for dataset_name, dataset in _builtin_datasets().items():
        fixture = {"combos": []}
        for threshold_name, threshold in THRESHOLDS.items():
            decisions = _dataset_decisions(dataset, threshold)
            for algorithm_name, algorithm in ALGORITHMS.items():
                combo = f"{algorithm_name}+{threshold_name}"
                fixture["combos"].append(combo)
                fixture[combo] = _cluster_lists(algorithm().cluster(decisions))
        path = FIXTURES_DIR / f"{dataset_name}.json"
        path.write_text(
            json.dumps(fixture, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"froze {len(fixture['combos'])} combos to {path}")


def _fixture(dataset_name: str) -> dict:
    path = FIXTURES_DIR / f"{dataset_name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("dataset_name", ["restaurants", "census"])
def test_fixture_covers_all_combos(dataset_name):
    fixture = _fixture(dataset_name)
    expected = {f"{a}+{t}" for a in ALGORITHMS for t in THRESHOLDS}
    assert set(fixture["combos"]) == expected


@pytest.mark.parametrize("engine_name", CLUSTERING_ENGINES)
@pytest.mark.parametrize("dataset_name", ["restaurants", "census"])
def test_engines_reproduce_golden_clusters(dataset_name, engine_name):
    dataset = _builtin_datasets()[dataset_name]
    fixture = _fixture(dataset_name)
    for threshold_name, threshold in THRESHOLDS.items():
        decisions = _dataset_decisions(dataset, threshold)
        columns = DecisionColumns.from_decisions(decisions)
        for algorithm_name, algorithm in ALGORITHMS.items():
            engine = ClusteringEngine(algorithm(), engine=engine_name)
            clusters = engine.cluster(columns)
            assert (
                _cluster_lists(clusters) == fixture[f"{algorithm_name}+{threshold_name}"]
            ), f"{dataset_name}/{algorithm_name}+{threshold_name} diverged on {engine_name}"


if __name__ == "__main__":
    _freeze_fixtures()


class TestExecutionOrientation:
    """Columns may store rows in execution orientation (the runner's
    keep_decisions drain, ``decide_columns``); the array engine must
    canonicalise exactly like the oracle's ``decision.pair`` does."""

    def _reversed_columns(self, decisions):
        """Columns with every row deliberately in reverse-canonical order."""
        from repro.datamodel.pairs import OrdinalInterner

        intern = OrdinalInterner()
        columns = DecisionColumns(intern.ids)
        for d in decisions:
            first, second = d.pair
            columns.append(intern(second), intern(first), d.similarity, d.is_match)
        return columns

    @pytest.mark.parametrize("kind", ["dirty", "clean_clean"])
    @pytest.mark.parametrize("variant", ["plain", "ties", "dense", "negative"])
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_reversed_rows_cluster_like_the_oracle(self, kind, variant, algorithm):
        for seed in (3, 27):
            decisions = _seeded_decisions(seed, kind, variant)
            oracle = ALGORITHMS[algorithm]().cluster(decisions)
            engine = ClusteringEngine(ALGORITHMS[algorithm](), engine="array")
            assert engine.cluster(self._reversed_columns(decisions)) == oracle

    def test_mixed_orientation_tie_break(self):
        """A reversed tied edge must still break ties on the canonical pair."""
        from repro.datamodel.pairs import OrdinalInterner

        intern = OrdinalInterner()
        columns = DecisionColumns(intern.ids)
        columns.append(intern("d"), intern("c"), 0.8, True)  # stored as (d, c)
        columns.append(intern("a"), intern("b"), 0.8, True)
        columns.append(intern("c"), intern("b"), 0.8, True)  # stored as (c, b)
        for engine_name in CLUSTERING_ENGINES:
            clusters = ClusteringEngine(CenterClustering(), engine=engine_name).cluster(
                columns
            )
            # canonical scan order (a,b), (b,c), (c,d) -- see TestTieBreaking
            assert clusters == [frozenset({"a", "b"}), frozenset({"c", "d"})]


class TestDecideColumns:
    """MatchingEngine.decide_columns emits the same decisions as decide_pairs
    -- as columns on the batch path, interned oracle decisions on fallback --
    and its output feeds the array clustering engine correctly."""

    def _collection(self):
        from repro.datamodel.collection import EntityCollection
        from repro.datamodel.description import EntityDescription

        return EntityCollection(
            [
                EntityDescription("z1", {"name": "maria santos lima"}),
                EntityDescription("a1", {"name": "maria santos lima"}),
                EntityDescription("m1", {"name": "maria santos"}),
                EntityDescription("q1", {"name": "entirely different person"}),
            ]
        )

    def _pairs(self, collection):
        # deliberately reverse-canonical explicit pairs (z1 > a1 etc.)
        return [
            (collection["z1"], collection["a1"]),
            (collection["z1"], collection["m1"]),
            (collection["m1"], collection["q1"]),
        ]

    def test_batch_columns_equal_decide_pairs(self):
        from repro.matching.engine import MatchingEngine

        collection = self._collection()
        pairs = self._pairs(collection)
        engine = MatchingEngine(ProfileSimilarityMatcher(threshold=0.5))
        columns = engine.decide_columns(pairs)
        assert engine.last_engine == "batch"
        assert list(columns) == engine.decide_pairs(pairs)
        assert columns.cost == engine.matcher.cost

    def test_fallback_columns_equal_decide_pairs(self):
        from repro.matching.engine import MatchingEngine

        class Sub(ProfileSimilarityMatcher):
            pass  # subclass: batch path must not replicate it

        collection = self._collection()
        pairs = self._pairs(collection)
        engine = MatchingEngine(Sub(threshold=0.5))
        columns = engine.decide_columns(pairs)
        assert engine.last_engine == "pairwise"
        assert list(columns) == engine.decide_pairs(pairs)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_decide_columns_cluster_identically_on_both_engines(self, algorithm):
        from repro.matching.engine import MatchingEngine

        collection = self._collection()
        pairs = self._pairs(collection)
        columns = MatchingEngine(ProfileSimilarityMatcher(threshold=0.5)).decide_columns(
            pairs
        )
        clusters = {
            engine_name: ClusteringEngine(
                ALGORITHMS[algorithm](), engine=engine_name
            ).cluster(columns)
            for engine_name in CLUSTERING_ENGINES
        }
        assert clusters["array"] == clusters["object"]
