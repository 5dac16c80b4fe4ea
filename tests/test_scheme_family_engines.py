"""Array-vs-oracle equivalence for the long-tail blocking families.

Every scheme ported to the index engine in the scheme-family PR -- minhash/
LSH, canopy, the three sorted-neighbourhood variants and the similarity
self-join -- must produce *bit-identical* block collections on four
execution paths: the legacy oracle, the index engine with NumPy, the index
engine's pure-Python fallback, and the index engine fed a shared
:class:`~repro.core.context.PipelineContext`.  Equality is structural:
key order, member order, bilateral splits and ties.

The golden half of the suite freezes the oracle's output on the builtin
datasets into ``tests/fixtures/blocking/families_*.json``; regenerate (only
on intentional semantic changes) with::

    PYTHONPATH=src python tests/test_scheme_family_engines.py
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

from repro.blocking import (
    CanopyClusteringBlocking,
    ExtendedSortedNeighborhoodBlocking,
    MinHashLSHBlocking,
    MultiPassSortedNeighborhoodBlocking,
    SimilarityJoinBlocking,
    SortedNeighborhoodBlocking,
)
from repro.blocking.engine import BlockingEngine
from repro.blocking.sorted_neighborhood import sorting_key_from_attributes
from repro.core.context import PipelineContext
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription
from repro.datasets.builtin import load_census, load_restaurants
from test_blocking_equivalence import (
    random_clean_clean_task,
    random_dirty_collection,
    snapshot,
)

FIXTURES_DIR = Path(__file__).parent / "fixtures" / "blocking"

FAMILY_BUILDERS = {
    "minhash_lsh": lambda: MinHashLSHBlocking(num_bands=8, rows_per_band=2),
    "minhash_lsh-default": lambda: MinHashLSHBlocking(),
    "canopy": lambda: CanopyClusteringBlocking(),
    "canopy-tight": lambda: CanopyClusteringBlocking(
        loose_threshold=0.1, tight_threshold=0.3, seed=5
    ),
    "sorted_neighborhood": lambda: SortedNeighborhoodBlocking(window_size=3),
    "extended_sorted_neighborhood": lambda: ExtendedSortedNeighborhoodBlocking(
        window_size=2
    ),
    "multipass_sorted_neighborhood": lambda: MultiPassSortedNeighborhoodBlocking(
        window_size=3,
        sorting_keys=(None, sorting_key_from_attributes(["name", "city"])),
    ),
    "similarity_join": lambda: SimilarityJoinBlocking(threshold=0.4),
    "similarity_join-no-positional": lambda: SimilarityJoinBlocking(
        threshold=0.6, use_positional_filter=False
    ),
}

SEEDS = (3, 42, 97)


def _assert_all_paths_agree(data, factory, label=""):
    """Oracle vs index x {context, none}."""
    expected = snapshot(factory().build(data))
    for with_context in (False, True):
        context = PipelineContext(data) if with_context else None
        engine = BlockingEngine(factory(), engine="index", context=context)
        built = engine.build(data)
        assert engine.last_engine == "index", (label, with_context)
        assert snapshot(built) == expected, (label, with_context)


@pytest.mark.parametrize("builder_name", sorted(FAMILY_BUILDERS))
@pytest.mark.parametrize("seed", SEEDS)
def test_dirty_bit_identity(seed, builder_name):
    data = random_dirty_collection(seed, size=40)
    _assert_all_paths_agree(data, FAMILY_BUILDERS[builder_name], builder_name)


@pytest.mark.parametrize("builder_name", sorted(FAMILY_BUILDERS))
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_clean_clean_bit_identity(seed, builder_name):
    task = random_clean_clean_task(seed, per_side=25)
    _assert_all_paths_agree(task, FAMILY_BUILDERS[builder_name], builder_name)


@pytest.mark.parametrize("builder_name", sorted(FAMILY_BUILDERS))
def test_degenerate_inputs_bit_identity(builder_name):
    factory = FAMILY_BUILDERS[builder_name]
    empty = EntityCollection(name="empty")
    single = EntityCollection([EntityDescription("only", {"name": "alan turing"})])
    # stop words and sub-minimum tokens only: every token column is empty
    # (minhash hashes no column at all; every canopy centre is empty)
    blank = EntityCollection(
        [
            EntityDescription("b1", {"name": "the of a"}),
            EntityDescription("b2", {"name": "x y z"}),
            EntityDescription("b3", {}),
        ]
    )
    # token-less descriptions among real ones: empty canopy centres and
    # empty join/minhash columns next to non-empty ones
    some_blank = EntityCollection(
        [
            EntityDescription("s1", {"name": "alan turing"}),
            EntityDescription("s2", {}),
            EntityDescription("s3", {"name": "alan turing london"}),
            EntityDescription("s4", {"name": "the of"}),
        ]
    )
    # identical values: every sort key, signature and similarity ties
    ties = EntityCollection(
        [EntityDescription(f"t{i}", {"name": "grace hopper"}) for i in range(5)]
    )
    empty_task = CleanCleanTask(EntityCollection(name="l"), EntityCollection(name="r"))
    one_sided = CleanCleanTask(
        EntityCollection([EntityDescription("L1", {"name": "alan"})], name="l"),
        EntityCollection(name="r"),
    )
    for label, data in (
        ("empty", empty),
        ("single", single),
        ("blank-tokens", blank),
        ("some-blank-tokens", some_blank),
        ("all-ties", ties),
        ("empty-task", empty_task),
        ("one-sided-task", one_sided),
    ):
        _assert_all_paths_agree(data, factory, f"{builder_name}/{label}")


def test_similarity_join_statistics_match_oracle():
    data = random_dirty_collection(11, size=40)
    oracle = SimilarityJoinBlocking(threshold=0.4)
    oracle.build(data)
    ported = SimilarityJoinBlocking(threshold=0.4)
    BlockingEngine(ported, engine="index").build(data)
    assert ported.last_candidate_count == oracle.last_candidate_count
    assert ported.last_verified_count == oracle.last_verified_count


# ----------------------------------------------------------------------
# fallback warning (satellite: one-time RuntimeWarning naming the scheme)
# ----------------------------------------------------------------------
class TestFallbackWarning:
    def test_custom_builder_warns_once_with_scheme_name(self):
        class MyCustomScheme(SortedNeighborhoodBlocking):
            pass

        data = random_dirty_collection(3, size=10)
        engine = BlockingEngine(MyCustomScheme(window_size=2), engine="index")
        with pytest.warns(RuntimeWarning, match="MyCustomScheme") as record:
            engine.build(data)
        assert engine.last_engine == "oracle"
        fallback_warnings = [
            w for w in record if "index-engine implementation" in str(w.message)
        ]
        assert len(fallback_warnings) == 1
        # second build: the warning already fired for this engine instance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine.build(data)

    @pytest.mark.parametrize("builder_name", sorted(FAMILY_BUILDERS))
    def test_supported_builders_do_not_warn(self, builder_name):
        data = random_dirty_collection(3, size=10)
        engine = BlockingEngine(FAMILY_BUILDERS[builder_name](), engine="index")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine.build(data)
        assert engine.last_engine == "index"

    def test_oracle_engine_never_warns(self):
        class MyCustomScheme(SortedNeighborhoodBlocking):
            pass

        data = random_dirty_collection(3, size=10)
        engine = BlockingEngine(MyCustomScheme(window_size=2), engine="oracle")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine.build(data)
        assert engine.last_engine == "oracle"


# ----------------------------------------------------------------------
# golden fixtures (frozen from the oracle on the builtin datasets)
# ----------------------------------------------------------------------
DATASETS = {"census": load_census, "restaurants": load_restaurants}

GOLDEN_BUILDERS = {
    "minhash_lsh": lambda: MinHashLSHBlocking(num_bands=8, rows_per_band=2),
    "canopy": lambda: CanopyClusteringBlocking(),
    "sorted_neighborhood": lambda: SortedNeighborhoodBlocking(window_size=3),
    "extended_sorted_neighborhood": lambda: ExtendedSortedNeighborhoodBlocking(
        window_size=2
    ),
    "multipass_sorted_neighborhood": lambda: MultiPassSortedNeighborhoodBlocking(
        window_size=3, sorting_keys=(None, sorting_key_from_attributes(["city"]))
    ),
    "similarity_join": lambda: SimilarityJoinBlocking(threshold=0.4),
}


def _serialise(blocks) -> list:
    return [
        [block.key, list(block.left_members), list(block.right_members)]
        if block.is_bilateral
        else [block.key, list(block.members)]
        for block in blocks
    ]


def _fixture(dataset_name: str) -> dict:
    path = FIXTURES_DIR / f"families_{dataset_name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("dataset_name", sorted(DATASETS))
def test_golden_fixture_covers_all_families(dataset_name):
    assert set(_fixture(dataset_name)["builders"]) == set(GOLDEN_BUILDERS)


@pytest.mark.parametrize("engine", ("oracle", "index"))
@pytest.mark.parametrize("dataset_name", sorted(DATASETS))
def test_engines_reproduce_family_golden_output(dataset_name, engine):
    collection = DATASETS[dataset_name]().collection
    fixture = _fixture(dataset_name)
    for builder_name, frozen in fixture["builders"].items():
        blocking = BlockingEngine(GOLDEN_BUILDERS[builder_name](), engine=engine)
        blocks = blocking.build(collection)
        assert _serialise(blocks) == frozen["blocks"], (
            f"{dataset_name}/{builder_name}/{engine}: block collection changed"
        )


def _regenerate() -> None:
    FIXTURES_DIR.mkdir(parents=True, exist_ok=True)
    for dataset_name, loader in DATASETS.items():
        collection = loader().collection
        builders = {}
        for builder_name, factory in GOLDEN_BUILDERS.items():
            builders[builder_name] = {"blocks": _serialise(factory().build(collection))}
        payload = {
            "dataset": dataset_name,
            "note": (
                "frozen output of the legacy (oracle) long-tail builders; "
                "regenerate only if the blocking semantics intentionally change"
            ),
            "builders": builders,
        }
        path = FIXTURES_DIR / f"families_{dataset_name}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    _regenerate()
