"""Equivalence and golden suites for the growable incremental index.

:class:`repro.iterative.index.IncrementalIndex` (the ``"array"`` engine) must
be **bit-identical** to the object oracle in
:mod:`repro.iterative.incremental` at every prefix of an arrival stream:
same per-arrival :class:`ArrivalResult` (matched clusters in declaration
order, comparison counts), same clusters, same merged representations, same
``resolve`` answers -- including after ``update``/``remove`` and after a
snapshot save/load round trip, with and without NumPy.

``tests/fixtures/incremental/golden_stream.json`` freezes a seeded
adds/removes/updates stream **and the oracle's outputs on it**, so future
changes to either engine cannot silently alter what incremental resolution
produces.  Regenerating the fixture (only when the semantics change on
purpose): run this module as a script::

    PYTHONPATH=src python tests/test_incremental_index.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.datamodel.description import EntityDescription
from repro.datasets import DatasetConfig, generate_dirty_dataset
from repro.iterative import IncrementalResolver
from repro.iterative.index import IncrementalIndex
from repro.matching import ProfileSimilarityMatcher

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "incremental" / "golden_stream.json"

# ----------------------------------------------------------------------
# stream construction
# ----------------------------------------------------------------------
def _stream_descriptions(num_entities=40, duplicates=1.5, seed=29):
    dataset = generate_dirty_dataset(
        DatasetConfig(
            num_entities=num_entities, duplicates_per_entity=duplicates, seed=seed
        )
    )
    return list(dataset.collection)


def _mixed_operations(descriptions):
    """A deterministic add/remove/update interleaving over ``descriptions``."""
    operations = []
    for position, description in enumerate(descriptions):
        operations.append(("add", description))
        if position >= 10 and position % 7 == 0:
            # remove a record added a while ago (still present: removes only
            # target positions that are multiples of 7+3 once)
            victim = descriptions[position - 9]
            operations.append(("remove", victim.identifier))
        if position >= 12 and position % 11 == 0:
            changed = descriptions[position - 5]
            revised = EntityDescription(
                changed.identifier,
                attributes={
                    name: list(changed.values(name)) + ["revised"]
                    for name in changed.attribute_names
                },
            )
            operations.append(("update", revised))
    return operations


def _apply(resolver, operation):
    """Run one operation, returning a comparable serialisation of the result."""
    kind, payload = operation
    if kind == "add":
        result = resolver.add(payload)
        return _arrival(result)
    if kind == "update":
        result = resolver.update(payload)
        return _arrival(result)
    replays = resolver.remove(payload)
    return [_arrival(result) for result in replays]


def _arrival(result):
    return {
        "identifier": result.identifier,
        "matched_clusters": [sorted(cluster) for cluster in result.matched_clusters],
        "comparisons": result.comparisons,
    }


def _state(resolver):
    return {
        "clusters": sorted(sorted(cluster) for cluster in resolver.clusters()),
        "num_clusters": resolver.num_clusters,
        "comparisons_executed": resolver.comparisons_executed,
        "size": len(resolver),
    }


def _representations(resolver, identifiers):
    output = {}
    for identifier in identifiers:
        representation = resolver.representation_of(identifier)
        if representation is None:
            output[identifier] = None
        else:
            output[identifier] = {
                "identifier": representation.identifier,
                "attributes": {
                    name: list(representation.values(name))
                    for name in representation.attribute_names
                },
            }
    return output


# ----------------------------------------------------------------------
# array-vs-oracle equivalence
# ----------------------------------------------------------------------
def test_array_matches_oracle_at_every_prefix():
    descriptions = _stream_descriptions()
    matcher = ProfileSimilarityMatcher(threshold=0.5)
    oracle = IncrementalResolver(matcher, engine="object")
    index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    for description in descriptions:
        expected = _arrival(oracle.add(description))
        actual = _arrival(index.add(description))
        assert actual == expected
        assert _state(index) == _state(oracle)
    live = [d.identifier for d in descriptions if oracle.cluster_of(d.identifier)]
    assert _representations(index, live) == _representations(oracle, live)
    assert [d.identifier for d in index.as_collection()] == [
        d.identifier for d in oracle.as_collection()
    ]


def test_array_matches_oracle_through_removes_and_updates():
    descriptions = _stream_descriptions(num_entities=30, duplicates=1.8, seed=31)
    operations = _mixed_operations(descriptions)
    matcher = ProfileSimilarityMatcher(threshold=0.5)
    oracle = IncrementalResolver(matcher, engine="object")
    index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    for operation in operations:
        assert _apply(index, operation) == _apply(oracle, operation)
        assert _state(index) == _state(oracle)


def test_resolver_facade_uses_array_engine():
    resolver = IncrementalResolver(ProfileSimilarityMatcher(threshold=0.5))
    resolver.add(EntityDescription("a", {"name": "alan turing"}))
    assert resolver.last_engine == "array"
    # TF-IDF matchers are not batch-scorable as plain token sets: fall back
    from repro.text.vectorizer import TfIdfVectorizer

    vectorizer = TfIdfVectorizer().fit(
        [EntityDescription("c", {"name": "alan turing"})]
    )
    fallback = IncrementalResolver(
        ProfileSimilarityMatcher(threshold=0.5, vectorizer=vectorizer)
    )
    fallback.add(EntityDescription("a", {"name": "alan turing"}))
    assert fallback.last_engine == "object"


def test_engine_validation():
    with pytest.raises(ValueError):
        IncrementalResolver(ProfileSimilarityMatcher(), engine="vectorised")


def test_duplicate_and_unknown_identifiers():
    index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    index.add(EntityDescription("a", {"name": "alan"}))
    with pytest.raises(ValueError):
        index.add(EntityDescription("a", {"name": "alan"}))
    with pytest.raises(KeyError):
        index.remove("ghost")
    # after a remove the identifier becomes free again
    index.remove("a")
    index.add(EntityDescription("a", {"name": "alan"}))
    assert index.cluster_of("a") == {"a"}


def test_resolve_is_read_only_and_matches_oracle():
    descriptions = _stream_descriptions(num_entities=25, seed=37)
    matcher = ProfileSimilarityMatcher(threshold=0.5)
    oracle = IncrementalResolver(matcher, engine="object")
    index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    oracle.add_all(descriptions)
    index.add_all(descriptions)
    queries = descriptions[::5] + [
        EntityDescription("q:unknown", {"name": "zzz qqq completely novel tokens"})
    ]
    for query in queries:
        before = _state(index)
        assert index.resolve(query) == oracle.resolve(query)
        assert _state(index) == before  # no counters moved, no clusters changed


# ----------------------------------------------------------------------
# snapshot persistence
# ----------------------------------------------------------------------
def test_snapshot_round_trip_then_continue(tmp_path):
    descriptions = _stream_descriptions(num_entities=30, seed=41)
    half = len(descriptions) // 2

    straight = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    straight.add_all(descriptions[:half])

    index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    index.add_all(descriptions[:half])
    index.save(tmp_path / "snap")
    restored = IncrementalIndex.load(tmp_path / "snap")
    assert _state(restored) == _state(index)

    # continuing to add on the restored index reproduces the straight run
    for description in descriptions[half:]:
        assert _arrival(restored.add(description)) == _arrival(
            straight.add(description)
        )
    assert _state(restored) == _state(straight)

    # removes and resolves keep working after a restore
    victim = descriptions[0].identifier
    probe = descriptions[3]
    assert restored.resolve(probe) == straight.resolve(probe)
    assert [_arrival(r) for r in restored.remove(victim)] == [
        _arrival(r) for r in straight.remove(victim)
    ]
    assert _state(restored) == _state(straight)


def test_restored_index_has_no_descriptions(tmp_path):
    index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    index.add(EntityDescription("a", {"name": "alan turing"}))
    index.save(tmp_path / "snap")
    restored = IncrementalIndex.load(tmp_path / "snap")
    assert restored.cluster_of("a") == {"a"}
    with pytest.raises(RuntimeError):
        restored.representation_of("a")
    with pytest.raises(RuntimeError):
        restored.as_collection()


def test_snapshot_rejects_mismatched_matcher(tmp_path):
    index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    index.add(EntityDescription("a", {"name": "alan turing"}))
    index.save(tmp_path / "snap")
    with pytest.raises(ValueError, match="matcher"):
        IncrementalIndex.load(
            tmp_path / "snap", matcher=ProfileSimilarityMatcher(threshold=0.7)
        )
    # a matching configuration is accepted
    restored = IncrementalIndex.load(
        tmp_path / "snap", matcher=ProfileSimilarityMatcher(threshold=0.5)
    )
    assert restored.cluster_of("a") == {"a"}


def test_resolver_snapshot_facade(tmp_path):
    resolver = IncrementalResolver(ProfileSimilarityMatcher(threshold=0.5))
    resolver.add(EntityDescription("a", {"name": "alan turing"}))
    resolver.save(tmp_path / "snap")
    restored = IncrementalResolver.restore(tmp_path / "snap")
    assert restored.cluster_of("a") == {"a"}
    assert restored.last_engine == "array"
    restored.add(EntityDescription("b", {"name": "alan turing"}))
    assert restored.cluster_of("a") == {"a", "b"}
    # the object engine has no snapshot support
    oracle = IncrementalResolver(ProfileSimilarityMatcher(threshold=0.5), engine="object")
    oracle.add(EntityDescription("a", {"name": "alan"}))
    with pytest.raises(ValueError):
        oracle.save(tmp_path / "nope")


# ----------------------------------------------------------------------
# golden stream (frozen from the oracle)
# ----------------------------------------------------------------------
def _golden_operations():
    descriptions = _stream_descriptions(num_entities=35, duplicates=1.6, seed=43)
    return _mixed_operations(descriptions)


def _encode_operation(operation):
    kind, payload = operation
    if kind == "remove":
        return {"op": kind, "identifier": payload}
    return {
        "op": kind,
        "identifier": payload.identifier,
        "attributes": {
            name: list(payload.values(name)) for name in payload.attribute_names
        },
    }


def _decode_operation(record):
    if record["op"] == "remove":
        return ("remove", record["identifier"])
    return (
        record["op"],
        EntityDescription(record["identifier"], attributes=record["attributes"]),
    )


def _freeze_fixture() -> dict:
    operations = _golden_operations()
    oracle = IncrementalResolver(
        ProfileSimilarityMatcher(threshold=0.5), engine="object"
    )
    results = [_apply(oracle, operation) for operation in operations]
    return {
        "description": "oracle outputs on a seeded add/remove/update stream",
        "matcher": {"threshold": 0.5},
        "operations": [_encode_operation(operation) for operation in operations],
        "results": results,
        "final": _state(oracle),
    }


@pytest.mark.parametrize("engine", ["object", "array"])
def test_golden_stream(engine):
    fixture = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))
    resolver = IncrementalResolver(
        ProfileSimilarityMatcher(threshold=fixture["matcher"]["threshold"]),
        engine=engine,
    )
    for record, expected in zip(fixture["operations"], fixture["results"]):
        assert _apply(resolver, _decode_operation(record)) == expected
    assert resolver.last_engine == engine
    assert _state(resolver) == fixture["final"]


def test_golden_fixture_is_current():
    """The checked-in fixture matches what the oracle produces today."""
    fixture = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))
    assert fixture == _freeze_fixture()


if __name__ == "__main__":
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(
        json.dumps(_freeze_fixture(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {FIXTURE_PATH}")
