"""Tests for entity collections and clean--clean tasks."""

import pytest

from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription


def make_collection(prefix: str, size: int) -> EntityCollection:
    return EntityCollection(
        (EntityDescription(f"{prefix}:{i}", {"name": f"entity {i}"}) for i in range(size)),
        name=prefix,
    )


class TestEntityCollection:
    def test_add_and_lookup_by_position_and_identifier(self):
        collection = make_collection("kb", 3)
        assert len(collection) == 3
        assert collection[0].identifier == "kb:0"
        assert collection["kb:2"].identifier == "kb:2"
        assert collection.position("kb:1") == 1
        assert collection.get("missing") is None

    def test_duplicate_identifiers_rejected(self):
        collection = make_collection("kb", 2)
        with pytest.raises(ValueError):
            collection.add(EntityDescription("kb:0", {"name": "dup"}))

    def test_invalid_index_type_raises(self):
        collection = make_collection("kb", 1)
        with pytest.raises(TypeError):
            collection[1.5]

    def test_attribute_names_are_union_over_descriptions(self):
        collection = EntityCollection(
            [
                EntityDescription("a", {"name": "x"}),
                EntityDescription("b", {"label": "y", "city": "z"}),
            ]
        )
        assert collection.attribute_names() == ("city", "label", "name")

    def test_filter_returns_new_collection(self):
        collection = make_collection("kb", 5)
        filtered = collection.filter(lambda d: d.identifier.endswith(("0", "1")))
        assert len(filtered) == 2
        assert len(collection) == 5

    def test_sample_is_deterministic_and_bounded(self):
        collection = make_collection("kb", 20)
        sample_a = collection.sample(5, seed=3)
        sample_b = collection.sample(5, seed=3)
        assert sample_a.identifiers == sample_b.identifiers
        assert len(sample_a) == 5
        assert len(collection.sample(100)) == 20

    def test_total_comparisons_is_quadratic(self):
        assert make_collection("kb", 10).total_comparisons() == 45
        assert make_collection("kb", 1).total_comparisons() == 0


class TestCleanCleanTask:
    def test_requires_disjoint_identifier_spaces(self):
        left = make_collection("kb", 3)
        right = make_collection("kb", 3)
        with pytest.raises(ValueError):
            CleanCleanTask(left, right)

    def test_membership_and_sides(self):
        task = CleanCleanTask(make_collection("a", 3), make_collection("b", 4))
        assert len(task) == 7
        assert task.side_of("a:0") == "left"
        assert task.side_of("b:0") == "right"
        with pytest.raises(KeyError):
            task.side_of("c:0")

    def test_valid_pairs_are_cross_collection_only(self):
        task = CleanCleanTask(make_collection("a", 2), make_collection("b", 2))
        assert task.is_valid_pair("a:0", "b:1")
        assert task.is_valid_pair("b:0", "a:1")
        assert not task.is_valid_pair("a:0", "a:1")
        assert not task.is_valid_pair("b:0", "b:1")

    def test_get_finds_left_descriptions_without_attributes(self):
        blank = EntityDescription("a:blank", {})
        task = CleanCleanTask(EntityCollection([blank]), make_collection("b", 1))
        assert task.get("a:blank") is blank
        assert task.get("c:0") is None

    def test_total_comparisons_is_product(self):
        task = CleanCleanTask(make_collection("a", 3), make_collection("b", 5))
        assert task.total_comparisons() == 15

    def test_union_collection_contains_both_sides(self):
        task = CleanCleanTask(make_collection("a", 2), make_collection("b", 2))
        union = task.as_single_collection()
        assert len(union) == 4
        assert "a:0" in union and "b:1" in union

    def test_get_resolves_either_side(self):
        task = CleanCleanTask(make_collection("a", 2), make_collection("b", 2))
        assert task.get("a:1").identifier == "a:1"
        assert task.get("b:0").identifier == "b:0"
        assert task.get("zzz") is None
