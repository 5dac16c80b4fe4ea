"""Unit tests for the columnar profile store behind the batch matching engine."""

from __future__ import annotations

import math

import numpy

from repro.datamodel.description import EntityDescription
from repro.text.profile_store import ProfileStore
from repro.text.tokenize import DEFAULT_STOP_WORDS, token_set
from repro.text.vectorizer import TfIdfVectorizer

def alan() -> EntityDescription:
    return EntityDescription("a1", {"name": "Alan Turing", "city": "London"})


def grace() -> EntityDescription:
    return EntityDescription("b1", {"name": "Grace Hopper", "city": "New York"})


class TestInterning:
    def test_ids_are_dense_and_stable(self):
        store = ProfileStore()
        first = store.intern("alan")
        second = store.intern("turing")
        assert (first, second) == (0, 1)
        assert store.intern("alan") == first  # idempotent
        assert store.token(first) == "alan"
        assert store.vocabulary_size == 2

    def test_vocabulary_is_shared_across_profiles(self):
        store = ProfileStore(stop_words=None, min_token_length=1)
        profile_a = store.profile(EntityDescription("x", {"name": "alan turing"}))
        profile_b = store.profile(EntityDescription("y", {"name": "turing machine"}))
        shared = set(profile_a.token_ids) & set(profile_b.token_ids)
        assert len(shared) == 1  # "turing" got the same id in both profiles


class TestSetModeProfiles:
    def test_profile_matches_token_set(self):
        store = ProfileStore(stop_words=DEFAULT_STOP_WORDS, min_token_length=2)
        description = alan()
        profile = store.profile(description)
        expected = token_set(description.values(), stop_words=DEFAULT_STOP_WORDS, min_length=2)
        assert {store.token(i) for i in profile.token_ids} == expected
        assert list(profile.token_ids) == sorted(profile.token_ids)
        assert profile.weights is None and profile.norm == 0.0

    def test_cache_hits_and_misses(self):
        store = ProfileStore()
        description = alan()
        first = store.profile(description)
        second = store.profile(description)
        assert first is second
        assert (store.hits, store.misses) == (1, 1)

    def test_stale_object_under_same_identifier_is_rebuilt(self):
        store = ProfileStore(stop_words=None, min_token_length=1)
        old = EntityDescription("a1", {"name": "alan"})
        new = EntityDescription("a1", {"name": "grace"})
        old_profile = store.profile(old)
        new_profile = store.profile(new)
        assert new_profile is not old_profile
        assert {store.token(i) for i in new_profile.token_ids} == {"grace"}

    def test_invalidate_and_clear(self):
        store = ProfileStore()
        store.profile(alan())
        store.profile(grace())
        assert len(store) == 2
        assert store.invalidate("a1") and not store.invalidate("a1")
        assert len(store) == 1
        vocabulary = store.vocabulary_size
        store.clear()
        assert len(store) == 0
        assert store.vocabulary_size == vocabulary  # interned tokens survive


class TestTfIdfModeProfiles:
    def test_columns_are_bit_identical_to_transform(self):
        descriptions = [alan(), grace()]
        vectorizer = TfIdfVectorizer().fit(iter(descriptions))
        store = ProfileStore(vectorizer=vectorizer)
        assert store.mode == "tfidf"
        for description in descriptions:
            profile = store.profile(description)
            vector = vectorizer.transform(description)
            rebuilt = {
                store.token(i): weight
                for i, weight in zip(profile.token_ids, profile.weights)
            }
            assert rebuilt == vector  # exact float equality, key by key
            assert profile.norm == vector.norm
            assert profile.norm == math.sqrt(math.fsum(w * w for w in vector.values()))

    def test_empty_description_has_empty_profile(self):
        vectorizer = TfIdfVectorizer().fit(iter([alan()]))
        store = ProfileStore(vectorizer=vectorizer)
        profile = store.profile(EntityDescription("void", {}))
        assert len(profile) == 0
        assert profile.norm == 0.0


class TestNumpyViews:
    def test_views_share_memory_with_columns(self):
        vectorizer = TfIdfVectorizer().fit(iter([alan(), grace()]))
        store = ProfileStore(vectorizer=vectorizer)
        profile = store.profile(alan())
        assert profile.np_ids.dtype == numpy.int64
        assert profile.np_weights.dtype == numpy.float64
        assert profile.np_ids.tolist() == list(profile.token_ids)
        assert profile.np_weights.tolist() == list(profile.weights)

    def test_empty_profile_views(self):
        store = ProfileStore()
        profile = store.profile(EntityDescription("void", {}))
        assert profile.np_ids.shape == (0,)
        assert profile.np_weights.shape == (0,)
