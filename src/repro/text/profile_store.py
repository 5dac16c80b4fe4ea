"""Columnar profile store: interned tokens and cached per-entity arrays.

The pairwise matchers re-derive the token profile of a description on every
comparison: :class:`~repro.matching.matchers.ProfileSimilarityMatcher` calls
``token_set`` twice per pair and the TF-IDF path re-tokenises and re-weights
both descriptions through ``TfIdfVectorizer.transform``.  A description that
appears in *K* candidate pairs therefore pays its tokenisation and
normalisation cost *K* times, which dominates the matching phase once
meta-blocking has made candidate generation cheap.

:class:`ProfileStore` amortises that cost to once per description.  Tokens are
interned to dense integer ids shared across the whole collection, and for
every description the store caches a :class:`Profile`:

* the **sorted token-id array** (``array('q')``) plus the id *set*, which turn
  every set similarity (Jaccard, Dice, overlap, cosine) into integer
  intersection counting;
* in TF-IDF mode, the **aligned weight array** with the same term-frequency
  scaling and smoothed IDF as ``TfIdfVectorizer.transform``, plus the
  **L2 norm** of the vector, precomputed once with :func:`math.fsum` (whose
  exactly rounded result is independent of accumulation order, so the cached
  norm is bit-identical to the one the pairwise oracle derives from its
  ``dict`` vector).

Profiles are computed lazily (a description that never reaches the matcher
never pays) and cached by identifier.  The cache remembers which description
*object* produced each profile: when a different object arrives under the same
identifier -- e.g. after a merge replaced the description -- the stale entry is
recomputed automatically, and :meth:`ProfileStore.invalidate` drops a single
entry explicitly without touching the rest of the store.

:attr:`Profile.np_ids` / :attr:`Profile.np_weights` expose the same columns
as zero-copy ``int64`` / ``float64`` views for the vectorised scoring passes
of :class:`~repro.matching.engine.MatchingEngine`.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.datamodel.description import EntityDescription
from repro.text.tokenize import token_set
from repro.text.vectorizer import SparseVector, TfIdfVectorizer


class Profile:
    """The cached columnar view of one description's token profile.

    Attributes
    ----------
    identifier:
        Identifier of the profiled description.
    token_ids:
        Sorted ``array('q')`` of interned token ids (distinct tokens).
    weights:
        TF-IDF weight ``array('d')`` aligned with ``token_ids``; ``None`` in
        set mode.
    norm:
        Precomputed L2 norm of ``weights`` (``0.0`` in set mode), computed
        with :func:`math.fsum` so it is bit-identical to the norm of the
        equivalent ``dict`` vector regardless of token order.

    The derived views (:attr:`id_set`, :attr:`weight_map`, :attr:`np_ids`,
    :attr:`np_weights`) are built lazily and cached: only the scoring path
    that actually runs pays for its view, so e.g. the batched NumPy TF-IDF
    pass never materialises the per-profile hash tables of the single-pair
    scorers.
    """

    __slots__ = (
        "identifier",
        "token_ids",
        "weights",
        "norm",
        "_id_set",
        "_weight_map",
        "_np_ids",
        "_np_weights",
    )

    def __init__(
        self,
        identifier: str,
        token_ids: array,
        weights: Optional[array] = None,
        norm: float = 0.0,
    ) -> None:
        self.identifier = identifier
        self.token_ids = token_ids
        self.weights = weights
        self.norm = norm
        self._id_set = None
        self._weight_map = None
        self._np_ids = None
        self._np_weights = None

    def __len__(self) -> int:
        return len(self.token_ids)

    @property
    def id_set(self) -> frozenset:
        """The token ids as a ``frozenset`` for C-speed set intersection."""
        if self._id_set is None:
            self._id_set = frozenset(self.token_ids)
        return self._id_set

    @property
    def weight_map(self) -> Optional[SparseVector]:
        """Token id -> weight as a SparseVector carrying the precomputed
        norm, so the single-pair cosine scorer can feed it straight into
        :func:`repro.text.vectorizer.weighted_cosine`; ``None`` in set mode."""
        if self._weight_map is None and self.weights is not None:
            self._weight_map = SparseVector(
                zip(self.token_ids, self.weights), norm=self.norm
            )
        return self._weight_map

    @property
    def np_ids(self):
        """Zero-copy ``int64`` view of :attr:`token_ids`."""
        if self._np_ids is None:
            if len(self.token_ids) == 0:
                self._np_ids = np.zeros(0, dtype=np.int64)
            else:
                self._np_ids = np.frombuffer(self.token_ids, dtype=np.int64)
        return self._np_ids

    @property
    def np_weights(self):
        """Zero-copy ``float64`` view of :attr:`weights`."""
        if self._np_weights is None:
            if self.weights is None or len(self.weights) == 0:
                self._np_weights = np.zeros(0, dtype=np.float64)
            else:
                self._np_weights = np.frombuffer(self.weights, dtype=np.float64)
        return self._np_weights


class ProfileStore:
    """Interns tokens once per collection and caches per-description columns.

    A store instance mirrors the configuration of exactly one matcher:

    * **set mode** (``vectorizer=None``) -- profiles are the distinct tokens of
      ``token_set(description.values(), stop_words, min_length)``, matching
      :class:`~repro.matching.matchers.ProfileSimilarityMatcher`'s
      un-vectorised path;
    * **TF-IDF mode** (``vectorizer`` given) -- profiles additionally carry
      the weight column and norm of ``vectorizer.transform(description)``,
      taken directly from the transform output, so the columns hold
      bit-identical floats by construction.

    Parameters
    ----------
    stop_words / min_token_length:
        Set-mode tokenisation options (ignored in TF-IDF mode, exactly as the
        pairwise matcher ignores them when a vectoriser is present).
    vectorizer:
        Optional fitted :class:`~repro.text.vectorizer.TfIdfVectorizer`.
    context:
        Optional shared :class:`~repro.core.context.PipelineContext`.  When
        given, the store delegates token interning to the context's
        vocabulary and builds the profile of every description the context
        owns straight from the interned columns -- no re-tokenisation, same
        floats (counts and document frequencies are exact integers, the
        weight/norm arithmetic is the very expression of
        ``TfIdfVectorizer.transform`` and :func:`~repro.text.vectorizer.l2_norm`).
        Descriptions outside the context (e.g. transient merged descriptions
        of the update phase, or a replaced object reusing a known
        identifier) transparently take the tokenising path.
    """

    def __init__(
        self,
        stop_words: Optional[Iterable[str]] = None,
        min_token_length: int = 1,
        vectorizer: Optional[TfIdfVectorizer] = None,
        context=None,
    ) -> None:
        self.stop_words = frozenset(stop_words) if stop_words else frozenset()
        self.min_token_length = min_token_length
        self.vectorizer = vectorizer
        self.context = context
        self._token_ids: Dict[str, int] = {}
        self._tokens: List[str] = []
        #: token id -> idf weight column of the configured vectorizer,
        #: extended lazily (context mode only)
        self._idf: array = array("d")
        #: identifier -> (source description, profile); the source reference
        #: detects stale entries when a new object reuses an identifier
        self._profiles: Dict[str, Tuple[EntityDescription, Profile]] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # token interning
    # ------------------------------------------------------------------
    def intern(self, token: str) -> int:
        """Return the dense integer id of ``token``, assigning one if new."""
        if self.context is not None:
            return self.context.intern(token)
        token_id = self._token_ids.get(token)
        if token_id is None:
            token_id = len(self._tokens)
            self._token_ids[token] = token_id
            self._tokens.append(token)
        return token_id

    def token(self, token_id: int) -> str:
        """Inverse of :meth:`intern`."""
        if self.context is not None:
            return self.context.token(token_id)
        return self._tokens[token_id]

    @property
    def vocabulary_size(self) -> int:
        if self.context is not None:
            return self.context.vocabulary_size
        return len(self._tokens)

    @property
    def mode(self) -> str:
        return "tfidf" if self.vectorizer is not None else "set"

    def __len__(self) -> int:
        return len(self._profiles)

    # ------------------------------------------------------------------
    # profiles
    # ------------------------------------------------------------------
    def profile(self, description: EntityDescription) -> Profile:
        """The cached :class:`Profile` of ``description`` (built on first use).

        The cache is keyed by identifier but verified against the description
        object: a *different* object under a known identifier (a merged or
        otherwise replaced description) transparently recomputes the entry, so
        callers never observe a stale profile.
        """
        entry = self._profiles.get(description.identifier)
        if entry is not None and entry[0] is description:
            self.hits += 1
            return entry[1]
        self.misses += 1
        profile = self._build(description)
        self._profiles[description.identifier] = (description, profile)
        return profile

    def invalidate(self, identifier: str) -> bool:
        """Drop the cached profile of ``identifier``; other entries are kept.

        Returns whether an entry existed.  Used by the update/iterate phase:
        merging a description only invalidates that entity's store entry.
        """
        return self._profiles.pop(identifier, None) is not None

    def clear(self) -> None:
        """Drop every cached profile (the interned vocabulary is kept)."""
        self._profiles.clear()

    # ------------------------------------------------------------------
    def _build(self, description: EntityDescription) -> Profile:
        context = self.context
        if context is not None:
            ordinal = context.ordinal(description.identifier)
            if ordinal is not None and context.description(ordinal) is description:
                return self._build_from_context(context, ordinal, description.identifier)
        if self.vectorizer is None:
            tokens = token_set(
                description.values(),
                stop_words=self.stop_words,
                min_length=self.min_token_length,
            )
            ids = array("q", sorted(self.intern(token) for token in tokens))
            return Profile(description.identifier, ids)

        # TF-IDF mode: the columns are the vectorizer's own transform output
        # re-keyed to interned ids, so they are bit-identical to the pairwise
        # oracle's vectors by construction -- including the SparseVector's
        # fsum-precomputed norm
        vector = self.vectorizer.transform(description)
        if not vector:
            return Profile(description.identifier, array("q"))
        weighted: List[Tuple[int, float]] = sorted(
            (self.intern(token), weight) for token, weight in vector.items()
        )
        ids = array("q", (token_id for token_id, _ in weighted))
        weights = array("d", (weight for _, weight in weighted))
        return Profile(description.identifier, ids, weights, vector.norm)

    def _build_from_context(self, context, ordinal: int, identifier: str) -> Profile:
        """Build a profile from the context's interned columns (no tokenisation).

        Bit-identity with the tokenising path: the set-mode ids are the same
        filtered distinct tokens; the TF-IDF weights apply the exact
        term-frequency expression of ``TfIdfVectorizer.transform`` to the
        exact integer counts the transform would derive, and the norm goes
        through :func:`math.fsum` (exactly rounded, accumulation-order
        independent) like :func:`~repro.text.vectorizer.l2_norm`.
        """
        vectorizer = self.vectorizer
        if vectorizer is None:
            token_filter = context.token_filter(self.stop_words, self.min_token_length)
            ids, _counts = context.token_counts(ordinal)
            return Profile(identifier, token_filter.select(ids))

        token_filter = context.token_filter(None, vectorizer.min_token_length)
        ids, counts = context.token_counts(ordinal)
        if not token_filter.trivial:
            kept = [
                (token_id, count)
                for token_id, count in zip(ids, counts)
                if token_filter.allows(token_id)
            ]
            ids = array("q", (t for t, _ in kept))
            counts = array("q", (c for _, c in kept))
        if not len(ids):
            return Profile(identifier, array("q"))
        idf = self._idf
        vocabulary_size = context.vocabulary_size
        if len(idf) < vocabulary_size:
            token_of = context.token
            idf_of = vectorizer.idf
            idf.extend(
                idf_of(token_of(token_id))
                for token_id in range(len(idf), vocabulary_size)
            )
        max_count = max(counts)
        weights = array(
            "d",
            (
                (0.5 + 0.5 * count / max_count) * idf[token_id]
                for token_id, count in zip(ids, counts)
            ),
        )
        norm = math.sqrt(math.fsum(w * w for w in weights))
        return Profile(identifier, ids, weights, norm)
