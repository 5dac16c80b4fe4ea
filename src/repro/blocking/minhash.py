"""MinHash / LSH blocking: approximate similarity-join blocking.

The similarity-join view of blocking ("identify all pairs of descriptions
whose string values similarities are above a certain threshold ... without
computing the similarity of all pairs") can also be realised approximately
with locality-sensitive hashing: each description's token set is summarised by
a MinHash signature, the signature is split into bands, and two descriptions
co-occur in a block whenever they agree on all rows of at least one band.  The
probability of sharing a band is ``1 - (1 - s^r)^b`` for Jaccard similarity
``s``, ``b`` bands and ``r`` rows per band, which approximates a step function
around the similarity threshold ``(1/b)^(1/r)``.

Compared to the exact prefix-filtering join (:mod:`repro.blocking.similarity_join`)
LSH blocking trades exactness for an indexing cost that is linear in the
number of descriptions and independent of the pair-similarity distribution.

Seed handling
-------------
The whole hash family derives from the single ``seed`` argument: one
``random.Random(seed)`` stream yields the per-permutation coefficient pairs
``(a_i, b_i)`` in interleaved order (``a_0, b_0, a_1, b_1, ...``), with
``a_i`` uniform on ``[1, 2**32 - 1]`` and ``b_i`` uniform on
``[0, 2**61 - 2]``.  Keeping the multipliers in 32 bits bounds
``a_i * h(token)`` by ``2**64`` for the 32-bit token hashes, so the
vectorised engine can evaluate the identical family in ``uint64``
arithmetic (``((a * h) % P + b) % P == (a * h + b) % P`` exactly, since
``(a * h) % P + b < 2**62``).  Signatures are therefore reproducible
bit-for-bit across the vectorised array build and the per-description
oracle from the seed alone.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.blocking.base import Block, BlockBuilder, BlockCollection, ERInput
from repro.blocking.columns import TokenColumnView, add_block, append_posting
from repro.datamodel.description import EntityDescription
from repro.text.tokenize import DEFAULT_STOP_WORDS, token_set

_MERSENNE_PRIME = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1


def _token_hash(token: str) -> int:
    """Stable 32-bit hash of a token (Python's ``hash`` is salted per process)."""
    digest = hashlib.md5(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


class MinHashSignature:
    """A family of ``num_hashes`` universal hash functions producing MinHash signatures.

    The coefficients come from one ``random.Random(seed)`` stream, drawn
    interleaved per permutation: ``a_i = randint(1, 2**32 - 1)`` then
    ``b_i = randint(0, 2**61 - 2)`` (see the module docstring for why the
    multipliers stay within 32 bits).
    """

    def __init__(self, num_hashes: int = 64, seed: int = 1) -> None:
        if num_hashes < 1:
            raise ValueError("num_hashes must be positive")
        rng = random.Random(seed)
        self.num_hashes = num_hashes
        self.seed = seed
        coefficients_a: List[int] = []
        coefficients_b: List[int] = []
        for _ in range(num_hashes):
            coefficients_a.append(rng.randint(1, _MAX_HASH))
            coefficients_b.append(rng.randint(0, _MERSENNE_PRIME - 1))
        self._coefficients_a = coefficients_a
        self._coefficients_b = coefficients_b

    def signature(self, tokens: Iterable[str]) -> Tuple[int, ...]:
        """MinHash signature of a token set (all-``MAX_HASH`` for the empty set)."""
        hashed = [_token_hash(token) for token in tokens]
        return self.signature_of_hashes(hashed)

    def signature_of_hashes(self, hashed: Sequence[int]) -> Tuple[int, ...]:
        """Signature of pre-hashed token values (the inner kernel of :meth:`signature`)."""
        if not hashed:
            return tuple([_MAX_HASH] * self.num_hashes)
        signature = []
        for a, b in zip(self._coefficients_a, self._coefficients_b):
            signature.append(min(((a * value + b) % _MERSENNE_PRIME) & _MAX_HASH for value in hashed))
        return tuple(signature)

    @staticmethod
    def estimate_jaccard(first: Sequence[int], second: Sequence[int]) -> float:
        """Estimated Jaccard similarity: fraction of agreeing signature positions."""
        if not first or len(first) != len(second):
            raise ValueError("signatures must be non-empty and of equal length")
        agreements = sum(1 for a, b in zip(first, second) if a == b)
        return agreements / len(first)


class MinHashLSHBlocking(BlockBuilder):
    """LSH banding over MinHash signatures of the descriptions' token sets.

    Parameters
    ----------
    num_bands, rows_per_band:
        The signature has ``num_bands * rows_per_band`` positions; two
        descriptions co-occur whenever one band of their signatures is
        identical.  The implied similarity threshold is roughly
        ``(1 / num_bands) ** (1 / rows_per_band)``.
    seed:
        Seed of the hash family (fixed for reproducibility).
    """

    name = "minhash_lsh"

    def __init__(
        self,
        num_bands: int = 16,
        rows_per_band: int = 4,
        stop_words=DEFAULT_STOP_WORDS,
        min_token_length: int = 2,
        seed: int = 1,
    ) -> None:
        if num_bands < 1 or rows_per_band < 1:
            raise ValueError("num_bands and rows_per_band must be positive")
        self.num_bands = num_bands
        self.rows_per_band = rows_per_band
        self.stop_words = frozenset(stop_words) if stop_words else frozenset()
        self.min_token_length = min_token_length
        self._minhash = MinHashSignature(num_hashes=num_bands * rows_per_band, seed=seed)

    @property
    def approximate_threshold(self) -> float:
        """The Jaccard similarity at which the banding curve crosses ~50% recall."""
        return (1.0 / self.num_bands) ** (1.0 / self.rows_per_band)

    def tokens_of(self, description: EntityDescription) -> Set[str]:
        return token_set(
            description.values(),
            stop_words=self.stop_words,
            min_length=self.min_token_length,
        )

    def build(self, data: ERInput) -> BlockCollection:
        key_index: Dict[str, Dict[str, List[str]]] = {}
        for side, description in self._iter_with_side(data):
            tokens = self.tokens_of(description)
            if not tokens:
                continue
            signature = self._minhash.signature(tokens)
            for band in range(self.num_bands):
                start = band * self.rows_per_band
                band_values = signature[start : start + self.rows_per_band]
                key = f"b{band}:" + "-".join(str(v) for v in band_values)
                key_index.setdefault(key, {}).setdefault(side, []).append(description.identifier)
        return self._blocks_from_key_index(key_index, data, name=self.name)


# ----------------------------------------------------------------------
# array build (dispatched by repro.blocking.engine.BlockingEngine)
# ----------------------------------------------------------------------
def _signature_rows(
    minhash: MinHashSignature, hashed_columns: List[array]
) -> List[Sequence[int]]:
    """One signature per (non-empty) hashed column, as ``num_hashes``-long rows.

    Each permutation is evaluated over the concatenation of all columns and
    segment minima are taken with ``np.minimum.reduceat``; the integers are
    those of :meth:`MinHashSignature.signature_of_hashes` per column (see
    the module docstring).
    """
    if not hashed_columns:  # np.concatenate([]) raises
        return []
    lengths = [len(column) for column in hashed_columns]
    starts = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(np.asarray(lengths[:-1], dtype=np.int64), out=starts[1:])
    values = np.concatenate(
        [np.frombuffer(column, dtype=np.int64) for column in hashed_columns]
    ).astype(np.uint64)
    prime = np.uint64(_MERSENNE_PRIME)
    mask = np.uint64(_MAX_HASH)
    rows = np.empty((minhash.num_hashes, len(hashed_columns)), dtype=np.uint64)
    for position, (a, b) in enumerate(
        zip(minhash._coefficients_a, minhash._coefficients_b)
    ):
        # (a*h) % P + b < 2**62, so the split form is exact in uint64
        permuted = (np.uint64(a) * values) % prime
        permuted += np.uint64(b)
        permuted %= prime
        permuted &= mask
        np.minimum.reduceat(permuted, starts, out=rows[position])
    return rows.T.tolist()


def _index_build(builder: MinHashLSHBlocking, data: ERInput, context) -> BlockCollection:
    """Array build: one signature matrix, integer band bucketing.

    Block-for-block identical to :meth:`MinHashLSHBlocking.build`: the token
    sets come from the shared columns (or one ``token_set`` pass), every
    distinct token is md5-hashed once instead of once per occurrence, the
    signatures are the same universal-hash minima, and bands bucket by
    integer tuples with the final emission in the oracle's sorted
    key-string order.
    """
    view = TokenColumnView.build(data, context, builder.stop_words, builder.min_token_length)
    hash_cache: Dict[int, int] = {}
    token_of = view.token_of
    entities: List[int] = []
    hashed_columns: List[array] = []
    for ordinal, column in enumerate(view.columns):
        if not len(column):
            continue
        hashed = array("q")
        for token_id in column:
            value = hash_cache.get(token_id)
            if value is None:
                value = hash_cache[token_id] = _token_hash(token_of(token_id))
            hashed.append(value)
        entities.append(ordinal)
        hashed_columns.append(hashed)

    rows = _signature_rows(builder._minhash, hashed_columns)

    num_bands = builder.num_bands
    rows_per_band = builder.rows_per_band
    postings: Dict[Tuple[int, ...], array] = {}
    for ordinal, signature in zip(entities, rows):
        for band in range(num_bands):
            start = band * rows_per_band
            key = (band, *signature[start : start + rows_per_band])
            append_posting(postings, key, ordinal)

    collection = BlockCollection(name=builder.name)
    keyed = sorted(
        ("b{}:".format(key[0]) + "-".join(str(v) for v in key[1:]), key)
        for key in postings
    )
    for key_string, key in keyed:
        add_block(collection, key_string, postings[key], view.ids, view.left_count)
    return collection
