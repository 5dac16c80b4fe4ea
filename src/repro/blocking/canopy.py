"""Canopy clustering blocking.

Canopy clustering builds overlapping blocks ("canopies") with a cheap
similarity measure and two thresholds: descriptions within the *tight*
threshold of a canopy centre are removed from the candidate pool, while
descriptions within the *loose* threshold are added to the canopy but remain
candidates for other canopies.  It is the classical cheap-similarity blocking
baseline for records without a reliable blocking key.

Determinism: the centre selection order is the seeded shuffle of the input
order, and every centre scans the surviving candidates in that same
shuffled order -- so the canopies (keys, member order, tie behaviour) are a
pure function of the input order and the seed, independent of Python's
per-process string hashing.
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, List, Set

import numpy as np

from repro.blocking.base import Block, BlockBuilder, BlockCollection, ERInput
from repro.blocking.columns import TokenColumnView, append_posting
from repro.datamodel.collection import CleanCleanTask
from repro.datamodel.description import EntityDescription
from repro.text.similarity import jaccard_similarity
from repro.text.tokenize import DEFAULT_STOP_WORDS, token_set


class CanopyClusteringBlocking(BlockBuilder):
    """Canopy clustering over token sets with Jaccard as the cheap similarity.

    Parameters
    ----------
    loose_threshold:
        Similarity above which a description joins the current canopy.
    tight_threshold:
        Similarity above which a description is additionally removed from the
        candidate pool (must be ``>= loose_threshold``).
    seed:
        Seed for the canopy-centre selection order.
    """

    name = "canopy"

    def __init__(
        self,
        loose_threshold: float = 0.25,
        tight_threshold: float = 0.6,
        stop_words=DEFAULT_STOP_WORDS,
        min_token_length: int = 2,
        seed: int = 0,
    ) -> None:
        if tight_threshold < loose_threshold:
            raise ValueError("tight threshold must be >= loose threshold")
        self.loose_threshold = loose_threshold
        self.tight_threshold = tight_threshold
        self.stop_words = frozenset(stop_words) if stop_words else frozenset()
        self.min_token_length = min_token_length
        self.seed = seed

    def _tokens(self, description: EntityDescription) -> Set[str]:
        return token_set(
            description.values(),
            stop_words=self.stop_words,
            min_length=self.min_token_length,
        )

    def build(self, data: ERInput) -> BlockCollection:
        descriptions = list(self._iter_with_side(data))
        token_index: Dict[str, Set[str]] = {
            description.identifier: self._tokens(description)
            for _, description in descriptions
        }
        side_of: Dict[str, str] = {
            description.identifier: side for side, description in descriptions
        }

        rng = random.Random(self.seed)
        pool: List[str] = [description.identifier for _, description in descriptions]
        rng.shuffle(pool)
        remaining: Set[str] = set(pool)

        collection = BlockCollection(name=self.name)
        bilateral = isinstance(data, CleanCleanTask)
        canopy_index = 0

        for center in pool:
            if center not in remaining:
                continue
            remaining.discard(center)
            center_tokens = token_index[center]
            members = [center]
            removed: List[str] = []
            # candidates are scanned in the shuffled pool order, so member
            # order (and with it the emitted blocks) is deterministic
            for candidate in pool:
                if candidate not in remaining:
                    continue
                similarity = jaccard_similarity(center_tokens, token_index[candidate])
                if similarity >= self.loose_threshold:
                    members.append(candidate)
                    if similarity >= self.tight_threshold:
                        removed.append(candidate)
            for candidate in removed:
                remaining.discard(candidate)

            if len(members) < 2:
                continue
            key = f"canopy:{canopy_index}"
            canopy_index += 1
            if bilateral:
                left = [m for m in members if side_of[m] == "left"]
                right = [m for m in members if side_of[m] == "right"]
                if left and right:
                    collection.add(Block(key, left_members=left, right_members=right))
            else:
                collection.add(Block(key, members=members))
        return collection


# ----------------------------------------------------------------------
# array build (dispatched by repro.blocking.engine.BlockingEngine)
# ----------------------------------------------------------------------
def _index_build(builder: CanopyClusteringBlocking, data: ERInput, context) -> BlockCollection:
    """Array build: canopy selection over token postings instead of pair calls.

    Per centre, the intersection sizes against *every* description come from
    one pass over the centre's token postings (a shared-count accumulation,
    vectorised as a ``bincount`` over the concatenated postings); the
    Jaccard values are the same ``shared / (|a| + |b| - shared)`` integer
    divisions the oracle computes per pair, so thresholds and tie behaviour
    agree bit-for-bit.  The shuffled centre order is
    identical because ``random.Random.shuffle`` permutes by position,
    regardless of the list's contents.
    """
    view = TokenColumnView.build(data, context, builder.stop_words, builder.min_token_length)
    columns = view.columns
    n = len(columns)
    collection = BlockCollection(name=builder.name)
    if n == 0:
        return collection

    rng = random.Random(builder.seed)
    pool = list(range(n))
    rng.shuffle(pool)
    in_pool = bytearray([1]) * n

    sizes = [len(column) for column in columns]
    postings: Dict[int, array] = {}
    for ordinal, column in enumerate(columns):
        for token_id in column:
            append_posting(postings, token_id, ordinal)

    np_postings = {
        token_id: np.frombuffer(posting, dtype=np.int64)
        for token_id, posting in postings.items()
    }
    np_sizes = np.asarray(sizes, dtype=np.int64)

    loose = builder.loose_threshold
    tight = builder.tight_threshold
    ids = view.ids
    left_count = view.left_count
    bilateral = left_count >= 0
    canopy_index = 0

    for center in pool:
        if not in_pool[center]:
            continue
        in_pool[center] = 0
        center_column = columns[center]
        center_size = len(center_column)

        if center_size == 0:
            # Jaccard with an empty centre: 1.0 against other empty sets,
            # 0.0 otherwise (the oracle's empty-set special cases)
            similarities = [1.0 if sizes[o] == 0 else 0.0 for o in range(n)]
        else:
            shared = np.bincount(
                np.concatenate([np_postings[t] for t in center_column]), minlength=n
            )
            # denominators are >= center_size >= 1; candidates with an empty
            # column get shared == 0, i.e. similarity 0.0, like the oracle
            similarities = (shared / (center_size + np_sizes - shared)).tolist()

        members = [center]
        removed: List[int] = []
        for candidate in pool:
            if not in_pool[candidate]:
                continue
            similarity = similarities[candidate]
            if similarity >= loose:
                members.append(candidate)
                if similarity >= tight:
                    removed.append(candidate)
        for candidate in removed:
            in_pool[candidate] = 0

        if len(members) < 2:
            continue
        key = f"canopy:{canopy_index}"
        canopy_index += 1
        if bilateral:
            left = [ids[o] for o in members if o < left_count]
            right = [ids[o] for o in members if o >= left_count]
            if left and right:
                collection.add(Block(key, left_members=left, right_members=right))
        else:
            collection.add(Block(key, members=[ids[o] for o in members]))
    return collection
