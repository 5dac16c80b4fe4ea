"""String-similarity-join blocking (prefix filtering / AllPairs--PPJoin style).

The tutorial describes an alternative blocking approach that "constructs
blocks by identifying all pairs of descriptions whose string values
similarities are above a certain threshold ... without computing the
similarity of all pairs" by building an inverted index over tokens.  This
module implements the classical prefix-filtering similarity join:

1. tokens are globally ordered from rarest to most frequent;
2. each description only indexes the *prefix* of its sorted token list (long
   enough that two descriptions whose prefixes are disjoint cannot reach the
   similarity threshold);
3. candidate pairs are generated from the inverted index on prefix tokens,
   and verified with the exact set similarity (Jaccard here);
4. verified pairs become (tiny, two-member) blocks.

The positional filter of PPJoin is applied on top of plain prefix filtering to
discard candidates whose maximum possible overlap is already too small.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.blocking.base import Block, BlockBuilder, BlockCollection, ERInput
from repro.datamodel.collection import CleanCleanTask
from repro.datamodel.description import EntityDescription
from repro.datamodel.pairs import canonical_pair
from repro.text.similarity import jaccard_similarity
from repro.text.tokenize import DEFAULT_STOP_WORDS, token_set


def _required_overlap(size_a: int, size_b: int, threshold: float) -> float:
    """Minimum token overlap two sets must share to reach Jaccard ``threshold``."""
    return threshold / (1.0 + threshold) * (size_a + size_b)


def _prefix_length(size: int, threshold: float) -> int:
    """Prefix-filtering length for a record of ``size`` tokens at Jaccard ``threshold``."""
    return size - int(math.ceil(size * threshold)) + 1


class SimilarityJoinBlocking(BlockBuilder):
    """Self- or cross-join of descriptions with Jaccard similarity above a threshold.

    Parameters
    ----------
    threshold:
        Jaccard similarity threshold in (0, 1]; pairs at or above it become blocks.
    use_positional_filter:
        Whether to additionally apply PPJoin's positional filter, which
        tightens the candidate set without changing the result.
    stop_words, min_token_length:
        Tokenisation options, identical to token blocking so results are
        comparable.
    """

    name = "similarity_join"

    def __init__(
        self,
        threshold: float = 0.5,
        use_positional_filter: bool = True,
        stop_words=DEFAULT_STOP_WORDS,
        min_token_length: int = 2,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = threshold
        self.use_positional_filter = use_positional_filter
        self.stop_words = frozenset(stop_words) if stop_words else frozenset()
        self.min_token_length = min_token_length
        #: populated by :meth:`build`; statistics useful for benchmarks
        self.last_candidate_count = 0
        self.last_verified_count = 0

    # ------------------------------------------------------------------
    def _record_tokens(self, description: EntityDescription) -> Set[str]:
        return token_set(
            description.values(),
            stop_words=self.stop_words,
            min_length=self.min_token_length,
        )

    def _sorted_records(
        self, data: ERInput
    ) -> Tuple[List[Tuple[str, str, List[str]]], Dict[str, int]]:
        """Return records as ``(identifier, side, sorted tokens)`` plus global token order.

        Tokens are sorted by ascending document frequency (rarest first), the
        canonical ordering for prefix filtering.
        """
        raw: List[Tuple[str, str, Set[str]]] = []
        document_frequency: Dict[str, int] = {}
        for side, description in self._iter_with_side(data):
            tokens = self._record_tokens(description)
            raw.append((description.identifier, side, tokens))
            for token in tokens:
                document_frequency[token] = document_frequency.get(token, 0) + 1

        def order(token: str) -> Tuple[int, str]:
            return (document_frequency[token], token)

        records = [
            (identifier, side, sorted(tokens, key=order))
            for identifier, side, tokens in raw
        ]
        # process shorter records first: their prefixes are shorter and the
        # index stays small (standard AllPairs processing order)
        records.sort(key=lambda r: (len(r[2]), r[0]))
        return records, document_frequency

    # ------------------------------------------------------------------
    def build(self, data: ERInput) -> BlockCollection:
        records, _ = self._sorted_records(data)
        bilateral = isinstance(data, CleanCleanTask)
        token_sets: Dict[str, Set[str]] = {identifier: set(tokens) for identifier, _, tokens in records}
        sides: Dict[str, str] = {identifier: side for identifier, side, _ in records}

        # inverted index over prefix tokens: token -> list of (identifier, position, size)
        index: Dict[str, List[Tuple[str, int, int]]] = {}
        candidates: Set[Tuple[str, str]] = set()

        for identifier, side, tokens in records:
            size = len(tokens)
            if size == 0:
                continue
            prefix_len = _prefix_length(size, self.threshold)
            overlap_bound: Dict[str, float] = {}
            for position in range(min(prefix_len, size)):
                token = tokens[position]
                for other_id, other_position, other_size in index.get(token, []):
                    if bilateral and sides[other_id] == side:
                        continue
                    # length filter: |x| >= threshold * |y|
                    if other_size < self.threshold * size:
                        continue
                    if self.use_positional_filter:
                        # positional filter: remaining tokens bound the overlap
                        remaining = min(size - position, other_size - other_position)
                        already = overlap_bound.get(other_id, 0.0) + remaining
                        if already < _required_overlap(size, other_size, self.threshold):
                            overlap_bound[other_id] = overlap_bound.get(other_id, 0.0) + 1.0
                            continue
                    candidates.add(canonical_pair(identifier, other_id))
                index.setdefault(token, []).append((identifier, position, size))

        self.last_candidate_count = len(candidates)

        collection = BlockCollection(name=self.name)
        verified = 0
        for first, second in sorted(candidates):
            similarity = jaccard_similarity(token_sets[first], token_sets[second])
            if similarity >= self.threshold:
                verified += 1
                key = f"join:{first}|{second}"
                if bilateral:
                    left, right = (
                        (first, second) if sides[first] == "left" else (second, first)
                    )
                    collection.add(Block(key, left_members=[left], right_members=[right]))
                else:
                    collection.add(Block(key, members=[first, second]))
        self.last_verified_count = verified
        return collection

    # ------------------------------------------------------------------
    def join_pairs(self, data: ERInput) -> List[Tuple[str, str, float]]:
        """Return the verified pairs with their exact similarities (join-style API)."""
        blocks = self.build(data)
        results: List[Tuple[str, str, float]] = []
        token_cache: Dict[str, Set[str]] = {}

        def tokens_for(identifier: str) -> Set[str]:
            if identifier not in token_cache:
                description = (
                    data.get(identifier)
                    if isinstance(data, CleanCleanTask)
                    else data.get(identifier)
                )
                token_cache[identifier] = self._record_tokens(description) if description else set()
            return token_cache[identifier]

        for block in blocks:
            for first, second in block.pairs():
                results.append(
                    (first, second, jaccard_similarity(tokens_for(first), tokens_for(second)))
                )
        return results


# ----------------------------------------------------------------------
# array build (dispatched by repro.blocking.engine.BlockingEngine)
# ----------------------------------------------------------------------
def _vectorised_candidates(
    columns,
    n: int,
    left_count: int,
    bilateral: bool,
    threshold: float,
    coefficient: float,
    use_positional: bool,
    rank_of: Dict[int, int],
    num_tokens: int,
    id_rank: Sequence[int],
    record_order: Sequence[int],
):
    """All candidate codes in one vectorised pass, sorted ascending.

    The oracle's positional filter looks order-sensitive (``overlap_bound``
    grows by one per failed check), but over rank-sorted prefixes both the
    scanning record's position and the indexed record's position strictly
    increase between consecutive shared tokens, so the remaining-overlap
    bound shrinks by at least one per encounter while the failure count
    grows by exactly one: once the first shared prefix token of a pair
    fails the filter, every later one must fail too, and if any encounter
    passes then the first one does.  A pair is therefore a candidate
    exactly when *any* of its (earlier record, later record, shared prefix
    token) encounters passes the filters with a zero prior bound -- a
    fully static test this helper evaluates for every encounter at once.
    The float expressions are the oracle's, and "earlier" follows the
    oracle's shortest-first processing order, so the returned candidate
    set is bit-identical to the sequential loop's.
    """
    lens = np.fromiter((len(column) for column in columns), dtype=np.int64, count=n)
    if n == 0 or int(lens.sum()) == 0:
        return np.empty(0, dtype=np.int64)
    flat = np.concatenate([np.asarray(column, dtype=np.int64) for column in columns])
    # token id -> rank translation through a dense lookup column
    rank_lookup = np.zeros(num_tokens, dtype=np.int64)
    count = len(rank_of)
    rank_lookup[np.fromiter(rank_of.keys(), dtype=np.int64, count=count)] = np.fromiter(
        rank_of.values(), dtype=np.int64, count=count
    )
    record_ids = np.repeat(np.arange(n, dtype=np.int64), lens)
    # stable sort by (record, rank): record segments stay contiguous and
    # in place, each holding its ranks ascending -- the ranked token lists
    order = np.lexsort((rank_lookup[flat], record_ids))
    ranks = rank_lookup[flat][order]
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    positions = np.arange(len(flat), dtype=np.int64) - np.repeat(offsets, lens)
    # keep only prefix positions; size-0 records contribute no elements
    prefix_lens = lens - np.ceil(lens * threshold).astype(np.int64) + 1
    in_prefix = positions < prefix_lens[record_ids]
    prefix_ranks = ranks[in_prefix]
    prefix_records = record_ids[in_prefix]
    prefix_positions = positions[in_prefix]
    # group prefix entries by token, ordered by processing order inside
    # each group: an encounter pairs an entry with every earlier entry
    processing = np.empty(n, dtype=np.int64)
    processing[np.asarray(record_order, dtype=np.int64)] = np.arange(n, dtype=np.int64)
    group_order = np.lexsort((processing[prefix_records], prefix_ranks))
    entry_ranks = prefix_ranks[group_order]
    entry_records = prefix_records[group_order]
    entry_positions = prefix_positions[group_order]
    total = len(entry_ranks)
    if total == 0:
        return np.empty(0, dtype=np.int64)
    is_start = np.empty(total, dtype=bool)
    is_start[0] = True
    np.not_equal(entry_ranks[1:], entry_ranks[:-1], out=is_start[1:])
    group_start = np.maximum.accumulate(
        np.where(is_start, np.arange(total, dtype=np.int64), 0)
    )
    within = np.arange(total, dtype=np.int64) - group_start
    encounters = int(within.sum())
    if encounters == 0:
        return np.empty(0, dtype=np.int64)
    later = np.repeat(np.arange(total, dtype=np.int64), within)
    spans = np.zeros(total, dtype=np.int64)
    np.cumsum(within[:-1], out=spans[1:])
    earlier = np.repeat(group_start, within) + (
        np.arange(encounters, dtype=np.int64) - np.repeat(spans, within)
    )
    earlier_record = entry_records[earlier]
    later_record = entry_records[later]
    earlier_size = lens[earlier_record]
    later_size = lens[later_record]
    # length filter: the oracle's ``other_size < threshold * size`` with
    # the earlier record as "other" (processing is shortest-first)
    keep = earlier_size >= threshold * later_size
    if bilateral:
        keep &= (earlier_record < left_count) != (later_record < left_count)
    if use_positional:
        remaining = np.minimum(
            later_size - entry_positions[later], earlier_size - entry_positions[earlier]
        )
        keep &= remaining >= coefficient * (later_size + earlier_size)
    first_rank = np.asarray(id_rank, dtype=np.int64)[later_record[keep]]
    second_rank = np.asarray(id_rank, dtype=np.int64)[earlier_record[keep]]
    codes = np.minimum(first_rank, second_rank) * n + np.maximum(first_rank, second_rank)
    return np.unique(codes)


def _index_build(builder: SimilarityJoinBlocking, data: ERInput, context) -> BlockCollection:
    """Array build: prefix filtering over sorted-id columns, columnar verification.

    Candidate generation runs entirely in *rank space*: the global
    rarest-first token order ranks ids once by ``(document frequency,
    token string)``, records are processed shortest-first with identifier
    tie-breaks, and the length/positional filters evaluate the identical
    float expressions -- so the candidate *set* is the oracle's exactly.
    The whole prefix-index scan collapses into one vectorised encounter
    enumeration (see :func:`_vectorised_candidates` for why the positional
    filter admits this).  Candidate pairs are packed into single integers
    whose ascending order equals the oracle's sorted canonical string
    pairs.  Verification then runs through the matching engine's columnar
    set scorer
    (:meth:`repro.matching.engine.MatchingEngine.score_id_set_pairs`) with
    a Jaccard :class:`~repro.matching.matchers.ProfileSimilarityMatcher`
    at the join threshold, whose batched intersection counts are
    bit-identical to the oracle's per-pair ``jaccard_similarity``.
    """
    from repro.blocking.columns import TokenColumnView
    from repro.matching.engine import MatchingEngine
    from repro.matching.matchers import ProfileSimilarityMatcher

    view = TokenColumnView.build(data, context, builder.stop_words, builder.min_token_length)
    columns = view.columns
    ids = view.ids
    n = len(columns)
    threshold = builder.threshold
    left_count = view.left_count
    bilateral = left_count >= 0

    document_frequency: Dict[int, int] = {}
    frequency_get = document_frequency.get
    for column in columns:
        for token_id in column:
            document_frequency[token_id] = frequency_get(token_id, 0) + 1
    token_of = view.token_of
    rank_of: Dict[int, int] = {
        token_id: rank
        for rank, token_id in enumerate(
            sorted(document_frequency, key=lambda t: (document_frequency[t], token_of(t)))
        )
    }

    # identifier ranks: candidate pairs order by them exactly as canonical
    # string pairs sort, and ascending rank is the oracle's emission order
    by_rank = sorted(range(n), key=ids.__getitem__)
    id_rank = [0] * n
    for rank, ordinal in enumerate(by_rank):
        id_rank[ordinal] = rank

    record_order = sorted(range(n), key=lambda o: (len(columns[o]), ids[o]))

    ordered_codes = _vectorised_candidates(
        columns,
        n,
        left_count,
        bilateral,
        threshold,
        threshold / (1.0 + threshold),
        builder.use_positional_filter,
        rank_of,
        view.num_tokens,
        id_rank,
        record_order,
    )
    builder.last_candidate_count = int(ordered_codes.size)
    rank_to_ordinal = np.asarray(by_rank, dtype=np.int64)
    ordinal_pairs = list(
        zip(
            rank_to_ordinal[ordered_codes // n].tolist(),
            rank_to_ordinal[ordered_codes % n].tolist(),
        )
    )
    matcher = ProfileSimilarityMatcher(
        threshold=threshold,
        stop_words=builder.stop_words,
        min_token_length=builder.min_token_length,
        similarity_name="jaccard",
    )
    engine = MatchingEngine(matcher, context=context)
    scores = engine.score_id_set_pairs(ordinal_pairs, columns, view.num_tokens)

    collection = BlockCollection(name=builder.name)
    verified = 0
    for (first_ordinal, second_ordinal), score in zip(ordinal_pairs, scores):
        if score < threshold:
            continue
        verified += 1
        first = ids[first_ordinal]
        second = ids[second_ordinal]
        key = f"join:{first}|{second}"
        if bilateral:
            left, right = (
                (first, second) if first_ordinal < left_count else (second, first)
            )
            collection.add(Block(key, left_members=[left], right_members=[right]))
        else:
            collection.add(Block(key, members=[first, second]))
    builder.last_verified_count = verified
    return collection
