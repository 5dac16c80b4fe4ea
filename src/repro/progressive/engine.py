"""Array-backed progressive scheduling engine.

Scheduling was the last object-graph phase of the workflow: every scheduler
materialised a ``List[Comparison]`` (often twice -- meta-blocking built one
sorted list, the scheduler deduplicated and re-sorted it) and the runner drew
the per-pair objects one by one.  :class:`SchedulingEngine` executes the same
schedules over flat ordinal/weight arrays, following the established
two-engine pattern of the blocking, meta-blocking and matching phases:

* ``engine="array"`` (the default) -- the feedback-free library schedulers
  run natively on columns:

  - :class:`~repro.progressive.schedulers.WeightOrderScheduler` orders the
    meta-blocking engine's :class:`~repro.datamodel.pairs.ComparisonColumns`
    with one ``lexsort``/argsort over the ``(weight, first, second)``
    columns (weight ties break on the identifier ranks, exactly the object
    sort key) -- and recognises columns that are already weight-sorted, in
    which case scheduling is a zero-cost pass-through;
  - :class:`~repro.progressive.schedulers.RandomOrderScheduler` shuffles row
    indices with the same seeded Fisher--Yates permutation the object path
    applies to its comparison list;
  - :class:`~repro.progressive.schedulers.StaticOrderScheduler` streams its
    pre-computed order through the row interface (a budget becomes a plain
    slice of the order);
  - :class:`~repro.progressive.sorted_list.SortedListScheduler` emits its
    incrementally widening windows as position pairs over the sorted order,
    with the candidate-restriction set held as packed integer codes;
  - :class:`~repro.progressive.psnm.ProgressiveBlockScheduler` with
    ``promote_on_match=False`` (its feedback hook then never fires) emits
    block-ordered pairs with integer-coded first-occurrence deduplication;
  - :class:`~repro.progressive.hierarchy.PartitionHierarchyScheduler` with
    ``restrict_to_candidates=True`` over blocks or columns works from the
    candidates instead of the partitions: every distinct candidate pair is
    placed at the deepest level where both sorting-key prefixes agree, and
    one ``lexsort`` on (level, partition size, partition prefix, first,
    second) reproduces the generator's order.  Without the restriction (or
    without candidates, or with a plain comparison list) it falls back.

  The scheduled rows feed
  :meth:`~repro.matching.engine.MatchingEngine.decide_pairs` directly in
  batched draws (see :func:`~repro.progressive.runner.run_progressive`), so
  a budgeted run touches only the array prefix it can afford.

* ``engine="object"`` -- delegates to the scheduler's own
  :meth:`~repro.progressive.schedulers.ProgressiveScheduler.schedule`
  generator, which remains the readable reference implementation and the
  oracle of the equivalence suite (``tests/test_scheduling_engine.py``).

Schedulers that adapt to match feedback (progressive sorted neighbourhood,
the cost--benefit scheduler, progressive blocking with promotion), custom
:class:`~repro.progressive.schedulers.ProgressiveScheduler` implementations
and subclasses of the native types fall back to the object path
automatically -- their next draw may depend on the previous decision, which
an up-front array order cannot represent.  Both engines produce
bit-identical schedules: the same comparisons, in the same order (including
order under weight ties), hence the same matches and the same progressive
recall curve.
"""

from __future__ import annotations

import random
from array import array
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.blocking.base import BlockCollection
from repro.blocking.sorted_neighborhood import sorted_order
from repro.datamodel.collection import CleanCleanTask
from repro.datamodel.pairs import (
    Comparison,
    ComparisonColumns,
    OrdinalInterner,
    pair_code,
)
from repro.progressive.hierarchy import PartitionHierarchyScheduler
from repro.progressive.psnm import ProgressiveBlockScheduler
from repro.progressive.schedulers import (
    CandidateSource,
    ERInput,
    ProgressiveScheduler,
    RandomOrderScheduler,
    StaticOrderScheduler,
    WeightOrderScheduler,
)
from repro.progressive.sorted_list import SortedListScheduler

#: Execution engines of the scheduling phase.
SCHEDULING_ENGINES = ("array", "object")

#: Row type of an array schedule: (first ordinal, second ordinal, weight).
Row = Tuple[int, int, Optional[float]]


class ScheduledRows:
    """An array schedule: an identifier table plus lazily-yielded ordinal rows.

    ``rows`` yields ``(first, second, weight)`` triples indexing ``ids``;
    generation is lazy, so a budgeted consumer only pays for the prefix it
    draws.  ``descriptions`` (when the columns came from a shared pipeline
    context) is aligned with ``ids`` and lets the executor skip identifier
    resolution entirely.
    """

    __slots__ = ("ids", "rows", "descriptions")

    def __init__(
        self,
        ids: Sequence[str],
        rows: Iterator[Row],
        descriptions: Optional[Sequence] = None,
    ) -> None:
        self.ids = ids
        self.rows = rows
        self.descriptions = descriptions

    def comparisons(self) -> Iterator[Comparison]:
        """Materialise the schedule as :class:`Comparison` objects (lazy)."""
        ids = self.ids
        for first, second, weight in self.rows:
            yield Comparison(ids[first], ids[second], weight=weight)


def _columns_from_blocks(blocks: BlockCollection) -> ComparisonColumns:
    """The distinct comparisons of ``blocks`` as columns, first block wins.

    Row order equals ``BlockCollection.distinct_comparisons()`` (and hence
    ``candidate_comparisons``): blocks in collection order, within-block
    comparison order, first occurrence of every pair kept.
    """
    intern = OrdinalInterner()
    first = array("q")
    second = array("q")
    seen: Set[int] = set()
    add = seen.add
    for block in blocks:
        for id_a, id_b in block.pairs():
            a = intern(id_a)
            b = intern(id_b)
            code = pair_code(a, b)
            if code in seen:
                continue
            add(code)
            first.append(a)
            second.append(b)
    return ComparisonColumns(intern.ids, first, second, None, distinct=True)


def _left_flags(data: ERInput, identifiers: Sequence[str]) -> Optional[List[bool]]:
    """Per-ordinal clean--clean side flags (``True`` = left), ``None`` if dirty.

    Every identifier must belong to ``data``; a pair of ordinals is then a
    valid clean--clean comparison exactly when their flags differ, the
    per-pair :meth:`CleanCleanTask.is_valid_pair` test without its two
    membership lookups.
    """
    if not isinstance(data, CleanCleanTask):
        return None
    left = data.left
    return [identifier in left for identifier in identifiers]


def _expand(
    sources: np.ndarray, starts: np.ndarray, counts: np.ndarray, partners: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Rows ``(sources[e], partners[starts[e] + t])`` for every ``t < counts[e]``."""
    offsets = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return np.repeat(sources, counts), partners[np.repeat(starts, counts) + offsets]


def _block_ordinals(
    blocks: BlockCollection, ordinal: Dict[str, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Every comparison of ``blocks`` as two ordinal columns (``-1``: not in the table).

    Within-block pairs of dirty blocks and left x right pairs of bilateral
    blocks, expanded without a per-pair Python step; duplicates across
    blocks are kept (callers deduplicate).
    """
    members: List[int] = []
    sizes: List[int] = []
    left: List[int] = []
    right: List[int] = []
    left_sizes: List[int] = []
    right_sizes: List[int] = []
    get = ordinal.get
    for block in blocks:
        if block.is_bilateral:
            left.extend([get(identifier, -1) for identifier in block.left_members])
            right.extend([get(identifier, -1) for identifier in block.right_members])
            left_sizes.append(len(block.left_members))
            right_sizes.append(len(block.right_members))
        else:
            members.extend([get(identifier, -1) for identifier in block.members])
            sizes.append(len(block.members))

    # dirty: member i of a size-m block pairs with the m - 1 - i members after it
    dirty = np.array(members, dtype=np.int64)
    size = np.array(sizes, dtype=np.int64)
    position = np.arange(len(dirty), dtype=np.int64)
    local = position - np.repeat(np.cumsum(size) - size, size)
    first_d, second_d = _expand(dirty, position + 1, np.repeat(size, size) - 1 - local, dirty)

    # bilateral: every left member pairs with all right members of its block
    left_size = np.array(left_sizes, dtype=np.int64)
    right_size = np.array(right_sizes, dtype=np.int64)
    first_b, second_b = _expand(
        np.array(left, dtype=np.int64),
        np.repeat(np.cumsum(right_size) - right_size, left_size),
        np.repeat(right_size, left_size),
        np.array(right, dtype=np.int64),
    )
    return np.concatenate((first_d, first_b)), np.concatenate((second_d, second_b))


def _candidate_ordinals(
    candidates: CandidateSource, ordinal: Dict[str, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs of block or column candidates as ordinals of another table.

    ``ordinal`` maps identifiers to the caller's table; identifiers missing
    from it become ``-1``.  Row order and duplicates are not preserved, so
    only membership tests may rely on the result.
    """
    if isinstance(candidates, ComparisonColumns):
        table = np.array(
            [ordinal.get(identifier, -1) for identifier in candidates.ids], dtype=np.int64
        )
        return (
            table[np.asarray(candidates.first, dtype=np.int64)],
            table[np.asarray(candidates.second, dtype=np.int64)],
        )
    return _block_ordinals(candidates, ordinal)


class SchedulingEngine:
    """Comparison scheduling with an array and an object (oracle) engine.

    Parameters
    ----------
    scheduler:
        The progressive scheduler whose order is executed.  The array engine
        natively supports the exact library types listed in the module
        docstring; every other scheduler -- subclasses included, whose
        overridden behaviour the columnar path cannot see -- transparently
        falls back to its own ``schedule`` generator, so the engine is
        always safe to use.
    engine:
        ``"array"`` (default) or ``"object"``.

    Notes
    -----
    :attr:`last_engine` reports which engine actually produced the most
    recent schedule (``"array"`` or ``"object"``).
    """

    def __init__(self, scheduler: ProgressiveScheduler, engine: str = "array") -> None:
        if engine not in SCHEDULING_ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; available: {SCHEDULING_ENGINES}"
            )
        self.scheduler = scheduler
        self.engine = engine
        #: engine that actually produced the last schedule
        self.last_engine: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def feedback_free(self) -> bool:
        """Whether the scheduler's order cannot depend on match feedback.

        True when :meth:`ProgressiveScheduler.feedback` is not overridden --
        plus the one instance-level case the type check cannot see:
        :class:`ProgressiveBlockScheduler` with promotion disabled, whose
        overridden hook provably never changes the order.  Feedback-free
        schedules may be drained in batches; adaptive ones must stay on the
        draw-one/decide-one loop.
        """
        scheduler = self.scheduler
        if type(scheduler).feedback is ProgressiveScheduler.feedback:
            return True
        return (
            type(scheduler) is ProgressiveBlockScheduler
            and not scheduler.promote_on_match
        )

    def array_applicable(self, candidates: CandidateSource) -> bool:
        """Whether :meth:`schedule` will run on the array engine for this input."""
        if self.engine != "array":
            return False
        scheduler = self.scheduler
        kind = type(scheduler)
        columnar = isinstance(candidates, (ComparisonColumns, BlockCollection))
        if kind in (WeightOrderScheduler, RandomOrderScheduler):
            return columnar
        if kind is StaticOrderScheduler:
            return True
        if kind is SortedListScheduler:
            return candidates is None or columnar
        if kind is ProgressiveBlockScheduler:
            return not scheduler.promote_on_match and isinstance(
                candidates, BlockCollection
            )
        if kind is PartitionHierarchyScheduler:
            return scheduler.restrict_to_candidates and columnar
        return False

    # ------------------------------------------------------------------
    def schedule_rows(
        self, data: ERInput, candidates: CandidateSource
    ) -> Optional[ScheduledRows]:
        """The array schedule, or ``None`` when the object engine must run."""
        if not self.array_applicable(candidates):
            self.last_engine = "object"
            return None
        self.last_engine = "array"
        scheduler = self.scheduler
        kind = type(scheduler)
        if kind is WeightOrderScheduler:
            return self._rows_weight_order(candidates)
        if kind is RandomOrderScheduler:
            return self._rows_random(scheduler, candidates)
        if kind is StaticOrderScheduler:
            return self._rows_static(scheduler)
        if kind is SortedListScheduler:
            return self._rows_sorted_list(scheduler, data, candidates)
        if kind is PartitionHierarchyScheduler:
            return self._rows_partition_hierarchy(scheduler, data, candidates)
        return self._rows_progressive_blocks(candidates)

    def schedule(
        self, data: ERInput, candidates: CandidateSource
    ) -> Iterator[Comparison]:
        """The scheduled comparisons, whichever engine produces them."""
        rows = self.schedule_rows(data, candidates)
        if rows is None:
            return self.scheduler.schedule(data, candidates)
        return rows.comparisons()

    # ------------------------------------------------------------------
    # native array schedules
    # ------------------------------------------------------------------
    @staticmethod
    def _as_columns(candidates: CandidateSource) -> ComparisonColumns:
        if isinstance(candidates, ComparisonColumns):
            return candidates.deduplicated()
        return _columns_from_blocks(candidates)

    @staticmethod
    def _column_rows(columns: ComparisonColumns) -> Iterator[Row]:
        if columns.weights is None:
            for f, s in zip(columns.first, columns.second):
                yield f, s, None
        else:
            yield from zip(columns.first, columns.second, columns.weights)

    def _rows_weight_order(self, candidates: CandidateSource) -> ScheduledRows:
        columns = self._as_columns(candidates).weight_sorted()
        return ScheduledRows(
            columns.ids, self._column_rows(columns), columns.descriptions
        )

    def _rows_random(
        self, scheduler: RandomOrderScheduler, candidates: CandidateSource
    ) -> ScheduledRows:
        columns = self._as_columns(candidates)
        # rng.shuffle permutes by index swaps only, so shuffling the row
        # indices yields exactly the permutation the object path applies to
        # its materialised comparison list
        order = list(range(len(columns)))
        random.Random(scheduler.seed).shuffle(order)
        first = columns.first
        second = columns.second
        weights = columns.weights

        def rows() -> Iterator[Row]:
            for i in order:
                yield first[i], second[i], weights[i] if weights is not None else None

        return ScheduledRows(columns.ids, rows(), columns.descriptions)

    @staticmethod
    def _rows_static(scheduler: StaticOrderScheduler) -> ScheduledRows:
        intern = OrdinalInterner()

        def rows() -> Iterator[Row]:
            for comparison in scheduler.order:
                yield intern(comparison.first), intern(comparison.second), comparison.weight

        return ScheduledRows(intern.ids, rows())

    @staticmethod
    def _rows_sorted_list(
        scheduler: SortedListScheduler, data: ERInput, candidates: CandidateSource
    ) -> ScheduledRows:
        entries = sorted_order(data, scheduler.sorting_key)
        identifiers = [identifier for _, identifier in entries]
        n = len(identifiers)
        if n < 2:
            return ScheduledRows(identifiers, iter(()))

        allowed: Optional[Set[int]] = None
        if scheduler.restrict_to_candidates and candidates is not None:
            first, second = _candidate_ordinals(
                candidates, {identifier: i for i, identifier in enumerate(identifiers)}
            )
            # ``pair_code``'s packing; a pair naming an identifier outside
            # the data (ordinal -1) packs to a negative code, which no window
            # position pair produces
            allowed = set(
                ((np.minimum(first, second) << 32) | np.maximum(first, second)).tolist()
            )

        side = _left_flags(data, identifiers)
        limit = scheduler.max_distance if scheduler.max_distance is not None else n - 1

        def rows() -> Iterator[Row]:
            emitted: Set[int] = set()
            for distance in range(1, min(limit, n - 1) + 1):
                for index in range(0, n - distance):
                    partner = index + distance
                    if side is not None and side[index] == side[partner]:
                        continue
                    code = pair_code(index, partner)
                    if allowed is not None and code not in allowed:
                        continue
                    if code in emitted:
                        continue
                    emitted.add(code)
                    yield index, partner, None

        return ScheduledRows(identifiers, rows())

    @staticmethod
    def _rows_partition_hierarchy(
        scheduler: PartitionHierarchyScheduler,
        data: ERInput,
        candidates: CandidateSource,
    ) -> ScheduledRows:
        # the object generator enumerates every pair of every prefix
        # partition and then filters against the candidates; here each
        # distinct candidate pair is instead placed at the first (deepest)
        # level where both sorting-key prefixes agree, and one lexsort on the
        # generator's key -- (level, partition size, partition prefix, first,
        # second) -- yields exactly its order
        descriptions = list(data)
        ids = [description.identifier for description in descriptions]
        n = len(ids)
        keys = [
            scheduler.sorting_key(description).replace(" ", "")
            for description in descriptions
        ]
        first, second = _candidate_ordinals(
            candidates, {identifier: i for i, identifier in enumerate(ids)}
        )
        present = (first >= 0) & (second >= 0) & (first != second)
        first = first[present]
        second = second[present]

        # identifier ranks compare like the strings (object dtype: Python
        # ``str`` order, trailing NULs included); canonicalise and
        # deduplicate each pair as one packed rank code
        by_rank = np.argsort(np.array(ids, dtype=object), kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[by_rank] = np.arange(n, dtype=np.int64)
        rank_a = rank[first]
        rank_b = rank[second]
        codes = np.unique(
            np.minimum(rank_a, rank_b) * n + np.maximum(rank_a, rank_b)
        )
        low = by_rank[codes // n]
        high = by_rank[codes % n]
        side = _left_flags(data, ids)
        if side is not None:
            flags = np.array(side, dtype=bool)
            valid = flags[low] != flags[high]
            low = low[valid]
            high = high[valid]

        # an empty key never forms a partition (its code stays -1); the
        # unique codes of a level follow the sorted-prefix order in which the
        # generator visits equally sized partitions
        placed = np.flatnonzero([bool(key) for key in keys])
        placed_keys = [keys[i] for i in placed]
        code = np.full(n, -1, dtype=np.int64)
        pending = np.ones(len(low), dtype=bool)
        level = np.zeros(len(low), dtype=np.int64)
        partition = np.zeros(len(low), dtype=np.int64)
        size = np.zeros(len(low), dtype=np.int64)
        for depth, prefix_length in enumerate(scheduler._levels()):
            if not pending.any():
                break
            _, code[placed], counts = np.unique(
                np.array([key[:prefix_length] for key in placed_keys], dtype=object),
                return_inverse=True,
                return_counts=True,
            )
            code_low = code[low]
            hit = pending & (code_low >= 0) & (code_low == code[high])
            level[hit] = depth
            partition[hit] = code_low[hit]
            size[hit] = counts[code_low[hit]]
            pending &= ~hit

        keep = ~pending
        low = low[keep]
        high = high[keep]
        order = np.lexsort(
            (rank[high], rank[low], partition[keep], size[keep], level[keep])
        )
        rows = zip(low[order].tolist(), high[order].tolist(), repeat(None))
        return ScheduledRows(ids, rows, descriptions)

    @staticmethod
    def _rows_progressive_blocks(candidates: BlockCollection) -> ScheduledRows:
        ordered_blocks = sorted(
            candidates, key=lambda block: (block.num_comparisons(), block.key)
        )
        intern = OrdinalInterner()

        def rows() -> Iterator[Row]:
            seen: Set[int] = set()
            add = seen.add
            for block in ordered_blocks:
                for id_a, id_b in block.pairs():
                    a = intern(id_a)
                    b = intern(id_b)
                    code = pair_code(a, b)
                    if code in seen:
                        continue
                    add(code)
                    yield a, b, None

        return ScheduledRows(intern.ids, rows())
