"""Array-backed clustering engine.

Clustering was the last per-object phase of the workflow tail: every run
materialised a ``MatchDecision`` per declared match only to feed a
string-keyed union--find.  :class:`ClusteringEngine` executes the same three
library algorithms over the flat ordinal columns of a
:class:`~repro.datamodel.pairs.DecisionColumns`, following the established
two-engine pattern of the blocking, meta-blocking, matching and scheduling
phases:

* ``engine="array"`` (the default) -- the library algorithms run natively on
  columns:

  - :class:`~repro.matching.clustering.ConnectedComponentsClustering` is one
    :class:`~repro.core.unionfind.IntUnionFind` pass over the positive rows
    (path halving, first-root-wins -- the exact union rule of the oracle);
  - :class:`~repro.matching.clustering.CenterClustering` and
    :class:`~repro.matching.clustering.MergeCenterClustering` first order the
    positive rows heaviest-first with one ``lexsort``/argsort over the
    ``(similarity, first, second)`` columns -- similarity ties break on the
    identifier ranks, exactly the oracle's ``(-weight, first, second)`` sort
    key (see :func:`~repro.datamodel.pairs.identifier_ranks`) -- and then
    replay the greedy scan over flat assignment/center arrays.

  Cluster output is bit-identical to the oracle: the same frozensets in the
  same list order (clusters appear in first-assignment order of their
  members, which the array engine tracks explicitly).

* ``engine="object"`` -- delegates to the algorithm's own
  :meth:`~repro.matching.clustering.ClusteringAlgorithm.cluster`, which
  remains the readable reference implementation and the oracle of the
  equivalence suite (``tests/test_clustering_engine.py``).

Custom :class:`~repro.matching.clustering.ClusteringAlgorithm` subclasses --
including subclasses of the three library algorithms, whose overridden
behaviour the columnar path cannot see -- transparently fall back to the
object path; :class:`DecisionColumns` materialises bit-identical decision
objects lazily, so the fallback never needs a conversion step.
"""

from __future__ import annotations

from array import array
from typing import FrozenSet, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.core.unionfind import IntUnionFind
from repro.datamodel.pairs import DecisionColumns, identifier_ranks
from repro.matching.clustering import (
    CenterClustering,
    ClusteringAlgorithm,
    ConnectedComponentsClustering,
    MergeCenterClustering,
)
from repro.matching.matchers import MatchDecision

#: Execution engines of the clustering phase.
CLUSTERING_ENGINES = ("array", "object")

#: Library algorithms the array engine replicates (exact types; subclasses
#: fall back to their own ``cluster``).
_ARRAY_ALGORITHMS = (
    ConnectedComponentsClustering,
    CenterClustering,
    MergeCenterClustering,
)


class ClusteringEngine:
    """Match-decision clustering with an array and an object (oracle) engine.

    Parameters
    ----------
    algorithm:
        The clustering algorithm whose clusters are computed.  The array
        engine natively supports the three library algorithms (exact types);
        every other algorithm -- subclasses included -- transparently falls
        back to its own ``cluster`` method, so the engine is always safe to
        use.
    engine:
        ``"array"`` (default) or ``"object"``.
    parallel:
        Optional :class:`~repro.mapreduce.parallel.ParallelEngine`.  The
        connected-components union--find then runs as per-shard passes over
        shared-memory row ranges, merged on the driver -- bit-identical
        clusters in the identical list order.  The center algorithms are
        inherently sequential greedy scans and ignore it.

    Notes
    -----
    :attr:`last_engine` reports which engine actually produced the most
    recent clusters (``"array"``, ``"object"``, or ``"parallel"`` when the
    pooled union--find ran).
    """

    def __init__(
        self,
        algorithm: ClusteringAlgorithm,
        engine: str = "array",
        parallel=None,
    ) -> None:
        if engine not in CLUSTERING_ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; available: {CLUSTERING_ENGINES}"
            )
        self.algorithm = algorithm
        self.engine = engine
        self.parallel = parallel
        #: engine that actually produced the last clusters
        self.last_engine: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def array_applicable(self) -> bool:
        """Whether the array engine can replicate the configured algorithm.

        An exact type check, like every other engine dispatch in the
        library: subclasses may override ``cluster`` in ways the columnar
        path cannot see, so they stay on the object oracle.
        """
        return self.engine == "array" and type(self.algorithm) in _ARRAY_ALGORITHMS

    def cluster(
        self, decisions: Union[DecisionColumns, Iterable[MatchDecision]]
    ) -> List[FrozenSet[str]]:
        """Cluster ``decisions``; same contract as ``algorithm.cluster``.

        Accepts either a :class:`DecisionColumns` (clustered natively on the
        array engine) or any iterable of decision objects (interned into
        columns first).  The object engine -- and every fallback -- receives
        the decisions unchanged; a :class:`DecisionColumns` input then
        materialises its decision objects lazily through the oracle bridge.
        """
        if not self.array_applicable:
            self.last_engine = "object"
            return self.algorithm.cluster(decisions)
        self.last_engine = "array"
        if not isinstance(decisions, DecisionColumns):
            decisions = DecisionColumns.from_decisions(decisions)
        kind = type(self.algorithm)
        if kind is ConnectedComponentsClustering:
            return self._cluster_connected(decisions)
        if kind is CenterClustering:
            return self._cluster_center(decisions)
        return self._cluster_merge_center(decisions)

    # ------------------------------------------------------------------
    # native array algorithms
    # ------------------------------------------------------------------
    @staticmethod
    def _canonical_rows(columns: DecisionColumns):
        """The ordinal columns with every row in canonical orientation.

        The oracle algorithms read ``decision.pair``, which always presents
        the lexicographically smaller identifier first; decision columns may
        instead store the *execution* orientation (``decide_columns``, the
        runner's ``keep_decisions`` drain).  Rows are swapped where needed so
        the edge sort and the greedy scans see exactly the oracle's pairs.
        """
        ids = columns.ids
        first = columns.first
        second = columns.second
        for f, s in zip(first, second):
            if ids[f] > ids[s]:
                break
        else:
            return first, second  # already canonical (the common case)
        first = array("q", first)
        second = array("q", second)
        for index, (f, s) in enumerate(zip(first, second)):
            if ids[f] > ids[s]:
                first[index] = s
                second[index] = f
        return first, second

    @staticmethod
    def _group_by_root(
        links: IntUnionFind, order: Sequence[int], ids: Sequence[str]
    ) -> List[FrozenSet[str]]:
        """Clusters of the ``order``-ed ordinals, grouped by union-find root.

        Enumerating the touched ordinals in first-touch order and the roots
        in first-appearance order replicates the oracle's insertion-ordered
        ``parent`` dict walk exactly.
        """
        groups: dict = {}
        for ordinal in order:
            groups.setdefault(links.find(ordinal), []).append(ordinal)
        return [
            frozenset(ids[member] for member in members)
            for members in groups.values()
        ]

    def _cluster_connected(self, columns: DecisionColumns) -> List[FrozenSet[str]]:
        ids = columns.ids
        first, second = self._canonical_rows(columns)
        if self.parallel is not None:
            # per-shard union--find passes merged on the driver; the merge
            # replays shard-local first-touch order range by range, which for
            # contiguous row shards equals the sequential first-touch order
            pooled = self.parallel.cluster_links(
                first, second, columns.is_match, len(ids)
            )
            if pooled is not None:
                self.last_engine = "parallel"
                links, order = pooled
                return self._group_by_root(links, order, ids)
        links = IntUnionFind(len(ids))
        touched = bytearray(len(ids))
        order: List[int] = []
        for f, s, flag in zip(first, second, columns.is_match):
            if not flag:
                continue
            if not touched[f]:
                touched[f] = 1
                order.append(f)
            if not touched[s]:
                touched[s] = 1
                order.append(s)
            links.union(f, s)
        return self._group_by_root(links, order, ids)

    def _positive_edges_heaviest_first(
        self, columns: DecisionColumns, first, second
    ) -> Sequence[int]:
        """Row indices of the positive decisions, heaviest-first.

        Descending similarity, ties broken by the identifier ranks of the
        canonical pair -- the exact oracle sort key
        ``(-similarity, first, second)`` (``first``/``second`` are the
        canonical-orientation columns of :meth:`_canonical_rows`; rank
        comparison equals string comparison).
        """
        positive = np.flatnonzero(np.frombuffer(columns.is_match, dtype=np.uint8))
        if not len(positive):
            return ()
        rank = identifier_ranks(columns.ids)
        first = np.frombuffer(first, dtype=np.int64)[positive]
        second = np.frombuffer(second, dtype=np.int64)[positive]
        similarity = np.frombuffer(columns.similarity, dtype=np.float64)[positive]
        order = np.lexsort((rank[second], rank[first], -similarity))
        return positive[order].tolist()

    def _cluster_center(self, columns: DecisionColumns) -> List[FrozenSet[str]]:
        ids = columns.ids
        first, second = self._canonical_rows(columns)
        # center ordinal per assigned node, -1 while unassigned
        cluster_of = array("q", [-1]) * len(ids)
        is_center = bytearray(len(ids))
        order: List[int] = []  # nodes in assignment order, like the oracle dict

        for row in self._positive_edges_heaviest_first(columns, first, second):
            f = first[row]
            s = second[row]
            assigned_first = cluster_of[f] >= 0
            assigned_second = cluster_of[s] >= 0
            if not assigned_first and not assigned_second:
                cluster_of[f] = f
                is_center[f] = 1
                cluster_of[s] = f
                order.append(f)
                order.append(s)
            elif assigned_first and not assigned_second:
                if is_center[f]:
                    cluster_of[s] = f
                else:
                    cluster_of[s] = s
                    is_center[s] = 1
                order.append(s)
            elif assigned_second and not assigned_first:
                if is_center[s]:
                    cluster_of[f] = s
                else:
                    cluster_of[f] = f
                    is_center[f] = 1
                order.append(f)
            # both assigned: the edge is ignored

        groups: dict = {}
        for node in order:
            groups.setdefault(cluster_of[node], []).append(node)
        return [
            frozenset(ids[member] for member in members)
            for members in groups.values()
        ]

    def _cluster_merge_center(self, columns: DecisionColumns) -> List[FrozenSet[str]]:
        ids = columns.ids
        first, second = self._canonical_rows(columns)
        links = IntUnionFind(len(ids))
        is_center = bytearray(len(ids))
        assigned = bytearray(len(ids))
        order: List[int] = []

        for row in self._positive_edges_heaviest_first(columns, first, second):
            f = first[row]
            s = second[row]
            assigned_first = assigned[f]
            assigned_second = assigned[s]
            if not assigned_first and not assigned_second:
                is_center[f] = 1
                assigned[f] = 1
                assigned[s] = 1
                order.append(f)
                order.append(s)
                links.union(f, s)
            elif assigned_first and not assigned_second:
                assigned[s] = 1
                order.append(s)
                links.union(f, s)
            elif assigned_second and not assigned_first:
                assigned[f] = 1
                order.append(f)
                links.union(s, f)
            else:
                # both assigned: merge only if both are centers
                if is_center[f] and is_center[s] and links.find(f) != links.find(s):
                    links.union(f, s)

        return self._group_by_root(links, order, ids)
