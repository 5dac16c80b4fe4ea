"""End-to-end meta-blocking: block collection in, restructured comparisons out.

:class:`MetaBlocking` wires together a weighting scheme, a pruning scheme and
one of two execution engines:

* ``engine="index"`` (the default) -- the array-backed
  :class:`~repro.metablocking.entity_index.EntityIndexEngine`, which streams
  over CSR block-membership arrays and never materialises pruned edges;
* ``engine="graph"`` -- the legacy object
  :class:`~repro.metablocking.graph.BlockingGraph`, kept as the readable
  reference implementation and as the test oracle of the equivalence suite.

Both engines retain the same comparisons for every (weighting x pruning)
combination; the index engine falls back to the graph engine automatically
when custom (user-defined) scheme instances are supplied, since only the five
standard weighting and six standard pruning schemes have streaming
implementations.

The output can be consumed in three forms:

* :meth:`MetaBlocking.iter_retained` -- a lazy generator of retained
  :class:`~repro.metablocking.graph.WeightedEdge` objects;
* :meth:`MetaBlocking.weighted_comparisons` -- the retained edges as weighted
  :class:`~repro.datamodel.pairs.Comparison` objects, heaviest first (the
  natural input of a progressive scheduler);
* :meth:`MetaBlocking.process` -- a restructured
  :class:`~repro.blocking.base.BlockCollection` with one (two-member) block
  per retained edge (the natural input of a conventional matching phase).
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Tuple, Union

from repro.blocking.base import Block, BlockCollection
from repro.datamodel.collection import CleanCleanTask
from repro.datamodel.pairs import Comparison, ComparisonColumns, OrdinalInterner
from repro.metablocking.entity_index import EntityIndexEngine
from repro.metablocking.graph import BlockingGraph, WeightedEdge
from repro.metablocking.pruning import (
    CardinalityEdgePruning,
    CardinalityNodePruning,
    PruningScheme,
    ReciprocalCardinalityNodePruning,
    ReciprocalWeightedNodePruning,
    WeightedEdgePruning,
    WeightedNodePruning,
    get_pruning_scheme,
)
from repro.metablocking.weighting import (
    ARCS,
    CBS,
    ECBS,
    EJS,
    JS,
    WeightingScheme,
    get_weighting_scheme,
)

ENGINES = ("index", "graph")

_INDEX_WEIGHTINGS = {CBS: "CBS", ECBS: "ECBS", JS: "JS", EJS: "EJS", ARCS: "ARCS"}


class MetaBlocking:
    """Meta-blocking pipeline with pluggable weighting, pruning and engine.

    Parameters
    ----------
    weighting:
        A :class:`WeightingScheme` instance or its name (``"CBS"``, ``"ECBS"``,
        ``"JS"``, ``"EJS"``, ``"ARCS"``).
    pruning:
        A :class:`PruningScheme` instance or its name (``"WEP"``, ``"CEP"``,
        ``"WNP"``, ``"CNP"``, ``"ReciprocalWNP"``, ``"ReciprocalCNP"``).
    engine:
        ``"index"`` (default) for the array-backed streaming engine,
        ``"graph"`` for the legacy object-graph engine.
    """

    def __init__(
        self,
        weighting: Union[WeightingScheme, str, None] = None,
        pruning: Union[PruningScheme, str, None] = None,
        engine: str = "index",
    ) -> None:
        if weighting is None:
            self.weighting: WeightingScheme = CBS()
        elif isinstance(weighting, str):
            self.weighting = get_weighting_scheme(weighting)
        else:
            self.weighting = weighting
        if pruning is None:
            self.pruning: PruningScheme = WeightedEdgePruning()
        elif isinstance(pruning, str):
            self.pruning = get_pruning_scheme(pruning)
        else:
            self.pruning = pruning
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; available: {ENGINES}")
        self.engine = engine
        #: statistics of the last run, reported by benchmarks; populated
        #: identically by both engines once the output has been consumed
        self.last_input_comparisons = 0
        self.last_graph_edges = 0
        self.last_retained_edges = 0
        #: engine that actually executed the last run ("index", "graph", or
        #: "parallel" when a ParallelEngine fed the index engine's weights)
        self.last_engine: Optional[str] = None

    @property
    def name(self) -> str:
        return f"metablocking[{self.weighting.name}+{self.pruning.name}]"

    # ------------------------------------------------------------------
    def build_graph(self, blocks: BlockCollection) -> BlockingGraph:
        """Construct the (legacy) blocking graph of ``blocks``."""
        return BlockingGraph(blocks)

    def _index_spec(self) -> Optional[Tuple[str, str, dict]]:
        """(weighting, pruning, kwargs) when the index engine applies, else ``None``.

        Exact type checks keep user-defined subclasses (whose overridden
        behaviour the streaming engine cannot replicate) on the graph engine.
        """
        weighting_name = _INDEX_WEIGHTINGS.get(type(self.weighting))
        if weighting_name is None:
            return None
        pruning = self.pruning
        pruning_type = type(pruning)
        if pruning_type is WeightedEdgePruning:
            return weighting_name, "WEP", {}
        if pruning_type is CardinalityEdgePruning:
            return weighting_name, "CEP", {"budget": pruning.budget}
        if pruning_type is WeightedNodePruning:
            return weighting_name, "WNP", {}
        if pruning_type is ReciprocalWeightedNodePruning:
            return weighting_name, "ReciprocalWNP", {}
        if pruning_type is CardinalityNodePruning:
            return weighting_name, "CNP", {"k": pruning.k}
        if pruning_type is ReciprocalCardinalityNodePruning:
            return weighting_name, "ReciprocalCNP", {"k": pruning.k}
        return None

    # ------------------------------------------------------------------
    def iter_retained(
        self, blocks: BlockCollection, parallel=None
    ) -> Iterator[WeightedEdge]:
        """Lazily yield the edges surviving the pruning scheme.

        With the index engine, pruned edges are never materialised and peak
        memory stays proportional to the largest node neighbourhood.  The
        last-run statistics are populated once the generator is exhausted.

        ``parallel`` (a :class:`~repro.mapreduce.parallel.ParallelEngine`)
        fans the node-weight streams of the index engine out to worker
        processes over shared-memory views of the CSR index; the pruning
        passes and the retained edges are bit-identical either way.  It is
        ignored on the graph engine (custom schemes have no columnar
        formulation) and for empty collections.
        """
        self.last_input_comparisons = blocks.total_comparisons()
        self.last_graph_edges = 0
        self.last_retained_edges = 0
        spec = self._index_spec() if self.engine == "index" else None
        if spec is not None:
            weighting_name, pruning_name, kwargs = spec
            index = EntityIndexEngine(blocks)
            if parallel is not None:
                # worker-side per-node selection: only retained edges cross
                # the process boundary; bit-identical to the sequential pass
                pooled = parallel.retained_edges(index, weighting_name, pruning_name, **kwargs)
                if pooled is not None:
                    self.last_engine = "parallel"
                    yield from pooled
                    self.last_graph_edges = index.last_num_edges or 0
                    self.last_retained_edges = index.last_retained or 0
                    return
            self.last_engine = "index"
            yield from index.iter_retained(weighting_name, pruning_name, **kwargs)
            self.last_graph_edges = index.last_num_edges or 0
            self.last_retained_edges = index.last_retained or 0
        else:
            self.last_engine = "graph"
            graph = self.build_graph(blocks)
            self.last_graph_edges = graph.num_edges
            retained = self.pruning.prune(graph, self.weighting)
            self.last_retained_edges = len(retained)
            yield from retained

    def retained_edges(self, blocks: BlockCollection) -> List[WeightedEdge]:
        """Weight the graph and return the edges surviving the pruning scheme."""
        return list(self.iter_retained(blocks))

    def weighted_comparisons(self, blocks: BlockCollection) -> List[Comparison]:
        """The retained edges as weighted comparisons, heaviest first.

        Ordering is fully deterministic: ties in weight are broken by the
        canonical (lexicographic) identifier pair.
        """
        edges = self.retained_edges(blocks)
        edges.sort(key=lambda e: (-e.weight, e.first, e.second))
        return [edge.as_comparison() for edge in edges]

    def weighted_columns(
        self, blocks: BlockCollection, context=None, parallel=None
    ) -> ComparisonColumns:
        """The retained edges as :class:`ComparisonColumns`, heaviest first.

        Row-for-row the same comparisons, in the same order (including the
        identifier tie-break at equal weights), as
        :meth:`weighted_comparisons` -- but as flat ordinal/weight arrays
        instead of per-edge objects, the natural input of the array
        scheduling engine.  With a shared ``context`` the ordinal space is
        the context's (and the columns carry its resolved description
        table); otherwise identifiers are interned locally.  ``parallel``
        is forwarded to :meth:`iter_retained`.
        """
        first = array("q")
        second = array("q")
        weights = array("d")
        if context is not None:
            ids = context.ids
            ordinal_of = context.ordinal
            descriptions = context.descriptions
            for edge in self.iter_retained(blocks, parallel=parallel):
                left = ordinal_of(edge.first)
                right = ordinal_of(edge.second)
                if left is None or right is None:
                    raise KeyError(
                        "the supplied pipeline context does not cover identifier "
                        f"{(edge.first if left is None else edge.second)!r}; it was "
                        "built for a different collection than these blocks"
                    )
                first.append(left)
                second.append(right)
                weights.append(edge.weight)
        else:
            intern = OrdinalInterner()
            ids = intern.ids
            descriptions = None
            for edge in self.iter_retained(blocks, parallel=parallel):
                first.append(intern(edge.first))
                second.append(intern(edge.second))
                weights.append(edge.weight)
        columns = ComparisonColumns(
            ids, first, second, weights, descriptions=descriptions, distinct=True
        )
        return columns.weight_sorted()

    def process(
        self,
        blocks: BlockCollection,
        data: Optional[CleanCleanTask] = None,
    ) -> BlockCollection:
        """Return a restructured block collection: one block per retained edge.

        When ``data`` is a clean--clean task the blocks are bilateral so that
        downstream components keep treating the comparisons as
        cross-collection ones.
        """
        restructured = BlockCollection(name=self.name)
        bilateral = data is not None and isinstance(data, CleanCleanTask)
        for edge in self.iter_retained(blocks):
            key = f"edge:{edge.first}|{edge.second}"
            if bilateral:
                if edge.first in data.left:
                    restructured.add(
                        Block(key, left_members=[edge.first], right_members=[edge.second])
                    )
                else:
                    restructured.add(
                        Block(key, left_members=[edge.second], right_members=[edge.first])
                    )
            else:
                restructured.add(Block(key, members=[edge.first, edge.second]))
        return restructured
