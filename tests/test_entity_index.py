"""Edge cases of the array-backed entity-index engine and its pipeline wiring.

Covers the degenerate shapes the weighting schemes must survive: singleton
blocks, an entity appearing in every block, empty block collections and
clean--clean inputs without cross-source co-occurrence -- plus the engine
selection / fallback behaviour of :class:`MetaBlocking`.
"""

from __future__ import annotations

import math
import types

import pytest

from repro.blocking.base import Block, BlockCollection
from repro.metablocking import (
    CBS,
    EntityIndexEngine,
    MetaBlocking,
    WeightedNodePruning,
)
from repro.metablocking.weighting import WeightingScheme

WEIGHTING_SCHEMES = ("CBS", "ECBS", "JS", "EJS", "ARCS")
PRUNING_SCHEMES = ("WEP", "CEP", "WNP", "CNP", "ReciprocalWNP", "ReciprocalCNP")


def all_combo_runs(blocks):
    for weighting in WEIGHTING_SCHEMES:
        for pruning in PRUNING_SCHEMES:
            for engine in ("graph", "index"):
                metablocking = MetaBlocking(weighting, pruning, engine=engine)
                yield metablocking, metablocking.retained_edges(blocks)


class TestEmptyAndDegenerateCollections:
    def test_empty_block_collection(self):
        blocks = BlockCollection()
        for metablocking, retained in all_combo_runs(blocks):
            assert retained == []
            assert metablocking.last_graph_edges == 0
            assert metablocking.last_retained_edges == 0
        engine = EntityIndexEngine(blocks)
        assert engine.num_entities == 0
        assert engine.count_edges() == 0

    def test_singleton_blocks_are_dropped_and_produce_no_edges(self):
        blocks = BlockCollection()
        blocks.add(Block("s1", members=["a"]))
        blocks.add(Block("s2", members=["b"]))
        assert len(blocks) == 0  # singleton blocks induce no comparison
        for metablocking, retained in all_combo_runs(blocks):
            assert retained == []

    def test_blocks_with_only_one_bilateral_side_are_dropped(self):
        blocks = BlockCollection()
        blocks.add(Block("left-only", left_members=["l1", "l2"], right_members=[]))
        assert len(blocks) == 0
        for _metablocking, retained in all_combo_runs(blocks):
            assert retained == []


class TestEntityInEveryBlock:
    def make_blocks(self) -> BlockCollection:
        # "hub" co-occurs with everyone in every block
        return BlockCollection(
            [
                Block("b0", members=["hub", "a"]),
                Block("b1", members=["hub", "a", "b"]),
                Block("b2", members=["hub", "b", "c"]),
                Block("b3", members=["hub", "c"]),
            ]
        )

    def test_cbs_and_js_weights(self):
        blocks = self.make_blocks()
        engine = EntityIndexEngine(blocks)
        assert engine.node_blocks_count("hub") == len(blocks)
        retained = {
            (e.first, e.second): e.weight
            for e in engine.iter_retained("JS", "WNP")
        }
        # (hub, a): 2 shared blocks, hub in 4, a in 2 -> 2 / (4 + 2 - 2)
        assert retained[("a", "hub")] == pytest.approx(0.5)

    @pytest.mark.parametrize("weighting", WEIGHTING_SCHEMES)
    @pytest.mark.parametrize("pruning", PRUNING_SCHEMES)
    def test_engines_agree_on_hub_topology(self, weighting, pruning):
        blocks = self.make_blocks()
        expected = {
            (e.first, e.second): e.weight
            for e in MetaBlocking(weighting, pruning, engine="graph").retained_edges(blocks)
        }
        actual = {
            (e.first, e.second): e.weight
            for e in MetaBlocking(weighting, pruning, engine="index").retained_edges(blocks)
        }
        assert expected.keys() == actual.keys()
        for pair, weight in expected.items():
            assert actual[pair] == pytest.approx(weight, abs=1e-9)


class TestCleanCleanWithoutCrossCoOccurrence:
    def test_same_side_members_never_form_edges(self):
        blocks = BlockCollection(
            [Block("t", left_members=["l1", "l2"], right_members=["r1"])]
        )
        engine = EntityIndexEngine(blocks)
        retained = {(e.first, e.second) for e in engine.iter_retained("CBS", "WNP")}
        assert retained == {("l1", "r1"), ("l2", "r1")}
        assert ("l1", "l2") not in retained
        assert engine.count_edges() == 2

    def test_disjoint_sources_yield_no_comparisons(self):
        # every block holds members of one source only -> dropped on add()
        blocks = BlockCollection()
        blocks.add(Block("a-only", left_members=["a1", "a2"], right_members=[]))
        blocks.add(Block("b-only", left_members=[], right_members=["b1", "b2"]))
        assert len(blocks) == 0
        for metablocking, retained in all_combo_runs(blocks):
            assert retained == []
            assert metablocking.last_graph_edges == 0

    def test_mixed_unilateral_and_bilateral_blocks(self):
        blocks = BlockCollection(
            [
                Block("bi", left_members=["a", "b"], right_members=["c"]),
                Block("uni", members=["a", "b"]),
            ]
        )
        engine = EntityIndexEngine(blocks)
        retained = {
            (e.first, e.second): e.weight for e in engine.iter_retained("CBS", "WNP")
        }
        # (a, b) co-occur same-side in "bi" (no edge) but share "uni" (1 block)
        assert retained.get(("a", "b")) == pytest.approx(1.0)
        assert retained.get(("a", "c")) == pytest.approx(1.0)


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            MetaBlocking("CBS", "WNP", engine="quantum")

    def test_unknown_schemes_rejected_by_index_engine(self):
        engine = EntityIndexEngine(BlockCollection([Block("b", members=["a", "b"])]))
        with pytest.raises(KeyError):
            list(engine.iter_retained("nope", "WNP"))
        with pytest.raises(KeyError):
            list(engine.iter_retained("CBS", "nope"))

    def test_negative_cep_budget_rejected_everywhere(self):
        # a silently clamped/sliced negative budget would make the engines
        # diverge; both reject it instead
        from repro.metablocking.pruning import CardinalityEdgePruning

        with pytest.raises(ValueError):
            CardinalityEdgePruning(budget=-1)
        engine = EntityIndexEngine(BlockCollection([Block("b", members=["a", "b"])]))
        with pytest.raises(ValueError):
            engine.iter_retained("CBS", "CEP", budget=-1)

    def test_bilateral_self_pair_raises_like_graph_engine(self):
        # same identifier on both sides of a bilateral block: the graph engine
        # raises via canonical_pair, so the index engine must raise too
        blocks = BlockCollection(
            [Block("t", left_members=["x", "a"], right_members=["x", "b"])]
        )
        with pytest.raises(ValueError, match="'x' twice"):
            MetaBlocking("CBS", "WNP", engine="graph").retained_edges(blocks)
        with pytest.raises(ValueError, match="'x' twice"):
            MetaBlocking("CBS", "WNP", engine="index").retained_edges(blocks)

    def test_custom_weighting_scheme_falls_back_to_graph(self):
        class Constant(WeightingScheme):
            name = "constant"

            def weight(self, graph, first, second):
                return 1.0

        blocks = BlockCollection([Block("b", members=["a", "b", "c"])])
        metablocking = MetaBlocking(Constant(), WeightedNodePruning(), engine="index")
        retained = metablocking.retained_edges(blocks)
        assert metablocking.last_engine == "graph"
        assert len(retained) == 3
        assert all(edge.weight == 1.0 for edge in retained)

    def test_standard_schemes_run_on_index_engine(self):
        blocks = BlockCollection([Block("b", members=["a", "b", "c"])])
        metablocking = MetaBlocking(CBS(), WeightedNodePruning(), engine="index")
        metablocking.retained_edges(blocks)
        assert metablocking.last_engine == "index"

    def test_iter_retained_is_lazy(self):
        blocks = BlockCollection([Block("b", members=["a", "b", "c", "d"])])
        metablocking = MetaBlocking("CBS", "WNP", engine="index")
        iterator = metablocking.iter_retained(blocks)
        assert isinstance(iterator, types.GeneratorType)
        first = next(iterator)
        assert first.weight > 0
        remaining = list(iterator)
        assert metablocking.last_retained_edges == 1 + len(remaining)


class TestWeightingEdgeCaseValues:
    def test_two_member_universe(self):
        blocks = BlockCollection([Block("only", members=["x", "y"])])
        for weighting in WEIGHTING_SCHEMES:
            edges = list(EntityIndexEngine(blocks).iter_retained(weighting, "WEP"))
            assert len(edges) == 1
            assert edges[0].pair == ("x", "y")
            assert edges[0].weight > 0
            assert math.isfinite(edges[0].weight)

    def test_arcs_uses_block_cardinality(self):
        blocks = BlockCollection(
            [
                Block("small", members=["x", "y"]),  # 1 comparison
                Block("big", members=["x", "y", "z", "w"]),  # 6 comparisons
            ]
        )
        retained = {
            (e.first, e.second): e.weight
            for e in EntityIndexEngine(blocks).iter_retained("ARCS", "CNP")
        }
        assert retained[("x", "y")] == pytest.approx(1.0 + 1.0 / 6.0)
