"""Property-based equivalence of the graph and entity-index meta-blocking engines.

For seeded random block collections -- dirty, clean--clean and mixed -- every
(weighting x pruning) combination must retain the *same comparison set* with
the *same weights* on the legacy object-graph engine (the oracle) and on the
array entity-index engine.

Through :class:`MetaBlocking` the weights are compared with a 1e-9
tolerance; driven directly, the index engine must also match exactly: both
engines compute per-edge weights with the same operand order and compute the
WEP/WNP thresholds with :func:`math.fsum`, whose exactly rounded result is
independent of accumulation order -- so even edges lying mathematically *on* a
threshold (common with ARCS on bilateral blocks) are resolved identically.

The random collections deliberately use identifiers whose lexicographic order
differs from their insertion order, so the canonical-pair handling of the
index engine (tie-breaks, ECBS/EJS factor ordering) is exercised for real.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.blocking.base import Block, BlockCollection
from repro.metablocking import MetaBlocking
from repro.metablocking.entity_index import EntityIndexEngine
from repro.metablocking.pruning import CardinalityEdgePruning, CardinalityNodePruning

WEIGHTING_SCHEMES = ("CBS", "ECBS", "JS", "EJS", "ARCS")
PRUNING_SCHEMES = ("WEP", "CEP", "WNP", "CNP", "ReciprocalWNP", "ReciprocalCNP")
SEEDS = (3, 11, 42, 97, 1234)


def _identifiers(rng: random.Random, count: int, prefix: str = "") -> List[str]:
    """Identifiers whose lexicographic order is decoupled from creation order."""
    letters = "zyxwvutsrqponmlkjihgfedcba"
    return [f"{prefix}{rng.choice(letters)}{rng.choice(letters)}:{i}" for i in range(count)]


def random_dirty_blocks(seed: int, num_entities: int = 40, num_blocks: int = 30) -> BlockCollection:
    rng = random.Random(seed)
    ids = _identifiers(rng, num_entities)
    collection = BlockCollection(name=f"dirty-{seed}")
    for b in range(num_blocks):
        size = rng.randint(1, 8)  # size-1 blocks are dropped by add(); intended
        collection.add(Block(f"b{b}", members=rng.sample(ids, min(size, len(ids)))))
    return collection


def random_bilateral_blocks(seed: int, per_side: int = 25, num_blocks: int = 25) -> BlockCollection:
    rng = random.Random(seed)
    left = _identifiers(rng, per_side, prefix="l")
    right = _identifiers(rng, per_side, prefix="r")
    collection = BlockCollection(name=f"clean-clean-{seed}")
    for b in range(num_blocks):
        left_members = rng.sample(left, rng.randint(0, 5))
        right_members = rng.sample(right, rng.randint(0, 5))
        if left_members or right_members:
            collection.add(Block(f"b{b}", left_members=left_members, right_members=right_members))
    return collection


def random_mixed_blocks(seed: int) -> BlockCollection:
    """Unilateral and bilateral blocks over an overlapping identifier pool."""
    rng = random.Random(seed)
    ids = _identifiers(rng, 30)
    collection = BlockCollection(name=f"mixed-{seed}")
    for b in range(24):
        if rng.random() < 0.5:
            collection.add(Block(f"b{b}", members=rng.sample(ids, rng.randint(2, 7))))
        else:
            shuffled = rng.sample(ids, rng.randint(2, 8))
            split = rng.randint(1, len(shuffled) - 1) if len(shuffled) > 1 else 1
            collection.add(
                Block(f"b{b}", left_members=shuffled[:split], right_members=shuffled[split:])
            )
    return collection


def _retained(metablocking: MetaBlocking, blocks: BlockCollection):
    return {(edge.first, edge.second): edge.weight for edge in metablocking.retained_edges(blocks)}


def _assert_engines_agree(blocks: BlockCollection, weighting: str, pruning) -> None:
    graph_mb = MetaBlocking(weighting, pruning, engine="graph")
    index_mb = MetaBlocking(weighting, pruning, engine="index")
    expected = _retained(graph_mb, blocks)
    actual = _retained(index_mb, blocks)
    assert graph_mb.last_engine == "graph"
    assert index_mb.last_engine == "index"
    assert expected.keys() == actual.keys(), (
        f"{weighting}+{pruning}: retained sets differ "
        f"(only graph: {sorted(set(expected) - set(actual))[:5]}, "
        f"only index: {sorted(set(actual) - set(expected))[:5]})"
    )
    for pair, weight in expected.items():
        assert actual[pair] == pytest.approx(weight, abs=1e-9), (weighting, pruning, pair)
    # the engines must also report identical statistics
    assert graph_mb.last_graph_edges == index_mb.last_graph_edges
    assert graph_mb.last_retained_edges == index_mb.last_retained_edges == len(actual)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("weighting", WEIGHTING_SCHEMES)
@pytest.mark.parametrize("pruning", PRUNING_SCHEMES)
def test_dirty_equivalence(seed, weighting, pruning):
    _assert_engines_agree(random_dirty_blocks(seed), weighting, pruning)


@pytest.mark.parametrize("seed", SEEDS[:3])
@pytest.mark.parametrize("weighting", WEIGHTING_SCHEMES)
@pytest.mark.parametrize("pruning", PRUNING_SCHEMES)
def test_clean_clean_equivalence(seed, weighting, pruning):
    _assert_engines_agree(random_bilateral_blocks(seed), weighting, pruning)


@pytest.mark.parametrize("seed", SEEDS[:3])
@pytest.mark.parametrize("weighting", WEIGHTING_SCHEMES)
@pytest.mark.parametrize("pruning", PRUNING_SCHEMES)
def test_mixed_equivalence(seed, weighting, pruning):
    _assert_engines_agree(random_mixed_blocks(seed), weighting, pruning)


@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize("weighting", ("CBS", "ARCS"))
@pytest.mark.parametrize("budget", (1, 5, 40, 10_000))
def test_custom_cep_budget_equivalence(seed, weighting, budget):
    blocks = random_dirty_blocks(seed)
    _assert_engines_agree(blocks, weighting, CardinalityEdgePruning(budget=budget))


@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize("weighting", ("ECBS", "EJS"))
@pytest.mark.parametrize("k", (1, 2, 7))
def test_custom_cnp_k_equivalence(seed, weighting, k):
    blocks = random_dirty_blocks(seed)
    _assert_engines_agree(blocks, weighting, CardinalityNodePruning(k=k))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("weighting", WEIGHTING_SCHEMES)
@pytest.mark.parametrize("pruning", PRUNING_SCHEMES)
def test_index_engine_is_bit_identical_to_the_graph_oracle(seed, weighting, pruning):
    """The entity-index engine, driven directly, reproduces the oracle exactly."""
    blocks = random_mixed_blocks(seed)
    graph_mb = MetaBlocking(weighting, pruning, engine="graph")
    expected = _retained(graph_mb, blocks)
    engine = EntityIndexEngine(blocks)
    actual = {
        (edge.first, edge.second): edge.weight
        for edge in engine.iter_retained(weighting, pruning)
    }
    assert actual == expected  # bit-for-bit, no tolerance
    assert engine.last_num_edges == graph_mb.last_graph_edges
    assert engine.last_retained == graph_mb.last_retained_edges
