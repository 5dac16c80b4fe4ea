"""Property-based equivalence of the oracle and index blocking engines.

For seeded random collections -- dirty and clean--clean -- every supported
builder x cleaning combination must produce the *same block collection* on
three execution paths:

* the legacy builders/cleaners (the oracle),
* the index engine with its NumPy fast path (when NumPy is present),
* the index engine's pure-Python fallback.

Equality is block for block: the same number of blocks, the same keys in the
same (deterministic) order, and the same member tuples -- including the
left/right split of bilateral blocks and the first-block-wins orientation of
propagated pair blocks.

The random collections deliberately use identifiers whose lexicographic
order differs from their insertion order (so canonical-pair handling is
exercised for real), URI-like identifiers (so prefix--infix--suffix keys
appear), accented and stop-word-heavy values, multi-valued attributes and
heterogeneous attribute names (so attribute clustering has real work to do).
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro.blocking import BlockFiltering, BlockPurging, clean_blocks
from repro.blocking.engine import BlockingEngine
from repro.blocking.token_blocking import (
    AttributeClusteringBlocking,
    PrefixInfixSuffixBlocking,
    TokenBlocking,
)
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription

SEEDS = (3, 11, 42, 97, 1234)

_VOCABULARY = (
    "alan turing grace hopper ada lovelace edsger dijkstra london paris "
    "new york cafe café münchen zürich the of at by a x kb mathematician "
    "scientist monument wall bridge tower 1912 1952 42 7 st ave"
).split()

_ATTRIBUTES = ("name", "label", "title", "city", "place", "venue", "note")


def _value(rng: random.Random) -> str:
    return " ".join(rng.choice(_VOCABULARY) for _ in range(rng.randint(1, 4)))


def _description(rng: random.Random, index: int, prefix: str) -> EntityDescription:
    letters = "zyxwvutsrqponmlkjihgfedcba"
    if rng.random() < 0.4:  # URI-like identifier, exercising the infix keys
        local = "_".join(rng.choice(_VOCABULARY) for _ in range(rng.randint(1, 2)))
        identifier = f"http://{prefix}kb{rng.choice(letters)}.org/resource/{local}:{index}"
    else:
        identifier = f"{prefix}{rng.choice(letters)}{rng.choice(letters)}:{index}"
    attributes = {}
    for attribute in rng.sample(_ATTRIBUTES, rng.randint(1, 4)):
        if rng.random() < 0.25:  # multi-valued attribute
            attributes[attribute] = [_value(rng), _value(rng)]
        else:
            attributes[attribute] = _value(rng)
    return EntityDescription(identifier, attributes)


def random_dirty_collection(seed: int, size: int = 40) -> EntityCollection:
    rng = random.Random(seed)
    return EntityCollection(
        [_description(rng, i, "") for i in range(size)], name=f"dirty-{seed}"
    )


def random_clean_clean_task(seed: int, per_side: int = 25) -> CleanCleanTask:
    rng = random.Random(seed)
    left = EntityCollection([_description(rng, i, "L") for i in range(per_side)], name="left")
    right = EntityCollection([_description(rng, i, "R") for i in range(per_side)], name="right")
    return CleanCleanTask(left, right)


BUILDERS = {
    "token": lambda: TokenBlocking(),
    "token-limited": lambda: TokenBlocking(max_block_fraction=0.25),
    "token-custom": lambda: TokenBlocking(stop_words=("the", "of"), min_token_length=1),
    "prefix_infix_suffix": lambda: PrefixInfixSuffixBlocking(),
    "attribute_clustering": lambda: AttributeClusteringBlocking(),
    "attribute_clustering-loose": lambda: AttributeClusteringBlocking(
        similarity_threshold=0.1, min_token_length=1
    ),
}

CLEANING = {
    "none": {},
    "purge": {"purging": BlockPurging()},
    "filter": {"filtering": BlockFiltering(0.6)},
    "propagate": {"propagate": True},
    "all": {"purging": BlockPurging(), "filtering": BlockFiltering(0.8), "propagate": True},
}


def snapshot(blocks) -> List[Tuple]:
    """Full structural snapshot: key order, member order, bilateral split."""
    return [
        (block.key, block.left_members, block.right_members)
        if block.is_bilateral
        else (block.key, block.members)
        for block in blocks
    ]


def _assert_engines_agree(data, builder_name: str, cleaning_name: str) -> None:
    oracle_builder = BUILDERS[builder_name]()
    oracle_blocks = oracle_builder.build(data)
    cleaning = CLEANING[cleaning_name]
    expected = snapshot(clean_blocks(oracle_blocks, **cleaning))

    engine = BlockingEngine(BUILDERS[builder_name](), engine="index")
    built = engine.build(data)
    assert engine.last_engine == "index", builder_name
    assert snapshot(built) == snapshot(oracle_blocks), builder_name
    cleaned = engine.clean(built, **cleaning)
    if cleaning:
        assert engine.last_engine == "index", (builder_name, cleaning_name)
    assert snapshot(cleaned) == expected, (builder_name, cleaning_name)

    # the oracle engine of BlockingEngine is the legacy path verbatim
    oracle_engine = BlockingEngine(BUILDERS[builder_name](), engine="oracle")
    assert snapshot(oracle_engine.build(data)) == snapshot(oracle_blocks)
    assert oracle_engine.last_engine == "oracle"
    assert snapshot(oracle_engine.clean(oracle_blocks, **cleaning)) == expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("builder_name", sorted(BUILDERS))
@pytest.mark.parametrize("cleaning_name", sorted(CLEANING))
def test_dirty_equivalence(seed, builder_name, cleaning_name):
    _assert_engines_agree(random_dirty_collection(seed), builder_name, cleaning_name)


@pytest.mark.parametrize("seed", SEEDS[:3])
@pytest.mark.parametrize("builder_name", sorted(BUILDERS))
@pytest.mark.parametrize("cleaning_name", sorted(CLEANING))
def test_clean_clean_equivalence(seed, builder_name, cleaning_name):
    _assert_engines_agree(random_clean_clean_task(seed), builder_name, cleaning_name)


@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize("ratio", (0.3, 0.5, 1.0))
def test_filtering_ratio_sweep(seed, ratio):
    """Tie-heavy filtering ratios: the stable ranking must match the oracle's."""
    data = random_dirty_collection(seed, size=60)
    blocks = TokenBlocking().build(data)
    expected = snapshot(BlockFiltering(ratio).process(blocks))
    engine = BlockingEngine(engine="index")
    assert snapshot(engine.clean(blocks, filtering=BlockFiltering(ratio))) == expected


@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize("fraction", (0.05, 0.1, 0.3, 0.9))
def test_max_block_fraction_sweep(seed, fraction):
    data = random_dirty_collection(seed, size=50)
    for factory in (
        lambda: TokenBlocking(max_block_fraction=fraction),
        lambda: AttributeClusteringBlocking(max_block_fraction=fraction),
    ):
        expected = snapshot(factory().build(data))
        engine = BlockingEngine(factory(), engine="index")
        assert snapshot(engine.build(data)) == expected


def test_builder_subclass_falls_back_to_oracle():
    """A subclass may override tokens_of; the index engine must not bypass it."""

    class FirstCharBlocking(TokenBlocking):
        def tokens_of(self, description):
            return {token[0] for token in super().tokens_of(description)}

    data = random_dirty_collection(5)
    engine = BlockingEngine(FirstCharBlocking(), engine="index")
    with pytest.warns(RuntimeWarning, match="FirstCharBlocking"):
        blocks = engine.build(data)
    assert engine.last_engine == "oracle"
    assert snapshot(blocks) == snapshot(FirstCharBlocking().build(data))


def test_cleaner_subclass_falls_back_to_oracle():
    class NoisyPurging(BlockPurging):
        def process(self, blocks):
            return super().process(blocks)

    data = random_dirty_collection(6)
    blocks = TokenBlocking().build(data)
    engine = BlockingEngine(engine="index")
    cleaned = engine.clean(blocks, purging=NoisyPurging())
    assert engine.last_engine == "oracle"
    assert snapshot(cleaned) == snapshot(NoisyPurging().process(blocks))
