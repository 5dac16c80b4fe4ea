"""Golden regression fixtures for blocking and block cleaning.

``tests/fixtures/blocking/*.json`` freezes the exact block collections the
legacy (oracle) builders and cleaners produce on the builtin datasets --
every supported builder, raw and after purging + filtering and after full
cleaning with comparison propagation.  Both engines must keep reproducing
these byte-identical block lists, so future optimisations of either engine
cannot silently change what blocking emits.

The fixtures were frozen *after* the attribute-clustering tokenisation fix
(clustering profiles now honour ``min_token_length``) and the
``max_block_fraction`` truncation fix, so they also pin those repaired
semantics.

Regenerating the fixtures (only when the blocking semantics change on
purpose): run this module as a script::

    PYTHONPATH=src python tests/test_blocking_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.blocking import BlockFiltering, BlockPurging, clean_blocks
from repro.blocking.engine import BlockingEngine
from repro.blocking.token_blocking import (
    AttributeClusteringBlocking,
    PrefixInfixSuffixBlocking,
    TokenBlocking,
)
from repro.datasets.builtin import load_census, load_restaurants

FIXTURES_DIR = Path(__file__).parent / "fixtures" / "blocking"

DATASETS = {"restaurants": load_restaurants, "census": load_census}
BUILDERS = {
    "token": lambda: TokenBlocking(),
    "token-limited": lambda: TokenBlocking(max_block_fraction=0.3),
    "prefix_infix_suffix": lambda: PrefixInfixSuffixBlocking(),
    "attribute_clustering": lambda: AttributeClusteringBlocking(),
}
CLEANING = {
    "raw": {},
    "cleaned": {"purging": BlockPurging(), "filtering": BlockFiltering(0.8)},
    "propagated": {
        "purging": BlockPurging(),
        "filtering": BlockFiltering(0.8),
        "propagate": True,
    },
}


def _serialise(blocks) -> list:
    return [
        [block.key, list(block.left_members), list(block.right_members)]
        if block.is_bilateral
        else [block.key, list(block.members)]
        for block in blocks
    ]


def _fixture(dataset_name: str) -> dict:
    path = FIXTURES_DIR / f"{dataset_name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("dataset_name", sorted(DATASETS))
def test_fixture_covers_all_combos(dataset_name):
    fixture = _fixture(dataset_name)
    expected = {f"{b}+{c}" for b in BUILDERS for c in CLEANING}
    assert set(fixture["combos"]) == expected


@pytest.mark.parametrize("engine", ("oracle", "index"))
@pytest.mark.parametrize("dataset_name", sorted(DATASETS))
def test_engines_reproduce_golden_output(dataset_name, engine):
    collection = DATASETS[dataset_name]().collection
    fixture = _fixture(dataset_name)
    for combo, frozen in fixture["combos"].items():
        builder_name, cleaning_name = combo.split("+")
        blocking = BlockingEngine(BUILDERS[builder_name](), engine=engine)
        blocks = blocking.clean(blocking.build(collection), **CLEANING[cleaning_name])
        assert _serialise(blocks) == frozen["blocks"], (
            f"{dataset_name}/{combo}/{engine}: block collection changed"
        )


def _regenerate() -> None:
    FIXTURES_DIR.mkdir(parents=True, exist_ok=True)
    for dataset_name, loader in DATASETS.items():
        collection = loader().collection
        combos = {}
        for builder_name, factory in BUILDERS.items():
            built = factory().build(collection)
            for cleaning_name, cleaning in CLEANING.items():
                blocks = clean_blocks(built, **cleaning)
                combos[f"{builder_name}+{cleaning_name}"] = {"blocks": _serialise(blocks)}
        payload = {
            "dataset": dataset_name,
            "note": (
                "frozen output of the legacy (oracle) builders and cleaners; "
                "regenerate only if the blocking semantics intentionally change"
            ),
            "combos": combos,
        }
        path = FIXTURES_DIR / f"{dataset_name}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    _regenerate()
