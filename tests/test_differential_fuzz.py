"""Differential fuzzing: production engines against reference engines.

Generated collections run through :meth:`ERWorkflow.run` twice -- once on
the default (array/index/batch) engines and once on the reference engines
(oracle blocking, graph meta-blocking, object scheduling, pairwise matching,
object clustering, no shared context) -- and through
:meth:`ERWorkflow.run_incremental` on the array and the object incremental
engines.  Both sides must declare the same matches in the same order, form
the same clusters and execute the same number of comparisons.

The inputs deliberately hit the collection boundary's corner cases: mixed
sources, empty and whitespace-only values, non-string values, Unicode
variants of the same word, clean--clean tasks whose sides overlap in
content, empty collections and rejected duplicate identifiers.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import WorkflowConfig
from repro.core.workflow import ERWorkflow
from repro.datamodel.collection import CleanCleanTask, EntityCollection
from repro.datamodel.description import EntityDescription

_FUZZ = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_REFERENCE = dict(
    blocking_engine="oracle",
    metablocking_engine="graph",
    scheduling_engine="object",
    matching_engine="pairwise",
    clustering_engine="object",
    shared_context=False,
)

# a small vocabulary so that generated descriptions share tokens (and hence
# blocks, candidate pairs and matches); it carries Unicode variants of the
# same word -- composed/decomposed accents, case, ligatures, full-width forms
_WORDS = [
    "alan", "turing", "london", "grace", "hopper", "york", "data", "web",
    "caf\u00e9", "cafe\u0301", "CAF\u00c9", "stra\u00dfe", "STRASSE", "\ufb01le", "file",
    "\uff37\uff45\uff42", "na\u00efve", "naive", "\u6771\u4eac", "\u0394elta",
]
_BLANKS = ["", " ", "   ", "\t", "\n \t"]
_ATTRIBUTES = ["name", "title", "city", "label", "year", "note"]
_SOURCES = [None, "kbA", "kbB", "web"]

_words = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4).map(" ".join)
_values = st.one_of(
    _words,
    _words,
    st.sampled_from(_BLANKS),
    st.integers(min_value=-50, max_value=2020),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False).map(lambda x: round(x, 2)),
    st.lists(st.one_of(_words, st.sampled_from(_BLANKS), st.integers(0, 9), st.none()), max_size=3),
    st.none(),
)
_attributes = st.dictionaries(st.sampled_from(_ATTRIBUTES), _values, max_size=4)


@st.composite
def _descriptions(draw, prefix: str, max_size: int = 12):
    """Descriptions with unique identifiers, some of them near-copies of others."""
    count = draw(st.integers(min_value=0, max_value=max_size))
    made = []
    for index in range(count):
        if made and draw(st.booleans()):
            # a duplicate: copy an earlier description's attributes, then
            # perturb one of them so the pair is similar but not equal
            base = made[draw(st.integers(0, len(made) - 1))]
            attributes = {name: list(values) for name, values in base.attributes.items()}
            attributes[draw(st.sampled_from(_ATTRIBUTES))] = draw(_values)
        else:
            attributes = draw(_attributes)
        made.append(
            EntityDescription(
                f"{prefix}{index}", attributes, source=draw(st.sampled_from(_SOURCES))
            )
        )
    return made


@st.composite
def _dirty(draw):
    return EntityCollection(draw(_descriptions("d:")), name="fuzz")


@st.composite
def _clean_clean(draw):
    left = draw(_descriptions("L:", max_size=8))
    # the right side re-describes some left entities (cross-side overlap)
    right = [
        EntityDescription(f"R:{index}", dict(description.attributes), source="kbB")
        for index, description in enumerate(left)
        if draw(st.booleans())
    ]
    right += draw(_descriptions(f"R:{len(right)}_", max_size=4))
    return CleanCleanTask(EntityCollection(left, "left"), EntityCollection(right, "right"))


_inputs = st.one_of(_dirty(), _clean_clean())

_configs = st.builds(
    WorkflowConfig,
    blocking=st.sampled_from(
        [
            "token",
            "attribute_clustering",
            "prefix_infix_suffix",
            "qgrams",
            "sorted_neighborhood",
            "similarity_join",
            "minhash_lsh",
            "canopy",
        ]
    ),
    enable_metablocking=st.booleans(),
    pruning_scheme=st.sampled_from(["WNP", "CNP", "WEP"]),
    scheduler=st.sampled_from(["weight_order", "hierarchy", "sorted_list"]),
    use_tfidf=st.booleans(),
    match_threshold=st.sampled_from([0.3, 0.55]),
    iterate_merges=st.booleans(),
    clustering=st.sampled_from(["connected_components", "center", "merge_center"]),
)


def _outcome(result):
    return (
        sorted(sorted(cluster) for cluster in result.clusters),
        list(result.matches),
        result.comparisons_executed,
    )


# q-grams has no index build: both sides run the oracle build (warned once)
@pytest.mark.filterwarnings("ignore:blocking scheme QGramsBlocking")
@given(data=_inputs, config=_configs)
@_FUZZ
def test_default_engines_match_reference_engines(data, config):
    production = ERWorkflow(config).run(data)
    reference = ERWorkflow(replace(config, **_REFERENCE)).run(data)
    assert _outcome(production) == _outcome(reference)


@given(data=_inputs, threshold=st.sampled_from([0.3, 0.55]))
@_FUZZ
def test_incremental_array_engine_matches_object_engine(data, threshold):
    outcomes = [
        _outcome(
            ERWorkflow(
                WorkflowConfig(match_threshold=threshold, incremental_engine=engine)
            ).run_incremental(data)
        )
        for engine in ("array", "object")
    ]
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("run", ["run", "run_incremental"])
def test_empty_collection_resolves_to_nothing_on_every_engine(run):
    empty = EntityCollection([], name="empty")
    for config in (
        WorkflowConfig(),
        WorkflowConfig(**_REFERENCE),
        WorkflowConfig(incremental_engine="object"),
    ):
        assert _outcome(getattr(ERWorkflow(config), run)(empty)) == ([], [], 0)


def test_duplicate_identifiers_are_rejected_at_the_collection_boundary():
    twin = EntityDescription("x", {"name": "alan turing"})
    with pytest.raises(ValueError, match="duplicate identifier"):
        EntityCollection([twin, twin.copy()])
    with pytest.raises(ValueError, match="disjoint identifier spaces"):
        CleanCleanTask(EntityCollection([twin]), EntityCollection([twin.copy()]))
