"""Entity matching: deciding whether two descriptions refer to the same entity.

The matching phase consumes the comparisons proposed by blocking (possibly
re-ordered by a progressive scheduler) and declares matches.  The package
provides:

* similarity-based matchers over schema-agnostic token profiles and
  schema-aware weighted attributes (:mod:`repro.matching.matchers`);
* a batched comparison-execution engine (:mod:`repro.matching.engine`);
* a ground-truth *oracle* matcher with configurable noise and per-comparison
  cost, used by experiments that need to isolate scheduling behaviour from
  matcher quality (:mod:`repro.matching.oracle`);
* equivalence clustering of pairwise match decisions
  (:mod:`repro.matching.clustering`).

Execution engines
-----------------
Like the meta-blocking stage, matching separates *what* is decided from *how*
the decisions are executed.  The matchers are the readable per-pair
formulation, but they re-derive both descriptions' token profiles on every
comparison, so an entity appearing in *K* candidate pairs pays its
tokenisation and TF-IDF weighting cost *K* times.
:class:`~repro.matching.engine.MatchingEngine` (``engine="batch"``, the
workflow default) instead resolves each description once into a columnar
:class:`~repro.text.profile_store.ProfileStore` -- interned integer token
ids, sorted id arrays and L2-normalised TF-IDF weight columns -- and scores
candidate pairs in vectorised NumPy passes.

The per-pair matchers remain the *oracle*: ``engine="pairwise"`` executes
them verbatim, the equivalence suite (``tests/test_matching_equivalence.py``)
pins both engines to bit-identical decisions, and the batch engine falls back
to the oracle automatically whenever it cannot replicate the configured
matcher -- :class:`~repro.matching.matchers.RuleBasedMatcher`,
:class:`~repro.matching.matchers.AttributeWeightedMatcher`, custom
:class:`~repro.matching.matchers.Matcher` implementations and
``ProfileSimilarityMatcher`` *subclasses* (whose overridden similarity the
columnar path cannot see).  Swapping engines therefore never changes a
workflow's output, only its speed.

The same split closes the pipeline tail.  On the batch path the engine can
emit executed decisions straight into a columnar
:class:`~repro.datamodel.pairs.DecisionColumns` (ordinal ``first``/``second``
plus flat ``similarity``/``is_match`` arrays; decision objects materialise
lazily as the oracle bridge), and
:class:`~repro.matching.cluster_engine.ClusteringEngine`
(``engine="array"``, the workflow default) clusters those columns with
integer path-halving union--find and argsort passes -- bit-identical clusters
to the object algorithms, including the heaviest-first tie order (descending
similarity, ties in canonical identifier-pair order).  ``engine="object"``
executes the :mod:`repro.matching.clustering` algorithms verbatim; custom
:class:`~repro.matching.clustering.ClusteringAlgorithm` implementations --
and subclasses of the three library algorithms -- always fall back to it,
receiving lazily materialised decisions, so the engine is safe for any
algorithm.
"""

from repro.matching.cluster_engine import CLUSTERING_ENGINES, ClusteringEngine
from repro.matching.clustering import (
    CenterClustering,
    ClusteringAlgorithm,
    ConnectedComponentsClustering,
    MergeCenterClustering,
)
from repro.matching.engine import MATCHING_ENGINES, MatchingEngine
from repro.matching.matchers import (
    AttributeWeightedMatcher,
    DecisionList,
    MatchDecision,
    Matcher,
    ProfileSimilarityMatcher,
    RuleBasedMatcher,
    ThresholdRule,
)
from repro.matching.oracle import OracleMatcher

__all__ = [
    "AttributeWeightedMatcher",
    "CLUSTERING_ENGINES",
    "CenterClustering",
    "ClusteringAlgorithm",
    "ClusteringEngine",
    "ConnectedComponentsClustering",
    "DecisionList",
    "MATCHING_ENGINES",
    "MatchDecision",
    "Matcher",
    "MatchingEngine",
    "MergeCenterClustering",
    "OracleMatcher",
    "ProfileSimilarityMatcher",
    "RuleBasedMatcher",
    "ThresholdRule",
]
