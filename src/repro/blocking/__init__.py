"""Blocking schemes for entity resolution (Section II of the tutorial).

The package covers three families:

* **Traditional, schema-aware schemes** for relational records --
  :class:`~repro.blocking.standard.StandardBlocking`,
  :class:`~repro.blocking.standard.QGramsBlocking`,
  :class:`~repro.blocking.standard.ExtendedQGramsBlocking`,
  :class:`~repro.blocking.standard.SuffixArrayBlocking`,
  :class:`~repro.blocking.sorted_neighborhood.SortedNeighborhoodBlocking`,
  :class:`~repro.blocking.canopy.CanopyClusteringBlocking`.
* **Schema-agnostic schemes** for the Web of data --
  :class:`~repro.blocking.token_blocking.TokenBlocking`,
  :class:`~repro.blocking.token_blocking.AttributeClusteringBlocking`,
  :class:`~repro.blocking.token_blocking.PrefixInfixSuffixBlocking`,
  :class:`~repro.blocking.similarity_join.SimilarityJoinBlocking`,
  :class:`~repro.blocking.minhash.MinHashLSHBlocking`,
  :class:`~repro.blocking.multiblock.MultidimensionalBlocking`.
* **Block cleaning** -- :class:`~repro.blocking.cleaning.BlockPurging`,
  :class:`~repro.blocking.cleaning.BlockFiltering`,
  :class:`~repro.blocking.cleaning.ComparisonPropagation`.

Execution engines
-----------------

Building and cleaning run behind
:class:`~repro.blocking.engine.BlockingEngine`, which follows the two-engine
pattern of :mod:`repro.metablocking` and :mod:`repro.matching`:

* ``engine="index"`` (the default) executes every builtin builder and the
  three cleaners on flat integer arrays.  Tokens are interned once per
  collection into dense ids by a
  :class:`~repro.text.profile_store.ProfileStore`, the inverted key index
  maps ``token id -> array('q') posting of description ordinals`` (postings
  grow in description order, so emitting blocks in sorted-key order
  reproduces the legacy builders block for block), and the cleaners stream
  over a CSR entity index of the block collection: ``blk_ptr`` delimits each
  block's assignment span, ``ent_of`` holds the description ordinal of every
  assignment and ``card_of`` the containing block's cardinality.  Purging
  selects blocks against the shared adaptive threshold in one cardinality
  pass, filtering ranks all assignments with a single stable sort by
  ``(entity, cardinality)`` (one NumPy ``lexsort``), and comparison propagation
  deduplicates pairs as single ``(min ordinal << 32) | max ordinal``
  integers instead of canonical string tuples.
* ``engine="oracle"`` runs the legacy per-``dict``/``set`` builders and
  cleaners below, which stay the readable reference implementation, the
  equivalence-suite oracle, and the automatic fallback for custom schemes
  (announced by a one-time :class:`RuntimeWarning` naming the scheme).

Both engines produce block-for-block identical collections; see
:mod:`repro.blocking.engine` for the exact layout and guarantees.

Tie rules pinned by the array engines
-------------------------------------

The long-tail builders fix (and the bit-identity suite pins) the orderings
that make both engines reproducible:

* **sorted neighbourhood** (all three variants): entries sort by
  ``(key, identifier)``; windows keep members in sorted-entry order and the
  multi-pass variant prefixes window keys with the pass index.
* **canopy**: centre selection is the seeded shuffle of the input order,
  and every centre scans candidates in that same shuffled order.
* **minhash/LSH**: band keys order lexicographically by their formatted
  key string; per-band member order is description (posting) order.
* **similarity join**: tokens rank by ``(document frequency, token)``,
  records process shortest-first with identifier tie-breaks, and verified
  pairs emit in canonical pair order.
"""

from repro.blocking.base import Block, BlockBuilder, BlockCollection
from repro.blocking.canopy import CanopyClusteringBlocking
from repro.blocking.cleaning import (
    BlockFiltering,
    BlockPurging,
    ComparisonPropagation,
    adaptive_cardinality_threshold,
    clean_blocks,
)
from repro.blocking.engine import BLOCKING_ENGINES, BlockingEngine
from repro.blocking.minhash import MinHashLSHBlocking, MinHashSignature
from repro.blocking.multiblock import MultidimensionalBlocking
from repro.blocking.similarity_join import SimilarityJoinBlocking
from repro.blocking.sorted_neighborhood import (
    ExtendedSortedNeighborhoodBlocking,
    MultiPassSortedNeighborhoodBlocking,
    SortedNeighborhoodBlocking,
    sorted_order,
)
from repro.blocking.standard import (
    ExtendedQGramsBlocking,
    QGramsBlocking,
    StandardBlocking,
    SuffixArrayBlocking,
    attribute_key,
    soundex,
    soundex_key,
)
from repro.blocking.token_blocking import (
    AttributeClusteringBlocking,
    PrefixInfixSuffixBlocking,
    TokenBlocking,
    cluster_attribute_profiles,
    cluster_attributes,
)

__all__ = [
    "AttributeClusteringBlocking",
    "BLOCKING_ENGINES",
    "Block",
    "BlockBuilder",
    "BlockCollection",
    "BlockFiltering",
    "BlockPurging",
    "BlockingEngine",
    "CanopyClusteringBlocking",
    "ComparisonPropagation",
    "ExtendedQGramsBlocking",
    "ExtendedSortedNeighborhoodBlocking",
    "MinHashLSHBlocking",
    "MinHashSignature",
    "MultiPassSortedNeighborhoodBlocking",
    "MultidimensionalBlocking",
    "PrefixInfixSuffixBlocking",
    "QGramsBlocking",
    "SimilarityJoinBlocking",
    "SortedNeighborhoodBlocking",
    "StandardBlocking",
    "SuffixArrayBlocking",
    "TokenBlocking",
    "adaptive_cardinality_threshold",
    "attribute_key",
    "clean_blocks",
    "cluster_attribute_profiles",
    "cluster_attributes",
    "sorted_order",
    "soundex",
    "soundex_key",
]
