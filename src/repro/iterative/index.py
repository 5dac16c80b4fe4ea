"""Array-backed incremental-ER index: the columnar engine behind
:class:`~repro.iterative.incremental.IncrementalResolver`.

The object oracle keeps its state as string-keyed dicts of description
objects and re-tokenises on every comparison.  :class:`IncrementalIndex`
keeps the same state as flat integers over a shared
:class:`~repro.core.growable.GrowableContext`:

* arrivals are interned **once** -- ordinal, vocabulary ids, per-attribute
  and merged token columns -- instead of being re-tokenised per comparison;
* candidate generation runs over integer postings
  (``token id -> set of cluster-root ordinals``) with a **root -> token
  reverse index**, so a merge re-points only the absorbed root's postings
  (the historical oracle rescanned the whole token index per merge);
* candidate batches are scored through
  :meth:`~repro.matching.engine.MatchingEngine.score_id_set_pairs` -- the
  exact columnar set scorer of the batch pipeline -- instead of per-pair
  ``matcher.match`` calls;
* clustering lives in an :class:`~repro.core.unionfind.IntUnionFind`, and a
  merged representation is reproduced on demand by replaying the cluster's
  **merge tree** through :func:`~repro.datamodel.description.merge_descriptions`,
  so ``representation_of`` returns byte-for-byte the oracle's merged
  description (same nested ``a+b`` identifiers, same value order).

Bit-identity contract
---------------------
Fed the same arrival stream, the index reproduces the oracle exactly at
every prefix: candidate ranking (shared-token count, identifier
tie-break), match decisions (scores use the oracle's own float
expressions), merge order, cluster enumeration order, comparison counts,
and -- because removals re-resolve the surviving co-members in arrival
order on both sides -- the state after ``update``/``remove`` too.

The index natively supports a plain set-mode
:class:`~repro.matching.matchers.ProfileSimilarityMatcher`.  TF-IDF
matchers need global document frequencies (a moving target under online
arrivals) and custom matchers need description objects, so the resolver
facade falls back to the object oracle for those.

Persistence
-----------
:meth:`IncrementalIndex.save` writes every column through
:mod:`repro.core.snapshot`; :meth:`IncrementalIndex.load` memory-maps the
columns back and resumes accepting arrivals without re-interning anything
-- only the integer postings are re-inverted.  Description objects are
*not* part of a snapshot; a restored index answers every query except
``representation_of``/``as_collection`` (which need the raw objects and
raise ``RuntimeError``).
"""

from __future__ import annotations

from array import array
from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Union

from repro.core.growable import GrowableContext
from repro.core.snapshot import SnapshotReader, SnapshotWriter
from repro.core.unionfind import IntUnionFind
from repro.datamodel.collection import EntityCollection
from repro.datamodel.description import EntityDescription, merge_descriptions
from repro.matching.engine import MatchingEngine
from repro.matching.matchers import ProfileSimilarityMatcher
from repro.text.tokenize import DEFAULT_STOP_WORDS, token_set

__all__ = ["IncrementalIndex"]

_TREE_OPEN = -1
_TREE_CLOSE = -2


def _sorted_union(first: Iterable[int], second: Iterable[int]) -> array:
    """Union of two sorted distinct int sequences, sorted and distinct."""
    merged = array("q")
    iter_a, iter_b = iter(first), iter(second)
    head_a = next(iter_a, None)
    head_b = next(iter_b, None)
    while head_a is not None and head_b is not None:
        if head_a < head_b:
            merged.append(head_a)
            head_a = next(iter_a, None)
        elif head_b < head_a:
            merged.append(head_b)
            head_b = next(iter_b, None)
        else:
            merged.append(head_a)
            head_a = next(iter_a, None)
            head_b = next(iter_b, None)
    while head_a is not None:
        merged.append(head_a)
        head_a = next(iter_a, None)
    while head_b is not None:
        merged.append(head_b)
        head_b = next(iter_b, None)
    return merged


def _encode_tree(node: Any, out: array) -> None:
    if isinstance(node, list):
        out.append(_TREE_OPEN)
        for child in node:
            _encode_tree(child, out)
        out.append(_TREE_CLOSE)
    else:
        out.append(int(node))


def _decode_tree(values: Sequence[int], position: int) -> "tuple[list, int]":
    node: List[Any] = []
    position += 1  # consume the open marker
    while values[position] != _TREE_CLOSE:
        if values[position] == _TREE_OPEN:
            child, position = _decode_tree(values, position)
            node.append(child)
        else:
            node.append(int(values[position]))
            position += 1
    return node, position + 1


class IncrementalIndex:
    """Columnar incremental entity resolution with snapshot persistence.

    Parameters
    ----------
    matcher:
        A plain set-mode :class:`ProfileSimilarityMatcher` (exact type, no
        vectoriser); anything else raises ``ValueError`` -- the resolver
        facade handles the fallback.
    max_candidates, stop_words, min_token_length:
        As on :class:`~repro.iterative.incremental.IncrementalResolver`.
    context:
        Optional pre-existing :class:`GrowableContext` (used by
        :meth:`load`); a fresh one is created by default.
    """

    def __init__(
        self,
        matcher: ProfileSimilarityMatcher,
        max_candidates: int = 20,
        stop_words=DEFAULT_STOP_WORDS,
        min_token_length: int = 2,
        context: Optional[GrowableContext] = None,
    ) -> None:
        if type(matcher) is not ProfileSimilarityMatcher or matcher.vectorizer is not None:
            raise ValueError(
                "IncrementalIndex natively supports a plain set-mode "
                "ProfileSimilarityMatcher; use IncrementalResolver for other matchers"
            )
        if max_candidates < 1:
            raise ValueError("max_candidates must be at least 1")
        self.matcher = matcher
        self.max_candidates = max_candidates
        self.stop_words = frozenset(stop_words) if stop_words else frozenset()
        self.min_token_length = min_token_length
        self.context = context if context is not None else GrowableContext()
        self._engine = MatchingEngine(matcher)
        self._index_filter = self.context.token_filter(
            self.stop_words, self.min_token_length
        )
        self._match_filter = self.context.token_filter(
            matcher.stop_words, matcher.min_token_length
        )
        self._uf = IntUnionFind()
        self._alive = bytearray()
        self._live = 0
        self._members: Dict[int, List[int]] = {}  # root ordinal -> member ordinals
        self._postings: Dict[int, Set[int]] = {}  # token id -> root ordinals
        # reverse index: root ordinal -> sorted token ids it is posted under
        self._root_tokens: Dict[int, Sequence[int]] = {}
        # matcher-filtered token sets per root; aliases _root_tokens when the
        # index and matcher tokenisation configurations coincide
        if (matcher.stop_words, matcher.min_token_length) == (
            self.stop_words,
            self.min_token_length,
        ):
            self._match_tokens: Dict[int, Sequence[int]] = self._root_tokens
        else:
            self._match_tokens = {}
        self._trees: Dict[int, list] = {}  # root ordinal -> merge tree
        self._descriptions: Dict[int, EntityDescription] = {}
        self.comparisons_executed = 0

    # ------------------------------------------------------------------
    # state inspection (mirrors the oracle exactly)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._live

    @property
    def num_clusters(self) -> int:
        return len(self._members)

    def clusters(self) -> List[FrozenSet[str]]:
        ids = self.context.ids
        return [
            frozenset(ids[member] for member in members)
            for members in self._members.values()
        ]

    def non_trivial_clusters(self) -> List[FrozenSet[str]]:
        ids = self.context.ids
        return [
            frozenset(ids[member] for member in members)
            for members in self._members.values()
            if len(members) > 1
        ]

    def _live_ordinal(self, identifier: str) -> Optional[int]:
        ordinal = self.context.ordinal(identifier)
        if ordinal is None or not self._alive[ordinal]:
            return None
        return ordinal

    def cluster_of(self, identifier: str) -> FrozenSet[str]:
        ordinal = self._live_ordinal(identifier)
        if ordinal is None:
            return frozenset()
        ids = self.context.ids
        return frozenset(ids[member] for member in self._members[self._uf.find(ordinal)])

    def representation_of(self, identifier: str) -> Optional[EntityDescription]:
        """The oracle's merged representation, replayed from the merge tree."""
        ordinal = self._live_ordinal(identifier)
        if ordinal is None:
            return None
        return self._tree_representation(self._trees[self._uf.find(ordinal)])

    def _tree_representation(self, node: Any) -> EntityDescription:
        if isinstance(node, list):
            representation = self._tree_representation(node[0])
            for child in node[1:]:
                representation = merge_descriptions(
                    representation, self._tree_representation(child)
                )
            return representation
        description = self._descriptions.get(int(node))
        if description is None:
            raise RuntimeError(
                "description objects are not part of a snapshot; "
                "representation_of() only covers records added in this process"
            )
        return description

    def as_collection(self, name: str = "incremental") -> EntityCollection:
        ordered = [o for o in range(len(self._alive)) if self._alive[o]]
        if any(o not in self._descriptions for o in ordered):
            raise RuntimeError(
                "description objects are not part of a snapshot; "
                "as_collection() only covers records added in this process"
            )
        return EntityCollection((self._descriptions[o] for o in ordered), name=name)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def _candidate_roots(self, token_ids: Iterable[int]) -> List[int]:
        """Root ordinals sharing tokens, most shared first, identifier tie-break."""
        shared: Dict[int, int] = {}
        postings = self._postings
        for token_id in token_ids:
            for root in postings.get(token_id, ()):
                shared[root] = shared.get(root, 0) + 1
        ids = self.context.ids
        limit = self.max_candidates
        if len(shared) <= limit:
            return sorted(shared, key=lambda root: (-shared[root], ids[root]))
        # selection instead of a full sort: common tokens make the shared map
        # much larger than ``limit``, so bucket the roots by shared count and
        # sort (by identifier, the tie-break) only the buckets that still fit
        # -- the order of the returned prefix is identical to the full sort's
        buckets: Dict[int, List[int]] = {}
        for root, count in shared.items():
            bucket = buckets.get(count)
            if bucket is None:
                buckets[count] = [root]
            else:
                bucket.append(root)
        ranked: List[int] = []
        for count in sorted(buckets, reverse=True):
            bucket = buckets[count]
            bucket.sort(key=ids.__getitem__)
            ranked.extend(bucket)
            if len(ranked) >= limit:
                break
        return ranked[:limit]

    def _merge_roots(self, target: int, source: int) -> int:
        """Merge ``source``'s cluster into ``target``'s; re-points only the
        absorbed root's postings via the reverse index."""
        if target == source:
            return target
        self._uf.union(target, source)
        self._members[target].extend(self._members.pop(source))
        self._trees[target].append(self._trees.pop(source))
        source_tokens = self._root_tokens.pop(source)
        postings = self._postings
        for token_id in source_tokens:
            roots = postings.get(int(token_id))
            if roots is not None:
                roots.discard(source)
                roots.add(target)
        self._root_tokens[target] = _sorted_union(
            self._root_tokens[target], source_tokens
        )
        if self._match_tokens is not self._root_tokens:
            source_match = self._match_tokens.pop(source)
            self._match_tokens[target] = _sorted_union(
                self._match_tokens[target], source_match
            )
        return target

    def _resolve_arrival(self, ordinal: int) -> "ArrivalResult":
        """Resolve one interned record against the current state.

        Replicates the oracle's loop: candidates in ranked order, each
        compared against the arrival cluster's *growing* merged token set;
        every match merges and the scan continues.  Comparisons are scored
        in batches but counted (and decided) strictly in ranked order, so
        counts and decisions match the per-pair oracle exactly.
        """
        from repro.iterative.incremental import ArrivalResult

        ids = self.context.ids
        result = ArrivalResult(identifier=ids[ordinal])
        full_column = self.context.token_ids_of(ordinal)
        index_ids = array("q", self._index_filter.select(full_column))
        ranked = self._candidate_roots(index_ids)

        # register the arrival as its own singleton cluster
        self._members[ordinal] = [ordinal]
        self._trees[ordinal] = [ordinal]
        self._root_tokens[ordinal] = index_ids
        if self._match_tokens is not self._root_tokens:
            self._match_tokens[ordinal] = array(
                "q", self._match_filter.select(full_column)
            )

        root = ordinal
        threshold = self.matcher.threshold
        pending = ranked
        while pending:
            # roots absorbed by an earlier merge of this very arrival are
            # skipped without being counted (they no longer exist)
            batch = [candidate for candidate in pending if candidate in self._members]
            if not batch:
                break
            columns: List[Sequence[int]] = [self._match_tokens[root]]
            columns.extend(self._match_tokens[candidate] for candidate in batch)
            pairs = [(0, second) for second in range(1, len(columns))]
            scores = self._engine.score_id_set_pairs(
                pairs, columns, self.context.vocabulary_size
            )
            matched = -1
            for offset, score in enumerate(scores):
                result.comparisons += 1
                self.comparisons_executed += 1
                if score >= threshold:
                    matched = offset
                    break
            if matched < 0:
                break
            candidate = batch[matched]
            result.matched_clusters.append(ids[candidate])
            root = self._merge_roots(root, candidate)
            # the merge grew the arrival's token set: re-score the remaining
            # candidates against it, exactly as the oracle compares against
            # the growing merged representation
            pending = batch[matched + 1 :]

        postings = self._postings
        for token_id in index_ids:
            postings.setdefault(token_id, set()).add(root)
        return result

    def add(self, description: EntityDescription) -> "ArrivalResult":
        """Intern and resolve one arriving description."""
        identifier = description.identifier
        existing = self.context.ordinal(identifier)
        if existing is not None and self._alive[existing]:
            raise ValueError(f"duplicate identifier: {identifier!r}")
        ordinal = self.context.add_record(description)
        self._descriptions[ordinal] = description
        self._uf.grow(ordinal + 1)
        if len(self._alive) <= ordinal:
            self._alive.extend(bytes(ordinal + 1 - len(self._alive)))
        self._alive[ordinal] = 1
        self._live += 1
        return self._resolve_arrival(ordinal)

    def add_all(self, descriptions: Iterable[EntityDescription]) -> List["ArrivalResult"]:
        return [self.add(description) for description in descriptions]

    def remove(self, identifier: str) -> List["ArrivalResult"]:
        """Remove one record; re-resolve its former co-members.

        Only the affected neighbourhood is recomputed: the cluster's
        postings are cleared through the reverse index and the surviving
        members re-enter the arrival path (in arrival order) against the
        untouched remainder of the index.  Returns their arrival results.
        """
        ordinal = self._live_ordinal(identifier)
        if ordinal is None:
            raise KeyError(identifier)
        root = self._uf.find(ordinal)
        members = self._members.pop(root)
        postings = self._postings
        for token_id in self._root_tokens.pop(root):
            token_id = int(token_id)
            roots = postings.get(token_id)
            if roots is not None:
                roots.discard(root)
                if not roots:
                    del postings[token_id]
        if self._match_tokens is not self._root_tokens:
            self._match_tokens.pop(root)
        self._trees.pop(root)
        self._alive[ordinal] = 0
        self._live -= 1
        self._descriptions.pop(ordinal, None)
        parent = self._uf.parent
        for member in members:
            parent[member] = member  # back to singletons; edges never cross clusters
        return [
            self._resolve_arrival(member)
            for member in sorted(int(m) for m in members)
            if member != ordinal
        ]

    def update(self, description: EntityDescription) -> "ArrivalResult":
        """Replace a record's description: remove, then re-add (re-resolving)."""
        self.remove(description.identifier)
        return self.add(description)

    def resolve(self, description: EntityDescription) -> FrozenSet[str]:
        """Non-mutating query: the cluster the description would join, if any.

        Candidate ranking and scoring follow :meth:`add`, but nothing is
        interned, no merge happens and no counter moves.  Unknown tokens are
        mapped to transient ids past the vocabulary so set sizes (and hence
        scores) stay exact.
        """
        index_tokens = token_set(
            description.values(),
            stop_words=self.stop_words,
            min_length=self.min_token_length,
        )
        token_id_of = self.context.token_id
        known = [
            token_id
            for token_id in (token_id_of(token) for token in index_tokens)
            if token_id is not None
        ]
        ranked = self._candidate_roots(known)
        if not ranked:
            return frozenset()
        matcher = self.matcher
        match_tokens = token_set(
            description.values(),
            stop_words=matcher.stop_words,
            min_length=matcher.min_token_length,
        )
        transient = self.context.vocabulary_size
        arrival_ids = array("q")
        for token in match_tokens:
            token_id = token_id_of(token)
            if token_id is None:
                token_id = transient
                transient += 1
            arrival_ids.append(token_id)
        arrival_ids = array("q", sorted(arrival_ids))
        columns: List[Sequence[int]] = [arrival_ids]
        columns.extend(self._match_tokens[candidate] for candidate in ranked)
        pairs = [(0, second) for second in range(1, len(columns))]
        scores = self._engine.score_id_set_pairs(pairs, columns, transient)
        ids = self.context.ids
        for offset, score in enumerate(scores):
            if score >= matcher.threshold:
                members = self._members[ranked[offset]]
                return frozenset(ids[member] for member in members)
        return frozenset()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write the full resolution state as a versioned snapshot directory.

        The write is all-or-nothing even onto an existing snapshot at
        ``path``: the writer stages into a temp directory and atomically
        swaps it in on success (see :class:`~repro.core.snapshot.SnapshotWriter`),
        so a crash or exception mid-save -- even between columns -- leaves
        the previous snapshot fully loadable and never a mix of old and new
        columns.
        """
        with SnapshotWriter(path) as writer:
            self._write_state(writer)

    def _write_state(self, writer: SnapshotWriter) -> None:
        self.context.write_snapshot(writer)
        writer.column("index.uf_parent", self._uf.parent)
        # note: array('q', <bytes-like>) would reinterpret raw bytes, so the
        # flags go through an explicit value iterator
        writer.column("index.alive", array("q", (int(flag) for flag in self._alive)))
        roots = [int(root) for root in self._members]
        writer.column("index.roots", array("q", roots))

        def csr(values_of) -> "tuple[array, array]":
            pointers = array("q", [0])
            data = array("q")
            for root in roots:
                data.extend(int(value) for value in values_of(root))
                pointers.append(len(data))
            return pointers, data

        member_ptr, member_data = csr(lambda root: self._members[root])
        writer.column("index.member_ptr", member_ptr)
        writer.column("index.member_data", member_data)
        token_ptr, token_data = csr(lambda root: self._root_tokens[root])
        writer.column("index.root_token_ptr", token_ptr)
        writer.column("index.root_token_data", token_data)
        shared_filter = self._match_tokens is self._root_tokens
        if not shared_filter:
            match_ptr, match_data = csr(lambda root: self._match_tokens[root])
            writer.column("index.match_token_ptr", match_ptr)
            writer.column("index.match_token_data", match_data)
        tree_ptr = array("q", [0])
        tree_data = array("q")
        for root in roots:
            _encode_tree(self._trees[root], tree_data)
            tree_ptr.append(len(tree_data))
        writer.column("index.tree_ptr", tree_ptr)
        writer.column("index.tree_data", tree_data)
        matcher = self.matcher
        writer.meta(
            kind="incremental-index",
            comparisons_executed=self.comparisons_executed,
            live=self._live,
            max_candidates=self.max_candidates,
            stop_words=sorted(self.stop_words),
            min_token_length=self.min_token_length,
            shared_filter=shared_filter,
            matcher={
                "threshold": matcher.threshold,
                "similarity_name": matcher.similarity_name,
                "stop_words": sorted(matcher.stop_words),
                "min_token_length": matcher.min_token_length,
                "cost": matcher.cost,
            },
        )

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        matcher: Optional[ProfileSimilarityMatcher] = None,
    ) -> "IncrementalIndex":
        """Memory-map a snapshot back into a live, growable index.

        The matcher is rebuilt from the manifest unless one is passed, in
        which case its configuration must match the snapshot's exactly
        (scores would silently diverge otherwise).
        """
        reader = SnapshotReader(path)
        meta = reader.meta
        if meta.get("kind") != "incremental-index":
            raise ValueError(f"snapshot at {path} is not an incremental index")
        recorded = meta["matcher"]
        if matcher is None:
            matcher = ProfileSimilarityMatcher(
                threshold=recorded["threshold"],
                stop_words=frozenset(recorded["stop_words"]),
                min_token_length=recorded["min_token_length"],
                similarity_name=recorded["similarity_name"],
                cost=recorded["cost"],
            )
        else:
            compatible = (
                type(matcher) is ProfileSimilarityMatcher
                and matcher.vectorizer is None
                and matcher.threshold == recorded["threshold"]
                and matcher.similarity_name == recorded["similarity_name"]
                and matcher.stop_words == frozenset(recorded["stop_words"])
                and matcher.min_token_length == recorded["min_token_length"]
            )
            if not compatible:
                raise ValueError(
                    "matcher configuration does not match the snapshot; "
                    "load(path) rebuilds the recorded matcher automatically"
                )
        context = GrowableContext.from_snapshot(reader)
        index = cls(
            matcher,
            max_candidates=meta["max_candidates"],
            stop_words=meta["stop_words"],
            min_token_length=meta["min_token_length"],
            context=context,
        )
        index._uf.parent = array("q", (int(v) for v in reader.column("index.uf_parent")))
        index._alive = bytearray(int(v) for v in reader.column("index.alive"))
        index._live = meta["live"]
        index.comparisons_executed = meta["comparisons_executed"]
        roots = [int(root) for root in reader.column("index.roots")]
        member_ptr = reader.column("index.member_ptr")
        member_data = reader.column("index.member_data")
        token_ptr = reader.column("index.root_token_ptr")
        token_data = reader.column("index.root_token_data")
        postings: Dict[int, Set[int]] = {}
        for position, root in enumerate(roots):
            index._members[root] = [
                int(member)
                for member in member_data[member_ptr[position] : member_ptr[position + 1]]
            ]
            # the reverse index is a zero-copy view over the mapped column;
            # merges replace it wholesale, so mutability is not needed
            tokens = token_data[token_ptr[position] : token_ptr[position + 1]]
            index._root_tokens[root] = tokens
            for token_id in tokens:
                postings.setdefault(int(token_id), set()).add(root)
        index._postings = postings
        if not meta["shared_filter"]:
            match_ptr = reader.column("index.match_token_ptr")
            match_data = reader.column("index.match_token_data")
            for position, root in enumerate(roots):
                index._match_tokens[root] = match_data[
                    match_ptr[position] : match_ptr[position + 1]
                ]
        tree_ptr = reader.column("index.tree_ptr")
        tree_data = reader.column("index.tree_data")
        for position, root in enumerate(roots):
            tree, _ = _decode_tree(tree_data, int(tree_ptr[position]))
            index._trees[root] = tree
        return index
