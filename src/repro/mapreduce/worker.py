"""Worker-process job functions of the multi-process parallel engine.

Each function here is a top-level callable (so it is picklable under every
``multiprocessing`` start method) that receives one task tuple: the
:class:`~repro.mapreduce.shm.ColumnSegment` specs of the shared inputs plus
an entity-ordinal range, and returns only the per-partition result columns --
plain ``array`` objects that pickle compactly.  The shared inputs themselves
are never shipped: workers attach the driver's segments and read them through
zero-copy views.

Bit-identity is the contract.  Every kernel either *is* the sequential code
(ranged :meth:`EntityIndexEngine._node_weights
<repro.metablocking.entity_index.EntityIndexEngine._node_weights>` over a
:meth:`from_arrays <repro.metablocking.entity_index.EntityIndexEngine.from_arrays>`
replica, :func:`~repro.text.vectorizer.weighted_cosine`,
:func:`~repro.matching.engine._set_score`) or replicates its exact
expressions over the same exact integers (the TF-IDF profile build mirrors
``ProfileStore._build_from_context`` term for term), so concatenating the
partition results in range order reproduces the single-process stream float
for float.

Per-process caches keep repeated rounds cheap: attached segments are held in
a small LRU (released view-first, see :mod:`repro.mapreduce.shm`), and
index-engine replicas / description profiles are memoised per segment name --
segment names are unique per driver allocation, so a name can never refer to
two different payloads.
"""

from __future__ import annotations

import heapq
import math
from array import array
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.unionfind import IntUnionFind
from repro.mapreduce import faults
from repro.mapreduce.shm import AttachedSegment, SegmentSpec, attach
from repro.matching.engine import _set_score
from repro.metablocking.entity_index import _CEP_COMPACT_SLACK, EntityIndexEngine
from repro.text.tokenize import tokenize
from repro.text.vectorizer import SparseVector, weighted_cosine

#: attached segments this worker keeps mapped (evicted view-first, oldest first)
_SEGMENT_CACHE_SIZE = 8

_segments: Dict[str, AttachedSegment] = {}
_engines: Dict[str, EntityIndexEngine] = {}
_profiles: Dict[Tuple, Dict[int, object]] = {}

#: whether attachments must be unregistered from this process's resource
#: tracker -- True only in spawned workers, which run their own tracker
#: (see repro.mapreduce.shm); set by the pool initializer
_unregister_on_attach = False


def configure(unregister_on_attach: bool) -> None:
    """Pool initializer: set this worker process's tracker discipline.

    Also marks the process as a pool worker for the fault-injection harness
    (:mod:`repro.mapreduce.faults`): injected faults only ever fire in
    workers, never on the driver.
    """
    global _unregister_on_attach
    _unregister_on_attach = bool(unregister_on_attach)
    faults.mark_worker()


def release_attachments() -> None:
    """Release every cached segment attachment of this process, view-first.

    Workers never need to call this -- their caches die with the process.
    The *driver* does, after running a worker job inline on the degraded
    recovery path: the job populated this module's per-process caches in the
    driver's own interpreter, and the cached attachments pin shared-memory
    mappings that must be dropped before the owning engine unlinks its
    segments (or the interpreter exits).
    """
    _profiles.clear()
    _engines.clear()
    while _segments:
        _, segment = _segments.popitem()
        segment.release()


def _segment(spec: SegmentSpec) -> AttachedSegment:
    """The cached attachment of ``spec``'s segment (LRU over segment names)."""
    name = spec[0]
    segment = _segments.pop(name, None)
    if segment is None:
        segment = attach(spec, unregister=_unregister_on_attach)
    _segments[name] = segment  # re-insertion keeps the dict in LRU order
    while len(_segments) > _SEGMENT_CACHE_SIZE:
        evicted_name, evicted = next(iter(_segments.items()))
        del _segments[evicted_name]
        # derived caches hold copies or views into this mapping: drop them
        _engines_pop(evicted_name)
        for key in [k for k in _profiles if k[0] == evicted_name]:
            del _profiles[key]
        evicted.release()
    return segment


def _engines_pop(name: str) -> None:
    for key in [k for k in _engines if k[0] == name]:
        del _engines[key]


# ----------------------------------------------------------------------
# context interning
# ----------------------------------------------------------------------
def intern_descriptions_job(args):
    """Intern one contiguous description range into a *local* vocabulary.

    The payload is the raw attribute material of the range -- per
    description, ``(attribute, values)`` pairs in attribute order.  The loop
    is ``PipelineContext._intern_all`` run with a fresh vocabulary: local
    token ids are assigned in the shard's first-occurrence order, so the
    driver's shard-order get-or-assign merge reassigns them to exactly the
    serial global ids (``PipelineContext._intern_shards``).

    Returns ``(local tokens, entries)`` where each entry is
    ``(attribute names, per-attribute sorted local ids, aligned counts,
    local-id stream)``.
    """
    (payload,) = args
    token_ids: Dict[str, int] = {}
    tokens = []
    entries = []
    for attributes in payload:
        names = []
        id_columns = []
        count_columns = []
        stream = array("q")
        for attribute, values in attributes:
            counts: Dict[int, int] = {}
            for value in values:
                for token in tokenize(value):
                    token_id = token_ids.get(token)
                    if token_id is None:
                        token_id = len(tokens)
                        token_ids[token] = token_id
                        tokens.append(token)
                    counts[token_id] = counts.get(token_id, 0) + 1
                    stream.append(token_id)
            names.append(attribute)
            items = sorted(counts.items())
            id_columns.append(array("q", (t for t, _ in items)))
            count_columns.append(array("q", (c for _, c in items)))
        entries.append(
            (tuple(names), tuple(id_columns), tuple(count_columns), stream)
        )
    return tokens, entries


# ----------------------------------------------------------------------
# blocking
# ----------------------------------------------------------------------
def token_postings_job(args) -> Tuple[array, array, array]:
    """Local token postings of one entity-ordinal range.

    Reads the context's token CSR (``tok_ptr``/``tok_ids``) and the
    builder's admission mask, and returns the range's postings as three
    columns: the touched token ids (sorted ascending), the posting length
    per token, and the flattened ordinals (appended in ordinal order, so the
    driver's range-order merge yields ascending postings -- the sequential
    builder's exact content).
    """
    ctx_spec, mask_spec, start, stop = args
    views = _segment(ctx_spec).views
    tok_ptr = views["tok_ptr"]
    tok_ids = views["tok_ids"]
    mask = _segment(mask_spec).views["mask"] if mask_spec is not None else None
    postings: Dict[int, array] = {}
    for ordinal in range(start, stop):
        for token_id in tok_ids[tok_ptr[ordinal] : tok_ptr[ordinal + 1]]:
            if mask is not None and not mask[token_id]:
                continue
            posting = postings.get(token_id)
            if posting is None:
                postings[token_id] = posting = array("q")
            posting.append(ordinal)
    token_column = array("q", sorted(postings))
    counts = array("q", (len(postings[t]) for t in token_column))
    flat = array("q")
    for token_id in token_column:
        flat.extend(postings[token_id])
    return token_column, counts, flat


# ----------------------------------------------------------------------
# block cleaning
# ----------------------------------------------------------------------
def block_cardinalities_job(args) -> array:
    """Cardinality column of one block range, from per-block sizes.

    ``split * (n - split)`` for bilateral blocks and ``n * (n - 1) // 2``
    for unilateral ones -- the exact integers ``Block.num_comparisons``
    computes from its member tuples.
    """
    spec, start, stop = args
    views = _segment(spec).views
    lens = views["blk_len"]
    splits = views["blk_split"]
    cards = array("q")
    for b in range(start, stop):
        n = lens[b]
        split = splits[b]
        cards.append(split * (n - split) if split >= 0 else n * (n - 1) // 2)
    return cards


def filter_keep_job(args) -> array:
    """Kept assignment positions of one entity-ordinal range (block filtering).

    Each entity in the range keeps its ``max(1, ceil(ratio * degree))``
    smallest-cardinality assignments; ties break on ascending assignment
    position (= ascending block index), via the same stable sorts the
    sequential pass runs.  Per-entity decisions are independent, so the
    union of the ranges' kept positions equals the sequential keep set.
    """
    spec, ratio, start, stop = args
    kept = array("q")
    if start >= stop:
        return kept
    views = _segment(spec).views
    ent = np.frombuffer(views["ent_of"], dtype=np.int64)
    card = np.frombuffer(views["card_of"], dtype=np.int64)
    positions = np.flatnonzero((ent >= start) & (ent < stop))
    if not len(positions):
        return kept
    sub_ent = ent[positions] - start
    sub_card = card[positions]
    order = np.lexsort((sub_card, sub_ent))
    ent_sorted = sub_ent[order]
    degrees = np.bincount(sub_ent, minlength=stop - start)
    ent_ptr = np.concatenate(([0], np.cumsum(degrees)))
    rank = np.arange(len(positions), dtype=np.int64) - ent_ptr[ent_sorted]
    keep_counts = np.maximum(1, np.ceil(ratio * degrees)).astype(np.int64)
    kept.frombytes(
        np.ascontiguousarray(
            positions[order][rank < keep_counts[ent_sorted]], dtype=np.int64
        ).tobytes()
    )
    return kept


def propagate_pairs_job(args):
    """Candidate pair stream of one block range (comparison propagation).

    Walks the range's blocks in block-major order emitting, per comparison,
    the dedup code ``(min << 32) | max``, the canonically-ordered endpoint
    ordinals (rank comparison stands in for identifier-string comparison)
    and an orientation flag (0 unilateral, 1 bilateral with the canonical
    first on the proposing block's left side, 2 swapped).  Pairs already
    seen *within the range* are dropped -- only a pair's first local
    occurrence can be its global first occurrence, which the driver resolves
    in range order.  A bilateral self-pair aborts the range immediately and
    is reported as ``(block, left position, right position)`` so the driver
    can fail exactly like the sequential pass.
    """
    spec, start, stop = args
    views = _segment(spec).views
    blk_ptr = views["blk_ptr"]
    blk_split = views["blk_split"]
    ent_of = views["ent_of"]
    ranks = views["ranks"]
    codes = array("q")
    firsts = array("q")
    seconds = array("q")
    flags = bytearray()
    local_seen = set()
    seen_add = local_seen.add
    for block_index in range(start, stop):
        lo, hi = blk_ptr[block_index], blk_ptr[block_index + 1]
        split = blk_split[block_index]
        if split >= 0:
            left = ent_of[lo : lo + split]
            right = ent_of[lo + split : hi]
            left_set = set(left)
            for left_pos, a in enumerate(left):
                shifted = a << 32
                for right_pos, b in enumerate(right):
                    if a == b:  # self-pair: report, driver fails like the oracle
                        return codes, firsts, seconds, flags, (
                            block_index,
                            left_pos,
                            right_pos,
                        )
                    code = shifted | b if a < b else (b << 32) | a
                    if code in local_seen:
                        continue
                    seen_add(code)
                    codes.append(code)
                    if ranks[a] < ranks[b]:
                        firsts.append(a)
                        seconds.append(b)
                        flags.append(1 if a in left_set else 2)
                    else:
                        firsts.append(b)
                        seconds.append(a)
                        flags.append(1 if b in left_set else 2)
        else:
            members = ent_of[lo:hi]
            size = hi - lo
            for i in range(size):
                a = members[i]
                shifted = a << 32
                for j in range(i + 1, size):
                    b = members[j]
                    code = shifted | b if a < b else (b << 32) | a
                    if code in local_seen:
                        continue
                    seen_add(code)
                    codes.append(code)
                    if ranks[a] < ranks[b]:
                        firsts.append(a)
                        seconds.append(b)
                    else:
                        firsts.append(b)
                        seconds.append(a)
                    flags.append(0)
    return codes, firsts, seconds, flags, None


# ----------------------------------------------------------------------
# meta-blocking
# ----------------------------------------------------------------------
def _index_engine(
    mb_spec: SegmentSpec,
    factors_spec: Optional[SegmentSpec],
    scheme: str,
) -> EntityIndexEngine:
    segment = _segment(mb_spec)
    engine = _engines.get(mb_spec[0])
    if engine is None:
        engine = EntityIndexEngine.from_arrays(segment.views)
        _engines[mb_spec[0]] = engine
    if factors_spec is not None and scheme not in engine._factor_cache:
        engine._factor_cache[scheme] = _segment(factors_spec).views["factors"]
    return engine


def node_weights_job(args) -> Tuple[array, array, array, array]:
    """Weighted neighbourhoods of one node range, as four flat columns.

    ``(nodes, ptr, neighbours, weights)``: node ``nodes[k]``'s neighbourhood
    is ``neighbours[ptr[k]:ptr[k+1]]`` with aligned weights.  The stream is
    exactly what the sequential ranged ``_node_weights`` pass yields -- it
    *is* that pass, over a worker-side replica of the index.
    """
    mb_spec, factors_spec, scheme, lower, start, stop = args
    engine = _index_engine(mb_spec, factors_spec, scheme)
    nodes = array("q")
    ptr = array("q", [0])
    neighbours_flat = array("q")
    weights_flat = array("d")
    for i, neighbours, weights in engine._node_weights(scheme, lower, start, stop):
        nodes.append(i)
        neighbours_flat.frombytes(np.ascontiguousarray(neighbours, dtype=np.int64).tobytes())
        weights_flat.frombytes(np.ascontiguousarray(weights, dtype=np.float64).tobytes())
        ptr.append(len(neighbours_flat))
    return nodes, ptr, neighbours_flat, weights_flat


def partial_degrees_job(args) -> Tuple[array, int]:
    """EJS support round: the degree contributions of one node range."""
    mb_spec, start, stop = args
    engine = _index_engine(mb_spec, None, "")
    return engine._partial_degrees(start, stop)


def _exact_partials(values) -> list:
    """Shewchuk non-overlapping expansion of ``sum(values)``.

    The returned partials represent the range's sum *exactly* (it is the
    state ``math.fsum`` carries internally), so ``fsum`` over the
    concatenated partials of a sharded pass equals ``fsum`` over the
    original full stream -- the driver recovers the exactly rounded global
    sum without the weights ever leaving the workers.
    """
    partials: list = []
    for x in values:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
    return partials


def wep_stats_job(args) -> Tuple[int, array]:
    """WEP threshold round: edge count and exact sum partials of one range."""
    mb_spec, factors_spec, scheme, start, stop = args
    engine = _index_engine(mb_spec, factors_spec, scheme)
    count = 0

    def edge_weights():
        nonlocal count
        for _i, _neighbours, weights in engine._node_weights(scheme, True, start, stop):
            count += len(weights)
            yield from weights.tolist()

    partials = _exact_partials(edge_weights())
    return count, array("d", partials)


def wep_emit_job(args) -> Tuple[array, array, array]:
    """WEP emission round: the retained edges of one node range."""
    mb_spec, factors_spec, scheme, threshold, start, stop = args
    engine = _index_engine(mb_spec, factors_spec, scheme)
    firsts = array("q")
    seconds = array("q")
    kept = array("d")
    for i, neighbours, weights in engine._node_weights(scheme, True, start, stop):
        close = np.abs(weights - threshold) <= 1e-9 * np.maximum(
            np.abs(weights), abs(threshold)
        )
        keep = (weights > threshold) | (close & (weights > 0))
        for j, weight in zip(neighbours[keep].tolist(), weights[keep].tolist()):
            firsts.append(i)
            seconds.append(j)
            kept.append(weight)
    return firsts, seconds, kept


def wnp_stats_job(args) -> Tuple[array, array, int]:
    """WNP threshold round: per-node neighbour counts and sums of one range.

    Each node's full (unrestricted) neighbourhood lies entirely within the
    node's own range pass, so the per-node ``fsum`` runs the identical code
    the sequential pass runs -- bit-identical thresholds.
    """
    mb_spec, factors_spec, scheme, start, stop = args
    engine = _index_engine(mb_spec, factors_spec, scheme)
    counts = array("q", bytes(8 * (stop - start)))
    sums = array("d", bytes(8 * (stop - start)))
    total = 0
    for i, neighbours, weights in engine._node_weights(scheme, False, start, stop):
        degree = len(neighbours)
        counts[i - start] = degree
        total += degree
        sums[i - start] = math.fsum(weights)
    return counts, sums, total


def wnp_emit_job(args) -> Tuple[array, array, array]:
    """WNP emission round: the retained edges of one node range."""
    (
        mb_spec,
        factors_spec,
        scheme,
        thresholds_spec,
        reciprocal,
        start,
        stop,
    ) = args
    engine = _index_engine(mb_spec, factors_spec, scheme)
    thresholds = _segment(thresholds_spec).views["thresholds"]
    firsts = array("q")
    seconds = array("q")
    kept = array("d")
    np_thresholds = np.frombuffer(thresholds, dtype=np.float64)
    for i, neighbours, weights in engine._node_weights(scheme, True, start, stop):
        keep_first = weights >= thresholds[i]
        keep_second = weights >= np_thresholds[neighbours]
        keep = (keep_first & keep_second) if reciprocal else (keep_first | keep_second)
        keep &= weights > 0
        for j, weight in zip(neighbours[keep].tolist(), weights[keep].tolist()):
            firsts.append(i)
            seconds.append(j)
            kept.append(weight)
    return firsts, seconds, kept


def cnp_endorse_job(args) -> Tuple[array, array, array, int]:
    """CNP endorsement round: per-node top-``k`` selections of one range.

    Selection tuples substitute identifier *ranks* for the identifier
    strings the sequential pass compares -- an order-equivalent key -- and
    the per-node ``nlargest`` emission order is returned verbatim, so the
    driver can replay the endorsement inserts in node order.
    """
    mb_spec, factors_spec, scheme, k, start, stop = args
    engine = _index_engine(mb_spec, factors_spec, scheme)
    ranks = engine._ranks()
    a_column = array("q")
    b_column = array("q")
    w_column = array("d")
    total = 0
    for i, neighbours, weights in engine._node_weights(scheme, False, start, stop):
        degree = len(neighbours)
        total += degree
        if k <= 0:
            continue
        if degree > k:
            keep = weights >= np.partition(weights, degree - k)[degree - k]
            neighbours = neighbours[keep]
            weights = weights[keep]
        rank_i = ranks[i]
        incident = []
        for j, weight in zip(neighbours.tolist(), weights.tolist()):
            rank_j = ranks[j]
            if rank_i < rank_j:
                incident.append((weight, rank_i, rank_j, i, j))
            else:
                incident.append((weight, rank_j, rank_i, j, i))
        for weight, _rf, _rs, a, b in heapq.nlargest(k, incident):
            a_column.append(a)
            b_column.append(b)
            w_column.append(weight)
    return a_column, b_column, w_column, total


def cep_candidates_job(args):
    """CEP candidate round: the budget-bounded best candidates of one range.

    Runs the sequential pass's bounded-buffer selection (rank tuples in
    place of identifier strings) over the range; the local ``nsmallest``
    result is a superset filter -- the driver's global ``nsmallest`` over
    the union of the local buffers equals the sequential selection.
    """
    mb_spec, factors_spec, scheme, budget, start, stop = args
    engine = _index_engine(mb_spec, factors_spec, scheme)
    ranks = engine._ranks()
    count = 0
    buffer: list = []
    cutoff = -math.inf
    compact_at = 2 * budget + _CEP_COMPACT_SLACK
    for i, neighbours, weights in engine._node_weights(scheme, True, start, stop):
        count += len(neighbours)
        if budget == 0:
            continue
        if cutoff != -math.inf:
            keep = weights >= cutoff
            neighbours = neighbours[keep]
            weights = weights[keep]
        rank_i = ranks[i]
        for j, weight in zip(neighbours.tolist(), weights.tolist()):
            if weight < cutoff:
                continue
            rank_j = ranks[j]
            if rank_i < rank_j:
                buffer.append((-weight, rank_i, rank_j, i, j))
            else:
                buffer.append((-weight, rank_j, rank_i, j, i))
        if len(buffer) >= compact_at:
            buffer = heapq.nsmallest(budget, buffer)
            if len(buffer) == budget and budget > 0:
                cutoff = -buffer[-1][0]
    buffer = heapq.nsmallest(budget, buffer)
    neg_column = array("d")
    rank_f = array("q")
    rank_s = array("q")
    a_column = array("q")
    b_column = array("q")
    for neg_weight, rf, rs, a, b in buffer:
        neg_column.append(neg_weight)
        rank_f.append(rf)
        rank_s.append(rs)
        a_column.append(a)
        b_column.append(b)
    return count, neg_column, rank_f, rank_s, a_column, b_column


# ----------------------------------------------------------------------
# comparison columns
# ----------------------------------------------------------------------
def weight_sort_job(args) -> array:
    """Sorted row indices of one row range of a :class:`ComparisonColumns`.

    The range's rows are ordered by the table's full sort key
    ``(-weight, rank(first), rank(second))`` (ranks stand in for the
    identifier strings); the driver's k-way merge of the shard orders
    reproduces the sequential ``weight_sorted`` permutation exactly,
    stability included.
    """
    spec, has_weights, start, stop = args
    views = _segment(spec).views
    rank = views["rank"]
    first = views["first"]
    second = views["second"]
    np_rank = np.frombuffer(rank, dtype=np.int64)
    np_first = np.frombuffer(first, dtype=np.int64)[start:stop]
    np_second = np.frombuffer(second, dtype=np.int64)[start:stop]
    if has_weights:
        np_weights = np.frombuffer(views["weights"], dtype=np.float64)[start:stop]
        order = np.lexsort((np_rank[np_second], np_rank[np_first], -np_weights))
    else:
        order = np.lexsort((np_rank[np_second], np_rank[np_first]))
    result = array("q")
    result.frombytes(np.ascontiguousarray(order + start, dtype=np.int64).tobytes())
    return result


# ----------------------------------------------------------------------
# clustering
# ----------------------------------------------------------------------
def cluster_links_job(args) -> Tuple[array, array]:
    """Union--find pass over the positive decisions of one row range.

    Runs the sequential connected-components scan (first-touch order
    tracking included) over the range's canonical-orientation rows and
    returns ``(order, roots)``: the locally touched ordinals in first-touch
    order, each aligned with its local union-find root.  Linking every
    member to its local root, shard by shard in range order, reproduces both
    the sequential partition (a union of equivalence relations) and the
    sequential first-touch order (contiguous ranges make the earliest
    touching shard the earliest touching row).
    """
    spec, num_ids, start, stop = args
    views = _segment(spec).views
    first = views["first"]
    second = views["second"]
    flags = views["is_match"]
    links = IntUnionFind(num_ids)
    touched = bytearray(num_ids)
    order = array("q")
    for row in range(start, stop):
        if not flags[row]:
            continue
        f = first[row]
        s = second[row]
        if not touched[f]:
            touched[f] = 1
            order.append(f)
        if not touched[s]:
            touched[s] = 1
            order.append(s)
        links.union(f, s)
    roots = array("q", (links.find(member) for member in order))
    return order, roots


# ----------------------------------------------------------------------
# matching
# ----------------------------------------------------------------------
def _profile_table(
    ctx_spec: SegmentSpec,
    mask_spec: Optional[SegmentSpec],
    idf_spec: Optional[SegmentSpec],
    mode: str,
) -> Dict[int, object]:
    key = (ctx_spec[0], mask_spec[0] if mask_spec else None, idf_spec[0] if idf_spec else None, mode)
    table = _profiles.get(key)
    if table is None:
        _profiles[key] = table = {}
    return table


def _tfidf_profile(o, tok_ptr, tok_ids, tok_counts, mask, idf) -> Optional[SparseVector]:
    """The TF-IDF vector of one ordinal, mirroring ``_build_from_context``.

    Same exact integers (ids/counts ascending by token id), same term-
    frequency expression, same driver-computed idf floats, same ``fsum``
    norm: the resulting :class:`SparseVector` is the very ``weight_map`` the
    profile store would hand to :func:`weighted_cosine`.  ``None`` stands
    for an empty profile (scored as an empty mapping, like the store's).
    """
    lo, hi = tok_ptr[o], tok_ptr[o + 1]
    if mask is None:
        kept = list(zip(tok_ids[lo:hi], tok_counts[lo:hi]))
    else:
        kept = [
            (token_id, count)
            for token_id, count in zip(tok_ids[lo:hi], tok_counts[lo:hi])
            if mask[token_id]
        ]
    if not kept:
        return None
    max_count = max(count for _, count in kept)
    weights = [
        (0.5 + 0.5 * count / max_count) * idf[token_id] for token_id, count in kept
    ]
    norm = math.sqrt(math.fsum(w * w for w in weights))
    return SparseVector(
        ((token_id, weight) for (token_id, _), weight in zip(kept, weights)),
        norm=norm,
    )


def _set_profile(o, tok_ptr, tok_ids, mask) -> frozenset:
    ids = tok_ids[tok_ptr[o] : tok_ptr[o + 1]]
    if mask is None:
        return frozenset(ids)
    return frozenset(token_id for token_id in ids if mask[token_id])


def similarity_scores_job(args) -> array:
    """Similarity of one contiguous slice of an ordinal-pair batch."""
    ctx_spec, mask_spec, idf_spec, mode, similarity_name, first, second = args
    views = _segment(ctx_spec).views
    tok_ptr = views["tok_ptr"]
    tok_ids = views["tok_ids"]
    tok_counts = views["tok_counts"]
    mask = _segment(mask_spec).views["mask"] if mask_spec is not None else None
    idf = _segment(idf_spec).views["idf"] if idf_spec is not None else None
    table = _profile_table(ctx_spec, mask_spec, idf_spec, mode)
    scores = array("d")
    if mode == "tfidf":
        for a, b in zip(first, second):
            vector_a = table.get(a, False)
            if vector_a is False:
                table[a] = vector_a = _tfidf_profile(a, tok_ptr, tok_ids, tok_counts, mask, idf)
            vector_b = table.get(b, False)
            if vector_b is False:
                table[b] = vector_b = _tfidf_profile(b, tok_ptr, tok_ids, tok_counts, mask, idf)
            scores.append(weighted_cosine(vector_a or {}, vector_b or {}))
    else:
        for a, b in zip(first, second):
            set_a = table.get(a)
            if set_a is None:
                table[a] = set_a = _set_profile(a, tok_ptr, tok_ids, mask)
            set_b = table.get(b)
            if set_b is None:
                table[b] = set_b = _set_profile(b, tok_ptr, tok_ids, mask)
            scores.append(
                _set_score(similarity_name, len(set_a), len(set_b), len(set_a & set_b))
            )
    return scores
