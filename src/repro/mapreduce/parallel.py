"""The multi-process parallel engine over shared pipeline columns.

:class:`ParallelEngine` is the driver side of the real (non-simulated)
parallel execution path: it shards the flat columns of a
:class:`~repro.core.context.PipelineContext` or
:class:`~repro.metablocking.entity_index.EntityIndexEngine` by contiguous
entity-ordinal ranges (:func:`~repro.mapreduce.balancing.contiguous_partitions`
balances the ranges by per-entity cost), exposes the columns to a
``multiprocessing`` pool through :class:`~repro.mapreduce.shm.ColumnSegment`
shared memory, and concatenates the per-partition result columns back in
range order.  The worker-side kernels live in :mod:`repro.mapreduce.worker`.

The engine parallelises exactly the stages whose sequential engines it can
reproduce bit for bit -- token-blocking postings, meta-blocking node-weight
streams (all weighting schemes, including the ECBS/EJS global factors), and
batched profile-similarity scoring -- and the callers in
:mod:`repro.blocking.engine`, :mod:`repro.metablocking.pipeline` and
:mod:`repro.matching.engine` fall back to their single-process paths for
anything else, so plugging an engine in never changes a result.

Lifecycle: the engine owns every shared-memory segment it creates and every
pool process it forks; :meth:`close` (or use as a context manager) tears both
down deterministically -- segments are unlinked driver-side, and workers only
ever attach (see :mod:`repro.mapreduce.shm` for the tracker discipline that
keeps ``resource_tracker`` silent).  Unlike the sequential pruning passes,
whose transient memory is bounded by one neighbourhood, the driver holds each
fanned-out weight round in full while the pruning pass consumes it.

Fault tolerance: every stage dispatches through a
:class:`~repro.mapreduce.supervisor.Supervisor` rather than a bare
``pool.map`` -- dead workers are detected, the pool is rebuilt, failed shards
retry with bounded exponential backoff, and on retry exhaustion the engine
either raises :class:`~repro.mapreduce.supervisor.WorkerFailureError` or
(default) recomputes the lost shards serially on the driver, bit-identically,
warning with :class:`~repro.mapreduce.supervisor.DegradedExecutionWarning`.
Segments carry a janitor-parseable run prefix and engine construction sweeps
orphans left by crashed previous runs (:func:`repro.mapreduce.shm.sweep`).
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.unionfind import IntUnionFind
from repro.datamodel.pairs import ComparisonColumns, canonical_pair, identifier_ranks
from repro.mapreduce import shm, worker
from repro.mapreduce.balancing import contiguous_partitions
from repro.mapreduce.shm import ColumnSegment, SegmentSpec
from repro.mapreduce.supervisor import Supervisor

def _extend_int64(destination: array, column) -> None:
    """Append ``column`` (array/ndarray/sequence of ints) to an ``array('q')``."""
    if isinstance(column, np.ndarray):
        destination.frombytes(np.ascontiguousarray(column, dtype=np.int64).tobytes())
    else:
        destination.extend(column)


class ParallelEngine:
    """Multi-process executor over shared-memory pipeline columns.

    Parameters
    ----------
    num_workers:
        Number of worker processes in the pool.  ``1`` still runs through a
        one-process pool (so single-worker timings measure the real parallel
        path, IPC included).
    start_method:
        ``multiprocessing`` start method; ``None`` picks ``fork`` when the
        platform offers it (workers then inherit the interpreter state) and
        the platform default otherwise.
    worker_timeout:
        No-progress timeout in seconds for each shard batch (the clock
        re-arms on every completed shard); ``None`` disables it.  Required to
        recover from silently *hung* workers -- dead ones are detected
        without it.
    max_shard_retries:
        How many times a failed shard is re-dispatched to a rebuilt pool
        before ``on_worker_failure`` applies.
    on_worker_failure:
        ``"degrade"`` (default): recompute exhausted shards serially on the
        driver (bit-identical, with a
        :class:`~repro.mapreduce.supervisor.DegradedExecutionWarning`);
        ``"raise"``: abort with
        :class:`~repro.mapreduce.supervisor.WorkerFailureError`.

    Notes
    -----
    The engine is handed to :class:`~repro.blocking.engine.BlockingEngine`,
    :class:`~repro.metablocking.pipeline.MetaBlocking` and
    :class:`~repro.matching.engine.MatchingEngine` via their ``parallel``
    parameters; they call back into the three public stage methods below.
    Always :meth:`close` the engine (or use ``with``): that terminates the
    pool and unlinks every shared-memory segment.  Per-stage retry/degrade
    counters accumulate in :attr:`fault_stats`.
    """

    def __init__(
        self,
        num_workers: int = 4,
        start_method: Optional[str] = None,
        worker_timeout: Optional[float] = None,
        max_shard_retries: int = 2,
        on_worker_failure: str = "degrade",
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.num_workers = num_workers
        self._start_method = start_method
        self._supervisor = Supervisor(
            self._build_pool,
            timeout=worker_timeout,
            max_retries=max_shard_retries,
            on_failure=on_worker_failure,
            inline_cleanup=worker.release_attachments,
        )
        self._segments: List[ColumnSegment] = []
        self._segment_prefix = shm.new_run_prefix()
        self._segment_seq = 0
        # caches hold strong references to their keys' objects so an id()
        # can never be recycled while its entry is alive
        self._context_entries: Dict[int, Tuple[object, dict]] = {}
        self._mask_specs: Dict[Tuple[int, int], Tuple[object, Optional[SegmentSpec]]] = {}
        self._idf_specs: Dict[Tuple[int, int], Tuple[object, SegmentSpec]] = {}
        self._index_entries: Dict[int, Tuple[object, dict]] = {}
        self._closed = False
        # a crashed previous run cannot clean up after itself: its successor
        # does, before allocating segments of its own
        shm.sweep()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def fault_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-stage ``{"retries", "degraded", "pool_rebuilds"}`` counters.

        Stages that never saw a failure never appear; an empty dict is the
        happy path.
        """
        return self._supervisor.stats

    def _build_pool(self):
        method = self._start_method
        if method is None and "fork" in multiprocessing.get_all_start_methods():
            method = "fork"
        context = (
            multiprocessing.get_context(method)
            if method is not None
            else multiprocessing.get_context()
        )
        # only spawned workers run their own resource tracker; forked
        # (and forkserver) workers share the driver's -- see shm.py.
        # The driver's tracker must exist BEFORE the fork: otherwise a
        # forked worker's first attach starts a private tracker that,
        # when the worker exits, unlinks every segment it ever saw out
        # from under the driver and its remaining workers.
        if context.get_start_method() != "spawn":
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        return context.Pool(
            processes=self.num_workers,
            initializer=worker.configure,
            initargs=(context.get_start_method() == "spawn",),
        )

    def _run(self, job, tasks: Sequence[tuple], stage: str) -> list:
        if self._closed:
            raise RuntimeError("ParallelEngine is closed")
        return self._supervisor.run(job, tasks, stage)

    def _segment(self, columns) -> ColumnSegment:
        if self._closed:
            raise RuntimeError("ParallelEngine is closed")
        segment = ColumnSegment(columns, name=f"{self._segment_prefix}-{self._segment_seq}")
        self._segment_seq += 1
        self._segments.append(segment)
        return segment

    def close(self) -> None:
        """Terminate the pool and unlink every shared-memory segment.

        Idempotent and exception-safe: the pool teardown is bounded by a
        watchdog (a wedged worker is killed rather than joined forever, see
        :func:`repro.mapreduce.supervisor.shutdown_pool`), and every segment
        is destroyed even if destroying one of them raises.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._supervisor.shutdown()
        finally:
            segments, self._segments = self._segments, []
            errors = []
            for segment in segments:
                try:
                    segment.destroy()
                except Exception as error:  # pragma: no cover - defensive
                    errors.append(error)
            self._context_entries.clear()
            self._mask_specs.clear()
            self._idf_specs.clear()
            self._index_entries.clear()
            if errors:  # pragma: no cover - defensive
                raise errors[0]

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - safety net only
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # shared-column export
    # ------------------------------------------------------------------
    def _context_entry(self, context) -> dict:
        """The shared token-CSR segment of ``context`` (exported once)."""
        key = id(context)
        cached = self._context_entries.get(key)
        if cached is not None and cached[0] is context:
            return cached[1]
        num_descriptions = context.num_descriptions
        tok_ptr = array("q", [0])
        tok_ids = array("q")
        tok_counts = array("q")
        for ordinal in range(num_descriptions):
            ids_column, counts_column = context.token_counts(ordinal)
            _extend_int64(tok_ids, ids_column)
            _extend_int64(tok_counts, counts_column)
            tok_ptr.append(len(tok_ids))
        segment = self._segment(
            {
                "tok_ptr": ("q", tok_ptr),
                "tok_ids": ("q", tok_ids),
                "tok_counts": ("q", tok_counts),
            }
        )
        entry = {"spec": segment.spec, "n": num_descriptions, "tok_ptr": tok_ptr}
        self._context_entries[key] = (context, entry)
        return entry

    def _mask_spec(self, context, stop_words, min_token_length) -> Optional[SegmentSpec]:
        """The shared admission mask of one token-filter config (``None`` if trivial)."""
        token_filter = context.token_filter(stop_words, min_token_length)
        if token_filter.trivial:
            return None
        key = (id(context), id(token_filter))
        cached = self._mask_specs.get(key)
        if cached is not None and cached[0] is token_filter:
            return cached[1]
        mask = token_filter.mask(context.vocabulary_size)
        segment = self._segment({"mask": ("B", mask)})
        self._mask_specs[key] = (token_filter, segment.spec)
        return segment.spec

    def _idf_spec(self, context, vectorizer) -> SegmentSpec:
        """The shared idf column of a fitted vectorizer over the vocabulary."""
        key = (id(context), id(vectorizer))
        cached = self._idf_specs.get(key)
        if cached is not None and cached[0] is vectorizer:
            return cached[1]
        idf = array(
            "d",
            (
                vectorizer.idf(context.token(token_id))
                for token_id in range(context.vocabulary_size)
            ),
        )
        segment = self._segment({"idf": ("d", idf)})
        self._idf_specs[key] = (vectorizer, segment.spec)
        return segment.spec

    # ------------------------------------------------------------------
    # context interning
    # ------------------------------------------------------------------
    def intern_context(self, context) -> bool:
        """Build ``context``'s interned columns with the pool (sharded interning).

        Workers tokenise contiguous description ranges into local
        vocabularies; the driver merges the shard vocabularies in range order
        (get-or-assign reproduces the serial first-occurrence id order) and
        remaps the per-attribute columns and streams, so ordinals, vocabulary
        order and every column are byte-identical to the serial
        ``_intern_all`` pass.  Returns ``False`` -- leaving the context to
        intern itself serially -- when there is nothing to shard (an already
        interned or near-empty context).
        """
        if context is None or context._interned:
            return False
        descriptions = context._collect_descriptions()
        if len(descriptions) < 2:
            return False
        payloads = []
        costs = []
        for description in descriptions:
            attributes = tuple(
                (attribute, description.values(attribute))
                for attribute in description.attribute_names
            )
            payloads.append(attributes)
            costs.append(
                1 + sum(len(value) for _, values in attributes for value in values)
            )
        tasks = [
            (payloads[start:stop],)
            for start, stop in contiguous_partitions(costs, self.num_workers)
        ]
        shards = self._run(worker.intern_descriptions_job, tasks, "interning")
        context._intern_shards(descriptions, shards)
        return True

    # ------------------------------------------------------------------
    # blocking
    # ------------------------------------------------------------------
    def token_postings(self, builder, context) -> Dict[int, array]:
        """Token postings (``token id -> ascending description ordinals``) of
        ``context`` under ``builder``'s admission rule, built by the pool.

        Partitions are balanced by per-description token count; each worker
        returns its range's local postings and the range-order merge
        reproduces the sequential builder's posting content exactly (ordinals
        ascend within and across ranges).
        """
        entry = self._context_entry(context)
        mask_spec = self._mask_spec(context, builder.stop_words, builder.min_token_length)
        tok_ptr = entry["tok_ptr"]
        costs = [tok_ptr[o + 1] - tok_ptr[o] for o in range(entry["n"])]
        tasks = [
            (entry["spec"], mask_spec, start, stop)
            for start, stop in contiguous_partitions(costs, self.num_workers)
        ]
        postings: Dict[int, array] = {}
        for token_column, counts, flat in self._run(worker.token_postings_job, tasks, "postings"):
            position = 0
            for token_id, count in zip(token_column, counts):
                posting = postings.get(token_id)
                if posting is None:
                    postings[token_id] = posting = array("q")
                posting.extend(flat[position : position + count])
                position += count
        return postings

    # ------------------------------------------------------------------
    # block cleaning
    # ------------------------------------------------------------------
    def block_cardinalities(self, blocks) -> array:
        """Cardinality column of ``blocks`` (block purging), built by the pool.

        The driver ships only per-block ``(size, split)`` pairs; workers
        compute their range's ``Block.num_comparisons`` integers and the
        range-order concatenation equals the sequential column exactly.
        """
        lens = array("q")
        splits = array("q")
        for block in blocks:
            if block.is_bilateral:
                left = len(block.left_members)
                lens.append(left + len(block.right_members))
                splits.append(left)
            else:
                lens.append(len(block.members))
                splits.append(-1)
        segment = self._segment({"blk_len": ("q", lens), "blk_split": ("q", splits)})
        tasks = [
            (segment.spec, start, stop)
            for start, stop in contiguous_partitions([1] * len(lens), self.num_workers)
        ]
        cards = array("q")
        for chunk in self._run(worker.block_cardinalities_job, tasks, "cardinalities"):
            cards.extend(chunk)
        return cards

    def filter_keep_flags(self, ent_of, card_of, num_entities, ratio) -> bytearray:
        """Keep flags over the assignment positions (block filtering).

        Entities are sharded into contiguous ordinal ranges balanced by
        degree; each worker ranks its entities' assignments with the same
        stable (cardinality, block index) sort the sequential pass runs, and
        since per-entity decisions are independent the OR of the ranges'
        keep sets is bit-identical to the sequential flags.
        """
        keep_flags = bytearray(len(ent_of))
        segment = self._segment({"ent_of": ("q", ent_of), "card_of": ("q", card_of)})
        degrees = [0] * num_entities
        for o in ent_of:
            degrees[o] += 1
        costs = [degree + 1 for degree in degrees]
        tasks = [
            (segment.spec, ratio, start, stop)
            for start, stop in contiguous_partitions(costs, self.num_workers)
        ]
        for chunk in self._run(worker.filter_keep_job, tasks, "filtering"):
            for position in chunk:
                keep_flags[position] = 1
        return keep_flags

    def propagate_pairs(self, blocks) -> "object":
        """Comparison propagation of ``blocks``, fanned out over block ranges.

        The driver interns members block-major (the sequential intern order),
        ships the CSR layout plus identifier ranks, and workers stream their
        range's comparisons as dedup codes with canonical endpoints and a
        bilateral orientation flag, deduplicated locally.  The driver then
        resolves global first occurrences through one seen-set walked in
        range order -- reproducing the sequential pass's emission sequence,
        key strings and left/right orientation -- and re-raises the oracle's
        self-pair error at the exact comparison the sequential pass would.
        """
        from repro.blocking.base import Block, BlockCollection

        ordinal: Dict[str, int] = {}
        intern = ordinal.setdefault
        ent_of = array("q")
        blk_ptr = array("q", [0])
        blk_split = array("q")
        costs = []
        for block in blocks:
            if block.is_bilateral:
                left = block.left_members
                right = block.right_members
                for member in left:
                    ent_of.append(intern(member, len(ordinal)))
                for member in right:
                    ent_of.append(intern(member, len(ordinal)))
                blk_split.append(len(left))
                costs.append(1 + len(left) * len(right))
            else:
                members = block.members
                for member in members:
                    ent_of.append(intern(member, len(ordinal)))
                blk_split.append(-1)
                size = len(members)
                costs.append(1 + size * (size - 1) // 2)
            blk_ptr.append(len(ent_of))
        ids = list(ordinal)
        rank_column = array("q")
        _extend_int64(rank_column, identifier_ranks(ids))
        segment = self._segment(
            {
                "blk_ptr": ("q", blk_ptr),
                "blk_split": ("q", blk_split),
                "ent_of": ("q", ent_of),
                "ranks": ("q", rank_column),
            }
        )
        tasks = [
            (segment.spec, start, stop)
            for start, stop in contiguous_partitions(costs, self.num_workers)
        ]
        deduplicated = BlockCollection(name=f"{blocks.name}/propagated")
        seen = set()
        seen_add = seen.add
        out = []
        append = out.append
        pair = Block.pair
        bilateral_pair = Block.bilateral_pair
        for codes, firsts, seconds, flags, error in self._run(worker.propagate_pairs_job, tasks, "propagation"):
            for code, f, s, orientation in zip(codes, firsts, seconds, flags):
                if code in seen:
                    continue
                seen_add(code)
                first = ids[f]
                second = ids[s]
                if orientation == 0:
                    append(pair(f"pair:{first}|{second}", first, second))
                elif orientation == 1:
                    append(bilateral_pair(f"pair:{first}|{second}", first, second))
                else:
                    append(bilateral_pair(f"pair:{first}|{second}", second, first))
            if error is not None:
                block_index, left_pos, right_pos = error
                block = blocks[block_index]
                canonical_pair(
                    block.left_members[left_pos], block.right_members[right_pos]
                )
        deduplicated._extend_trusted(out)
        return deduplicated

    # ------------------------------------------------------------------
    # meta-blocking
    # ------------------------------------------------------------------
    def install_node_weights(self, index_engine) -> bool:
        """Fan ``index_engine``'s node-weight stream out to the pool.

        Exports the index's CSR columns (plus the identifier-rank column that
        stands in for string comparisons) to shared memory and installs a
        ``node_weights_source`` on the engine, so every pruning pass and
        weight stream transparently consumes the pooled rounds.  Returns
        ``False`` -- leaving the engine untouched -- when there is nothing to
        parallelise (an empty index).
        """
        if index_engine.num_entities == 0:
            return False
        entry = self._index_entry(index_engine)

        def source(scheme: str, lower: bool):
            rounds = self._node_weight_rounds(index_engine, entry, scheme, lower)
            for nodes, ptr, neighbours_flat, weights_flat in rounds:
                np_neighbours = np.frombuffer(neighbours_flat, dtype=np.int64)
                np_weights = np.frombuffer(weights_flat, dtype=np.float64)
                for position, node in enumerate(nodes):
                    lo, hi = ptr[position], ptr[position + 1]
                    yield node, np_neighbours[lo:hi], np_weights[lo:hi]

        index_engine.node_weights_source = source
        return True

    def retained_edges(self, index_engine, scheme: str, pruning: str, budget=None, k=None):
        """Run ``pruning`` under ``scheme`` with pooled retained-edge emission.

        Unlike :meth:`install_node_weights` -- which ships every edge weight
        back to the driver for it to prune -- the per-node threshold/top-k
        selection itself runs in the workers over contiguous node ranges, so
        only *retained* edges (plus O(nodes) threshold columns and O(budget)
        candidate buffers) ever cross the process boundary.  Driver-side
        concatenation in range order reproduces the sequential emission
        order, tie-breaks included; the run statistics are installed on
        ``index_engine`` exactly as a sequential pass would.  Returns the
        retained :class:`WeightedEdge` list, or ``None`` for an empty index
        (the caller falls back to the sequential path).
        """
        if index_engine.num_entities == 0:
            return None
        if pruning == "CEP" and budget is not None and budget < 0:
            raise ValueError(f"CEP budget must be non-negative, got {budget}")
        entry = self._index_entry(index_engine)
        factors_spec = self._factors_spec(index_engine, entry, scheme)
        edge = index_engine._edge
        parts = entry["parts"]

        if pruning == "WEP":
            tasks = [
                (entry["spec"], factors_spec, scheme, start, stop)
                for start, stop in parts
            ]
            count = 0
            partials: List[float] = []
            for shard_count, shard_partials in self._run(worker.wep_stats_job, tasks, "wep_stats"):
                count += shard_count
                partials.extend(shard_partials)
            if count == 0:
                index_engine._finish(0, 0)
                return []
            # the shards' exact-sum expansions concatenate into one stream
            # whose fsum equals the sequential full-stream fsum exactly
            threshold = math.fsum(partials) / count
            tasks = [
                (entry["spec"], factors_spec, scheme, threshold, start, stop)
                for start, stop in parts
            ]
            retained = []
            for firsts, seconds, weights in self._run(worker.wep_emit_job, tasks, "wep_emit"):
                for i, j, weight in zip(firsts, seconds, weights):
                    retained.append(edge(i, j, weight))
            index_engine._finish(count, len(retained))
            return retained

        if pruning in ("WNP", "ReciprocalWNP"):
            reciprocal = pruning == "ReciprocalWNP"
            num_entities = index_engine.num_entities
            thresholds = array("d", bytes(8 * num_entities))
            total = 0
            tasks = [
                (entry["spec"], factors_spec, scheme, start, stop)
                for start, stop in parts
            ]
            for (start, stop), (counts, sums, shard_total) in zip(
                parts, self._run(worker.wnp_stats_job, tasks, "wnp_stats")
            ):
                total += shard_total
                for offset, degree in enumerate(counts):
                    if degree:
                        thresholds[start + offset] = sums[offset] / degree
            num_edges = total // 2
            if num_edges == 0:
                index_engine._finish(0, 0)
                return []
            thresholds_spec = self._segment({"thresholds": ("d", thresholds)}).spec
            tasks = [
                (
                    entry["spec"],
                    factors_spec,
                    scheme,
                    thresholds_spec,
                    reciprocal,
                    start,
                    stop,
                )
                for start, stop in parts
            ]
            retained = []
            for firsts, seconds, weights in self._run(worker.wnp_emit_job, tasks, "wnp_emit"):
                for i, j, weight in zip(firsts, seconds, weights):
                    retained.append(edge(i, j, weight))
            index_engine._finish(num_edges, len(retained))
            return retained

        if pruning in ("CNP", "ReciprocalCNP"):
            reciprocal = pruning == "ReciprocalCNP"
            if k is None:
                nodes = max(1, index_engine.num_entities)
                k = max(1, int(round(index_engine.num_assignments / nodes)) - 1)
            tasks = [
                (entry["spec"], factors_spec, scheme, k, start, stop)
                for start, stop in parts
            ]
            endorsed: Dict[Tuple[int, int], list] = {}
            total = 0
            for a_column, b_column, w_column, shard_total in self._run(worker.cnp_endorse_job, tasks, "cnp"):
                total += shard_total
                for a, b, weight in zip(a_column, b_column, w_column):
                    pair = (a, b) if a < b else (b, a)
                    endorsement = endorsed.get(pair)
                    if endorsement is None:
                        endorsed[pair] = [weight, 1]
                    else:
                        endorsement[1] += 1
            num_edges = total // 2
            needed = 2 if reciprocal else 1
            retained = []
            for (a, b), (weight, endorsements) in endorsed.items():
                if endorsements >= needed and weight > 0:
                    retained.append(edge(a, b, weight))
            index_engine._finish(num_edges, len(retained))
            return retained

        # CEP
        if budget is None:
            budget = max(1, index_engine.num_assignments // 2)
        tasks = [
            (entry["spec"], factors_spec, scheme, budget, start, stop)
            for start, stop in parts
        ]
        count = 0
        merged = []
        for shard_count, neg_column, rank_f, rank_s, a_column, b_column in self._run(worker.cep_candidates_job, tasks, "cep"):
            count += shard_count
            merged.extend(zip(neg_column, rank_f, rank_s, a_column, b_column))
        final = heapq.nsmallest(budget, merged)
        retained = [edge(a, b, -neg_weight) for neg_weight, _rf, _rs, a, b in final]
        index_engine._finish(count, len(retained))
        return retained

    def _index_entry(self, index_engine) -> dict:
        key = id(index_engine)
        cached = self._index_entries.get(key)
        if cached is not None and cached[0] is index_engine:
            return cached[1]
        ranks = identifier_ranks(index_engine._ids)
        rank_column = array("q")
        _extend_int64(rank_column, ranks)
        segment = self._segment(
            {
                "blk_ptr": ("q", index_engine._blk_ptr),
                "blk_ents": ("q", index_engine._blk_ents),
                "blk_split": ("q", index_engine._blk_split),
                "recip": ("d", index_engine._recip),
                "ent_ptr": ("q", index_engine._ent_ptr),
                "ent_blocks": ("q", index_engine._ent_blocks),
                "ent_side": ("b", index_engine._ent_side),
                "ranks": ("q", rank_column),
            }
        )
        ent_ptr = index_engine._ent_ptr
        costs = [
            ent_ptr[node + 1] - ent_ptr[node] + 1
            for node in range(index_engine.num_entities)
        ]
        entry = {
            "spec": segment.spec,
            "parts": contiguous_partitions(costs, self.num_workers),
            "factors": {},
            "rounds": {},
        }
        self._index_entries[key] = (index_engine, entry)
        return entry

    def _node_weight_rounds(self, index_engine, entry: dict, scheme: str, lower: bool):
        """One pooled pass of the (scheme, lower) weight stream, cached.

        Pruning schemes consume the same stream up to twice (threshold pass
        then emission pass), so each round is fanned out once and replayed
        from the driver-side cache afterwards.
        """
        key = (scheme, lower)
        cached = entry["rounds"].get(key)
        if cached is not None:
            return cached
        factors_spec = self._factors_spec(index_engine, entry, scheme)
        tasks = [
            (entry["spec"], factors_spec, scheme, lower, start, stop)
            for start, stop in entry["parts"]
        ]
        rounds = self._run(worker.node_weights_job, tasks, "weights")
        entry["rounds"][key] = rounds
        return rounds

    def _factors_spec(self, index_engine, entry: dict, scheme: str) -> Optional[SegmentSpec]:
        """The shared global-factor column of ECBS/EJS (``None`` for local schemes)."""
        if scheme not in ("ECBS", "EJS"):
            return None
        cached = entry["factors"].get(scheme)
        if cached is not None:
            return cached
        if scheme == "EJS" and index_engine._degree_cache is None:
            self._pooled_degrees(index_engine, entry)
        factors = array("d", index_engine._factors(scheme))
        segment = self._segment({"factors": ("d", factors)})
        entry["factors"][scheme] = segment.spec
        return segment.spec

    def _pooled_degrees(self, index_engine, entry: dict) -> None:
        """Fill the index's EJS degree cache from pooled partial-degree rounds.

        Each worker returns the degree contributions of its node range as a
        full-length integer column; summing the columns is a commutative
        integer reduction, so the result equals the sequential
        ``_degrees`` column exactly.
        """
        tasks = [(entry["spec"], start, stop) for start, stop in entry["parts"]]
        results = self._run(worker.partial_degrees_job, tasks, "degrees")
        num_entities = index_engine.num_entities
        num_edges = 0
        accumulated = np.zeros(num_entities, dtype=np.int64)
        for degrees, edges in results:
            if len(degrees):
                accumulated += np.frombuffer(degrees, dtype=np.int64)
            num_edges += edges
        total = array("q")
        total.frombytes(accumulated.tobytes())
        index_engine._degree_cache = (total, num_edges)

    # ------------------------------------------------------------------
    # comparison columns
    # ------------------------------------------------------------------
    def weight_sort(self, columns):
        """``columns.weight_sorted()`` with pooled per-shard sorting.

        Row ranges are argsorted by the full ``(-weight, rank(first),
        rank(second))`` key in the workers, and the driver k-way merges the
        shard orders (heap merge over the same key, with the absolute row
        index as the final stability tie-break).  The resulting permutation
        -- and therefore the output columns -- is identical to the
        sequential sort's.  Returns ``None`` when there is nothing to sort
        (the caller falls back to :meth:`ComparisonColumns.weight_sorted`).
        """
        n = len(columns)
        if n <= 1 or columns.weight_ordered:
            return None
        rank_column = array("q")
        _extend_int64(rank_column, identifier_ranks(columns.ids))
        exported = {
            "rank": ("q", rank_column),
            "first": ("q", columns.first),
            "second": ("q", columns.second),
        }
        has_weights = columns.weights is not None
        if has_weights:
            exported["weights"] = ("d", columns.weights)
        segment = self._segment(exported)
        tasks = [
            (segment.spec, has_weights, start, stop)
            for start, stop in contiguous_partitions([1] * n, self.num_workers)
        ]
        shards = self._run(worker.weight_sort_job, tasks, "weight_sort")
        first = columns.first
        second = columns.second
        weights = columns.weights
        rank = rank_column

        def keyed(shard):
            # the trailing row index only decides full-key ties: within a
            # shard indices ascend (stable shard sort) and across shards the
            # earlier shard holds the smaller indices, so it reproduces the
            # sequential sort's stability exactly
            if has_weights:
                for i in shard:
                    yield (-weights[i], rank[first[i]], rank[second[i]], i)
            else:
                for i in shard:
                    yield (rank[first[i]], rank[second[i]], i)

        sorted_first = array("q")
        sorted_second = array("q")
        sorted_weights = array("d") if has_weights else None
        for row in heapq.merge(*(keyed(shard) for shard in shards)):
            i = row[-1]
            sorted_first.append(first[i])
            sorted_second.append(second[i])
            if has_weights:
                sorted_weights.append(weights[i])
        return ComparisonColumns(
            columns.ids,
            sorted_first,
            sorted_second,
            sorted_weights,
            descriptions=columns.descriptions,
            distinct=columns.distinct,
            weight_ordered=True,
        )

    # ------------------------------------------------------------------
    # clustering
    # ------------------------------------------------------------------
    def cluster_links(self, first, second, is_match, num_ids: int):
        """Connected components of the positive rows, via per-shard union--find.

        ``first``/``second`` must already be in canonical orientation (the
        clustering engine's ``_canonical_rows``).  Workers scan contiguous
        row ranges -- each running the sequential union--find pass locally
        -- and the driver links every locally touched member to its local
        root, shard by shard in range order.  The merged partition equals
        the sequential one (a union of equivalence relations over the same
        edges) and the deduplicated shard orders reproduce the sequential
        first-touch order, so the grouped clusters come out in the identical
        list order.  Returns ``(links, order)``, or ``None`` when there is
        nothing to fan out.
        """
        n = len(first)
        if n == 0 or num_ids == 0:
            return None
        segment = self._segment(
            {
                "first": ("q", first),
                "second": ("q", second),
                "is_match": ("B", is_match),
            }
        )
        tasks = [
            (segment.spec, num_ids, start, stop)
            for start, stop in contiguous_partitions([1] * n, self.num_workers)
        ]
        links = IntUnionFind(num_ids)
        touched = bytearray(num_ids)
        order: List[int] = []
        append = order.append
        for shard_order, shard_roots in self._run(worker.cluster_links_job, tasks, "clustering"):
            for member, root in zip(shard_order, shard_roots):
                if not touched[member]:
                    touched[member] = 1
                    append(member)
                if member != root:
                    links.union(root, member)
        return links, order

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def similarity_scores(self, context, matcher, ordinal_pairs) -> List[float]:
        """Profile similarity of ``(left ordinal, right ordinal)`` pairs.

        Workers rebuild each touched description's profile from the shared
        token CSR (TF-IDF weights from the shared idf column, set profiles
        through the shared admission mask) and score their slice of the pair
        batch with the oracle expressions; concatenating the slices in
        partition order restores input order.
        """
        entry = self._context_entry(context)
        if matcher.vectorizer is not None:
            mode = "tfidf"
            similarity_name = ""
            mask_spec = self._mask_spec(context, None, matcher.vectorizer.min_token_length)
            idf_spec = self._idf_spec(context, matcher.vectorizer)
        else:
            mode = "set"
            similarity_name = matcher.similarity_name
            mask_spec = self._mask_spec(context, matcher.stop_words, matcher.min_token_length)
            idf_spec = None
        first = array("q", (pair[0] for pair in ordinal_pairs))
        second = array("q", (pair[1] for pair in ordinal_pairs))
        tasks = [
            (
                entry["spec"],
                mask_spec,
                idf_spec,
                mode,
                similarity_name,
                first[start:stop],
                second[start:stop],
            )
            for start, stop in contiguous_partitions([1.0] * len(first), self.num_workers)
        ]
        scores: List[float] = []
        for chunk in self._run(worker.similarity_scores_job, tasks, "scoring"):
            scores.extend(chunk)
        return scores
