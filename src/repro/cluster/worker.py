"""Shard-worker process: owns a contiguous slice of score shards.

A worker holds its row-block shards in named shared-memory segments
(mapped by the parent for zero-copy reads), applies the row slice of
each broadcast :class:`~repro.incremental.plan.UpdatePlan` locally —
the union-support GEMM runs here, outside the parent's GIL — and
maintains its slice of the shard-local top-k heaps.  The main loop is a
strict request/response dispatcher over one pipe; see
:mod:`repro.cluster.messages` for the protocol.

Copy-on-write discipline: every shard starts (and restarts) in the
``shared`` state, so the first write after a spawn, respawn, or
:class:`~repro.cluster.messages.MarkSharedCmd` always lands in a fresh
segment.  That invariant is what makes crash recovery exact — the
segments named by the parent's replay base are never written again, so
a respawned worker can reload them and replay the journal to the
bit-identical current state.
"""

from __future__ import annotations

import time
import traceback
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..executor.topk_index import ShardTopK
from ..incremental.plan import PackedPlanBatch
from ..linalg.scatter import scatter_add
from .messages import (
    AddNodeCmd,
    AddRowsCmd,
    ApplyBatchCmd,
    ApplyPlanCmd,
    MarkSharedCmd,
    MetricsCmd,
    PingCmd,
    Reply,
    ReplaceRowsCmd,
    SegmentSpec,
    SetEntryCmd,
    ShutdownCmd,
    TopKConfigCmd,
    TopKRescanCmd,
    WorkerInit,
    word_checksums,
)
from .shm import attach_segment, create_segment, ndarray_view, segment_nbytes


class _StagingReader:
    """Cached attachments to the parent's batch-staging segments.

    The pool cycles batches through a tiny reusable slot ring, so a
    worker normally re-reads the same one or two segment names forever;
    a name changes only when the parent grew a slot.  Attachments are
    cached by name and the cache is bounded — anything beyond the last
    few names is a dead slot the parent already replaced.
    """

    _CACHE_LIMIT = 4

    def __init__(self) -> None:
        self._segments: Dict[str, object] = {}

    def words(self, name: str, count: int) -> np.ndarray:
        """An int64 view of the first ``count`` words of segment ``name``."""
        segment = self._segments.get(name)
        if segment is None:
            segment = attach_segment(name)
            self._segments[name] = segment
            while len(self._segments) > self._CACHE_LIMIT:
                for old in list(self._segments):
                    if old != name:
                        self._segments.pop(old).close()
                        break
        return np.ndarray((count,), dtype=np.int64, buffer=segment.buf)

    def close(self) -> None:
        for segment in self._segments.values():
            segment.close()
        self._segments.clear()


class _WorkerShard:
    """One owned shard: shared-memory buffer + sharing state."""

    __slots__ = ("base", "rows", "segment", "buffer", "name", "shared")

    def __init__(self, spec: SegmentSpec, segment, buffer) -> None:
        self.base = spec.base
        self.rows = spec.rows
        self.segment = segment
        self.buffer = buffer
        self.name = spec.name
        # Every (re)loaded shard is treated as snapshot-pinned: the
        # parent's replay base references exactly these segments.
        self.shared = True


class WorkerShardStore:
    """The worker-local slice of the sharded score matrix.

    Speaks enough of the :class:`~repro.executor.score_store.ScoreStore`
    surface (``shard_rows``, ``num_shards``, ``shard_block``, ``entry``,
    ``attach_topk``) for :class:`~repro.executor.topk_index.ShardTopK`
    to maintain the worker's heap slice against it unchanged.
    """

    def __init__(self, init: WorkerInit) -> None:
        self.worker_id = init.worker_id
        self.prefix = init.prefix
        self._shard_rows = init.shard_rows
        self._n = init.num_nodes
        self.shard_lo = init.shard_lo
        self.shard_hi = init.shard_hi
        self._generation = init.generation
        self._topk = None
        self._shards: Dict[int, _WorkerShard] = {}
        #: Segment events (COW / growth) since the last reply.
        self.events: Dict[int, SegmentSpec] = {}
        #: Per-shard scatter seconds since the last reply.
        self.timing: Dict[int, float] = {}
        #: COW clones since the last reply.
        self.cow_copies = 0
        #: Segment names created since the last reply.  The parent has
        #: never seen these, so if one is replaced again before the
        #: reply ships (e.g. column growth followed by row growth in
        #: one ``add_node``), the worker must unlink it itself —
        #: otherwise nothing ever would.
        self._fresh_names: set = set()
        for spec in init.segments:
            segment = attach_segment(spec.name)
            buffer = ndarray_view(
                segment,
                (spec.rows_cap, spec.cols_cap),
                writable=True,
                dtype=spec.dtype,
            )
            self._shards[spec.shard_id] = _WorkerShard(spec, segment, buffer)

    # -------------------------------------------------------------- #
    # ScoreStore surface for ShardTopK
    # -------------------------------------------------------------- #

    @property
    def shard_rows(self) -> int:
        return self._shard_rows

    @property
    def num_shards(self) -> int:
        return self.shard_hi

    @property
    def num_nodes(self) -> int:
        return self._n

    def attach_topk(self, index) -> None:
        self._topk = index

    def shard_block(self, shard_id: int) -> Tuple[int, np.ndarray]:
        shard = self._shards[shard_id]
        return shard.base, shard.buffer[: shard.rows, : self._n]

    def entry(self, row: int, col: int) -> float:
        shard = self._shards[row // self._shard_rows]
        return float(shard.buffer[row - shard.base, col])

    # -------------------------------------------------------------- #
    # Copy-on-write segment management
    # -------------------------------------------------------------- #

    def _next_name(self) -> str:
        self._generation += 1
        return f"{self.prefix}w{self.worker_id}g{self._generation}"

    def _spec(self, shard_id: int) -> SegmentSpec:
        shard = self._shards[shard_id]
        return SegmentSpec(
            shard_id=shard_id,
            name=shard.name,
            base=shard.base,
            rows=shard.rows,
            rows_cap=shard.buffer.shape[0],
            cols_cap=shard.buffer.shape[1],
            dtype=shard.buffer.dtype.name,
        )

    def _replace_segment(
        self, shard_id: int, shape: Tuple[int, int]
    ) -> np.ndarray:
        """Move a shard into a fresh segment of ``shape`` (copying).

        The replacement keeps the shard's storage dtype — copy-on-write
        and growth never change precision.
        """
        shard = self._shards[shard_id]
        name = self._next_name()
        dtype = shard.buffer.dtype
        segment = create_segment(name, segment_nbytes(shape, dtype=dtype))
        buffer = ndarray_view(segment, shape, writable=True, dtype=dtype)
        old = shard.buffer
        copy_rows = min(old.shape[0], shape[0])
        copy_cols = min(old.shape[1], shape[1])
        buffer[:copy_rows, :copy_cols] = old[:copy_rows, :copy_cols]
        if shard.name in self._fresh_names:
            # The old segment was born after the last reply, so the
            # parent never mapped it: unlink it here or leak it.
            self._fresh_names.discard(shard.name)
            shard.segment.close()
            try:
                shard.segment.unlink()
            except OSError:
                pass
        else:
            # Close our mapping only; the parent owns the segment's
            # lifetime (a snapshot may still pin it).
            shard.segment.close()
        shard.segment = segment
        shard.buffer = buffer
        shard.name = name
        shard.shared = False
        self._fresh_names.add(name)
        self.events[shard_id] = self._spec(shard_id)
        return buffer

    def _writable(self, shard_id: int) -> np.ndarray:
        shard = self._shards[shard_id]
        if shard.shared:
            self.cow_copies += 1
            return self._replace_segment(shard_id, shard.buffer.shape)
        return shard.buffer

    def mark_shared(self) -> None:
        for shard in self._shards.values():
            shard.shared = True

    def drain_feed(self) -> Tuple[Dict[int, float], List[SegmentSpec], int]:
        """Pop (timing, segment events, cow count) for the next reply."""
        timing, self.timing = self.timing, {}
        events, self.events = list(self.events.values()), {}
        cow, self.cow_copies = self.cow_copies, 0
        self._fresh_names.clear()  # the reply hands ownership to the parent
        return timing, events, cow

    # -------------------------------------------------------------- #
    # Mutations (the worker's half of the executor)
    # -------------------------------------------------------------- #

    def apply_plan(self, plan) -> None:
        """Apply the worker's row slices of one update plan.

        Identical arithmetic to
        :meth:`repro.executor.score_store.ScoreStore.apply_plan`: the
        same :meth:`~repro.incremental.plan.UpdatePlan.blocks` GEMM and
        the same per-shard row-slice
        :func:`~repro.linalg.scatter.scatter_add` calls, so the result is
        bit-identical to the in-process executor on the rows this worker
        owns.
        """
        if plan.is_noop:
            return
        block, block_t = plan.blocks()
        self._scatter_add(plan.rows_union, plan.cols_union, block)
        self._scatter_add(plan.cols_union, plan.rows_union, block_t)
        if self._topk is not None:
            self._topk.on_plan(plan)

    def _scatter_add(self, rows, cols, block) -> None:
        if rows.size == 0 or cols.size == 0:
            return
        first = max(int(rows[0]) // self._shard_rows, self.shard_lo)
        last = min(int(rows[-1]) // self._shard_rows, self.shard_hi - 1)
        for shard_id in range(first, last + 1):
            shard = self._shards.get(shard_id)
            if shard is None:
                continue
            lo = int(np.searchsorted(rows, shard.base))
            hi = int(np.searchsorted(rows, shard.base + shard.rows))
            if lo == hi:
                continue
            started = time.perf_counter()
            buffer = self._writable(shard_id)
            scatter_add(buffer, rows[lo:hi] - shard.base, cols, block[lo:hi])
            self.timing[shard_id] = self.timing.get(shard_id, 0.0) + (
                time.perf_counter() - started
            )

    def set_entry(self, row: int, col: int, value: float) -> None:
        shard_id = row // self._shard_rows
        if shard_id not in self._shards:
            return
        started = time.perf_counter()
        buffer = self._writable(shard_id)
        buffer[row - self._shards[shard_id].base, col] = value
        self.timing[shard_id] = self.timing.get(shard_id, 0.0) + (
            time.perf_counter() - started
        )
        if self._topk is not None:
            self._topk.on_entry(row, col)

    def add_rows(self, blocks: Dict[int, np.ndarray]) -> None:
        for shard_id, delta in blocks.items():
            shard = self._shards[shard_id]
            started = time.perf_counter()
            buffer = self._writable(shard_id)
            buffer[: shard.rows, : self._n] += delta
            self.timing[shard_id] = self.timing.get(shard_id, 0.0) + (
                time.perf_counter() - started
            )
        if self._topk is not None:
            self._topk.invalidate_all()

    def replace_rows(self, blocks: Dict[int, np.ndarray]) -> None:
        for shard_id, scores in blocks.items():
            shard = self._shards[shard_id]
            started = time.perf_counter()
            buffer = self._writable(shard_id)
            buffer[: shard.rows, : self._n] = scores
            self.timing[shard_id] = self.timing.get(shard_id, 0.0) + (
                time.perf_counter() - started
            )
        if self._topk is not None:
            self._topk.invalidate_all()

    def add_node(
        self,
        num_nodes: int,
        own_tail: bool,
        shard_hi: int,
        dtype: str = "float64",
    ) -> None:
        """Grow to ``num_nodes``: column capacity everywhere, rows at tail.

        Mirrors :meth:`ScoreStore.add_node`'s doubling policy, except
        growth allocates a fresh segment (shared memory cannot be
        resized in place).  New cells read as zero because segments are
        created zero-filled and copies never exceed the old window.
        """
        self._n = num_nodes
        self.shard_hi = shard_hi
        for shard_id, shard in list(self._shards.items()):
            if self._n > shard.buffer.shape[1]:
                self._replace_segment(
                    shard_id,
                    (
                        shard.buffer.shape[0],
                        max(2 * shard.buffer.shape[1], self._n),
                    ),
                )
        if own_tail:
            tail_id = (num_nodes - 1) // self._shard_rows
            tail = self._shards.get(tail_id)
            if tail is not None:
                if tail.rows + 1 > tail.buffer.shape[0]:
                    self._replace_segment(
                        tail_id,
                        (
                            min(
                                self._shard_rows,
                                max(2 * tail.buffer.shape[0], 1),
                            ),
                            tail.buffer.shape[1],
                        ),
                    )
                tail.rows += 1
                self.events[tail_id] = self._spec(tail_id)
            else:
                name = self._next_name()
                shape = (1, max(self._n, 1))
                segment = create_segment(
                    name, segment_nbytes(shape, dtype=dtype)
                )
                buffer = ndarray_view(
                    segment, shape, writable=True, dtype=dtype
                )
                spec = SegmentSpec(
                    shard_id=tail_id,
                    name=name,
                    base=num_nodes - 1,
                    rows=1,
                    rows_cap=1,
                    cols_cap=shape[1],
                    dtype=buffer.dtype.name,
                )
                shard = _WorkerShard(spec, segment, buffer)
                shard.shared = False  # fresh allocation, provably private
                self._shards[tail_id] = shard
                self._fresh_names.add(name)
                self.events[tail_id] = spec
        if self._topk is not None:
            self._topk.on_add_node()
            self._topk.set_shard_range(self.shard_lo, self.shard_hi)

    def nbytes(self) -> int:
        return sum(shard.buffer.nbytes for shard in self._shards.values())

    def close(self) -> None:
        for shard in self._shards.values():
            shard.segment.close()
        self._shards.clear()


def worker_loop(conn, init: WorkerInit) -> None:
    """The worker process entry point: dispatch commands until shutdown."""
    store = WorkerShardStore(init)
    staging = _StagingReader()
    index: Optional[ShardTopK] = None
    transition_version: Optional[int] = None
    if init.topk is not None:
        k, capacity = init.topk
        index = ShardTopK(
            store,
            k=k,
            capacity=capacity,
            shard_range=(store.shard_lo, store.shard_hi),
            track_changes=True,
        )
    try:
        while True:
            try:
                cmd = conn.recv()
            except (EOFError, OSError):
                break
            started = time.perf_counter()
            reply = Reply(worker_id=store.worker_id, ok=True)
            try:
                if isinstance(cmd, ShutdownCmd):
                    conn.send(reply)
                    break
                elif isinstance(cmd, ApplyPlanCmd):
                    store.apply_plan(cmd.plan)
                elif isinstance(cmd, ApplyBatchCmd):
                    # One round trip per drain: rebuild the batch — from
                    # the shared-memory staging words (zero-copy views)
                    # on the live path, in-band on crash replay — and
                    # apply its plans strictly in order with the exact
                    # per-plan arithmetic of the unbatched path.
                    packed = cmd.packed
                    if packed is None:
                        words = staging.words(cmd.staging, cmd.words)
                        if cmd.checksums is not None:
                            observed = word_checksums(
                                words, cmd.count, cmd.sections
                            )
                            if observed != tuple(cmd.checksums):
                                # Corrupted staging slot: refuse to
                                # apply anything (a half-applied batch
                                # would be unrecoverable) and flag the
                                # parent to resend the intact journal
                                # copy in-band.
                                reply.ok = False
                                reply.corrupt = True
                                reply.error = (
                                    "staged batch checksum mismatch: "
                                    f"expected {tuple(cmd.checksums)}, "
                                    f"observed {observed}"
                                )
                                words = None
                        if words is not None:
                            packed = PackedPlanBatch.from_words(
                                words, cmd.count, cmd.sections
                            )
                    if packed is not None:
                        for plan in packed.plans():
                            store.apply_plan(plan)
                elif isinstance(cmd, SetEntryCmd):
                    store.set_entry(cmd.row, cmd.col, cmd.value)
                elif isinstance(cmd, AddRowsCmd):
                    store.add_rows(cmd.blocks)
                elif isinstance(cmd, ReplaceRowsCmd):
                    store.replace_rows(cmd.blocks)
                elif isinstance(cmd, AddNodeCmd):
                    store.add_node(
                        cmd.num_nodes, cmd.own_tail, cmd.shard_hi, cmd.dtype
                    )
                    if cmd.transitions is not None:
                        transition_version = int(cmd.transitions["version"])
                elif isinstance(cmd, MarkSharedCmd):
                    store.mark_shared()
                elif isinstance(cmd, TopKConfigCmd):
                    index = ShardTopK(
                        store,
                        k=cmd.k,
                        capacity=cmd.capacity,
                        shard_range=(store.shard_lo, store.shard_hi),
                        track_changes=True,
                    )
                elif isinstance(cmd, TopKRescanCmd):
                    if index is None:
                        raise RuntimeError("top-k index not configured")
                    reply.data = index.rescan_shards(cmd.shard_ids)
                elif isinstance(cmd, MetricsCmd):
                    reply.data = {
                        "worker_id": store.worker_id,
                        "num_shards": len(store._shards),
                        "shard_range": (store.shard_lo, store.shard_hi),
                        "buffer_bytes": store.nbytes(),
                        "transition_version": transition_version,
                        "topk_stats": (
                            vars(index.stats).copy() if index else None
                        ),
                    }
                elif isinstance(cmd, PingCmd):
                    pass
                else:
                    raise RuntimeError(f"unknown command {cmd!r}")
            except Exception:
                reply.ok = False
                reply.error = traceback.format_exc()
            timing, events, cow = store.drain_feed()
            reply.seconds = time.perf_counter() - started
            reply.per_shard_seconds = timing
            reply.segments = events
            reply.cow_copies = cow
            if index is not None:
                reply.topk_changes = index.collect_changes()
            conn.send(reply)
    finally:
        staging.close()
        store.close()
        conn.close()
