"""The single-writer / many-readers serving session.

:class:`SimRankService` wires the three layers together for the
link-evolving serving workload the paper targets: precompute once, then
serve reads while edges arrive.  It runs in one of two writer modes:

* **sync** (default) — the original single-threaded session.  Writers
  call :meth:`submit` (updates land in the coalescing
  :class:`~repro.serving.scheduler.UpdateScheduler`), the caller drives
  :meth:`drain` explicitly, and :meth:`snapshot` pins the live stores.
* **background** — a dedicated
  :class:`~repro.serving.writer.BackgroundWriter` thread owns the drain
  loop: it wakes on a configurable interval (or when the bounded queue
  hits its cap), applies one coalesced batch through the consolidated
  row path, and publishes a fresh immutable
  :class:`~repro.serving.snapshot.SnapshotView`.  Readers pin the
  published view with a single attribute read, so they **never block on
  a drain**; submitters feel the bounded queue through the configured
  backpressure policy (``block`` / ``drop-coalesce`` / ``error``).

Pinned views are bit-stable under any number of subsequent drains
(copy-on-write shards), so a query fleet can keep answering from a
consistent version while updates stream in, then re-pin at its own
cadence.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, Optional, Union

import numpy as np

from ..exceptions import (
    ConfigError,
    HistoryUnavailableError,
    ServiceClosedError,
)
from ..graph.digraph import DynamicDiGraph
from ..graph.updates import EdgeUpdate, UpdateBatch
from ..incremental.engine import DynamicSimRank
from .config import ServiceConfig
from ..telemetry import Telemetry
from .envelopes import QueryRequest, QueryResult, run_query
from .scheduler import UpdateScheduler
from .snapshot import SnapshotView
from .writer import (
    DEFAULT_DRAIN_INTERVAL,
    DEFAULT_MAX_PENDING,
    BackgroundWriter,
)


class SimRankService:
    """Versioned SimRank serving over a link-evolving graph.

    Parameters
    ----------
    graph:
        The live :class:`DynamicDiGraph` this service owns.
    config:
        The deployment shape, a :class:`ServiceConfig` (``None`` = all
        defaults) — see that class for every knob.  Load a saved file
        with :meth:`ServiceConfig.load` (or a payload with
        :meth:`ServiceConfig.from_dict`).  With ``writer="background"``
        the writer thread starts here.  With durability configured the
        service recovers any state already in the data dir (the
        recovered graph/scores win over the ``graph``/``initial_scores``
        arguments), appends every acked drain to a checksummed
        write-ahead log before the ack is released, writes periodic
        checkpoints, and serves time-travel reads (:meth:`score_at`,
        :meth:`top_k_at`, :meth:`view_at`) over the retained history.
    initial_scores:
        Optional precomputed ``S`` for ``graph`` (skips the batch
        precomputation), forwarded to the :class:`DynamicSimRank`
        engine.
    """

    def __init__(
        self,
        graph: DynamicDiGraph,
        config: Optional[ServiceConfig] = None,
        initial_scores: Optional[np.ndarray] = None,
    ) -> None:
        if config is None:
            config = ServiceConfig()
        elif not isinstance(config, ServiceConfig):
            raise ConfigError(
                "config must be a ServiceConfig or None, got "
                f"{type(config).__name__}; load a file with "
                "ServiceConfig.load(path)"
            )
        self._config = config
        #: The service's telemetry spine, shared by every layer below
        #: (engine, score store) and above (front door): one metric
        #: registry, one trace ring, one flight recorder.
        self.telemetry = Telemetry.from_config(config.telemetry)
        self._query_hist = self.telemetry.registry.histogram(
            "repro_service_query_seconds",
            help="In-process query latency (snapshot pin + execute)",
        )
        self._drain_hist = self.telemetry.registry.histogram(
            "repro_drain_apply_seconds",
            help="Consolidated drain apply wall time (sync + background)",
        )
        #: Trace ids of traced update submissions awaiting the drain
        #: that folds them in (bounded; drained by the next apply).
        self._origin_traces: list = []
        simrank_config = config.simrank_config()
        self._closed = False
        self._close_lock = threading.RLock()
        self._drain_listeners: list = []
        self._durability = None
        if config.durability is not None:
            from ..durability.manager import DurabilityManager

            self._durability = DurabilityManager(
                config.durability, telemetry=self.telemetry
            )
        try:
            recovered = None
            if self._durability is not None:
                # A data dir holding a valid manifest wins over the
                # caller's graph/scores: the durable history *is* the
                # service state, restored bit-identical to the last
                # acked drain.  The arguments seed only a fresh dir.
                recovered = self._durability.recover()
                if recovered is not None:
                    graph = recovered.graph
                    initial_scores = recovered.scores
            engine_kwargs = {}
            if config.shard_rows is not None:
                engine_kwargs["shard_rows"] = config.shard_rows
            self._engine = DynamicSimRank(
                graph,
                simrank_config,
                algorithm="inc-sr",
                initial_scores=initial_scores,
                score_dtype=config.precision,
                telemetry=self.telemetry,
                **engine_kwargs,
            )
            if self._durability is not None:
                if recovered is not None:
                    self._engine.restore_version(recovered.version)
                self._durability.attach(self._engine)
        except BaseException:
            # Never leak the data-dir lock on a failed construction.
            if self._durability is not None:
                self._durability.close()
            raise
        self._scheduler = UpdateScheduler()
        self._writer: Optional[BackgroundWriter] = None
        if config.writer == "background":
            self.start_background_writer(
                drain_interval=config.drain_interval,
                max_pending=config.max_pending,
                policy=config.backpressure,
            )

    # -------------------------------------------------------------- #
    # Writer lifecycle
    # -------------------------------------------------------------- #

    def start_background_writer(
        self,
        drain_interval: float = DEFAULT_DRAIN_INTERVAL,
        max_pending: int = DEFAULT_MAX_PENDING,
        policy: str = "block",
    ) -> BackgroundWriter:
        """Hand the drain loop to a dedicated writer thread."""
        self._ensure_open()
        if self._writer is not None:
            raise ConfigError("background writer already running")
        self._writer = BackgroundWriter(
            self._engine,
            self._scheduler,
            drain_interval=drain_interval,
            max_pending=max_pending,
            policy=policy,
            on_publish=self._on_writer_publish,
            on_drained=self._durable_on_drain,
            telemetry=self.telemetry,
            trace_source=self._take_origin_traces,
        )
        self._writer.start()
        return self._writer

    def stop_background_writer(self, drain: bool = True) -> None:
        """Stop the writer thread (draining leftovers by default)."""
        if self._writer is None:
            return
        self._writer.stop(drain=drain)
        self._writer = None

    def close(self, drain: bool = True) -> None:
        """Stop the writer and release the data-dir lock — idempotent.

        Safe to call from several threads at once and any number of
        times: the whole teardown runs under one lock, the first caller
        does the work, every later (or concurrent) caller waits for it
        and returns.  After close every read/write entry point raises
        :class:`~repro.exceptions.ServiceClosedError` instead of
        touching released state — that is what lets a network front
        door shut down while requests are still in flight.  With
        durability on, close also flushes the WAL and releases the
        data-dir lock, so always close (or use the context manager)
        when done serving.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            self._drain_listeners.clear()
            try:
                self.stop_background_writer(drain=drain)
            finally:
                if self._durability is not None:
                    self._durability.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (requests now raise 503-class)."""
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceClosedError(
                "SimRankService is closed and no longer accepts requests"
            )

    def __enter__(self) -> "SimRankService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # -------------------------------------------------------------- #
    # Drain listeners
    # -------------------------------------------------------------- #

    def add_drain_listener(self, listener) -> None:
        """Register ``listener(version)`` to fire after every publish.

        Fires on every version bump: background-writer publishes, sync
        drains, and live ``add_node`` growth.  Listeners run on the
        draining thread (under the apply lock in background mode), so
        they must be fast and must not call back into the service;
        exceptions are swallowed.  The network front door uses this to
        learn about drains without polling — its listener just flips an
        asyncio event across the thread boundary.
        """
        self._ensure_open()
        self._drain_listeners.append(listener)

    def remove_drain_listener(self, listener) -> None:
        """Unregister a listener (no-op when absent)."""
        try:
            self._drain_listeners.remove(listener)
        except ValueError:
            pass

    def _on_writer_publish(self, view: SnapshotView) -> None:
        self._notify_drained(view.version)

    def _notify_drained(self, version: int) -> None:
        for listener in tuple(self._drain_listeners):
            try:
                listener(version)
            except Exception:
                pass  # a broken listener must never stall a drain

    # -------------------------------------------------------------- #
    # Introspection
    # -------------------------------------------------------------- #

    @property
    def engine(self) -> DynamicSimRank:
        """The underlying engine (kernel/executor facade)."""
        return self._engine

    @property
    def service_config(self) -> ServiceConfig:
        """The deployment shape this service was built from."""
        return self._config

    @property
    def scheduler(self) -> UpdateScheduler:
        """The write-side queue."""
        return self._scheduler

    @property
    def writer(self) -> Optional[BackgroundWriter]:
        """The background writer, or None in sync mode."""
        return self._writer

    @property
    def background(self) -> bool:
        """Whether a background writer currently owns the drain loop."""
        return self._writer is not None

    @property
    def precision(self) -> str:
        """The score store's precision mode (``float64``/``float32``)."""
        return self._config.precision

    @property
    def version(self) -> int:
        """Current state version (bumped once per drained batch)."""
        return self._engine.version

    @property
    def num_nodes(self) -> int:
        return self._engine.graph.num_nodes

    @property
    def pending(self) -> int:
        """Net queued updates not yet applied."""
        return len(self._scheduler)

    # -------------------------------------------------------------- #
    # Write path
    # -------------------------------------------------------------- #

    def note_origin_trace(self, trace_id: Optional[str]) -> None:
        """Remember a traced update submission until the next drain.

        The drain that folds the submission in records a
        ``drain.apply`` span under each remembered id (with the fan-in
        count as an attribute).  Bounded: beyond 64 pending ids new
        ones are dropped (the span ring is best-effort anyway).
        """
        if not trace_id or not self.telemetry.tracer.sampled(trace_id):
            return
        if len(self._origin_traces) < 64:
            self._origin_traces.append(trace_id)

    def _take_origin_traces(self) -> list:
        """Pop every pending origin trace id (called by the drain)."""
        if not self._origin_traces:
            return []
        taken, self._origin_traces = self._origin_traces, []
        return taken

    def submit(self, update: Union[EdgeUpdate, UpdateBatch]) -> None:
        """Queue an update (or a whole batch) for the next drain.

        In background mode the bounded queue's backpressure policy
        applies: the call may block, silently drop non-coalescing
        updates, or raise :class:`~repro.exceptions.BackpressureError`.
        """
        updates = [update] if isinstance(update, EdgeUpdate) else update
        self.submit_many(updates)

    def submit_many(self, updates: Iterable[EdgeUpdate]) -> None:
        """Queue a stream of updates for the next drain."""
        self._ensure_open()
        if self._writer is not None:
            self._writer.submit_many(updates)
        else:
            self._scheduler.submit_many(updates)

    def drain(self) -> int:
        """Apply everything queued as one coalesced consolidated batch.

        Sync mode only — in background mode the writer thread owns the
        drain loop; use :meth:`flush` to wait for it.  Returns the
        number of row groups processed (0 when the queue was empty).

        If the batch is invalid against the live graph (e.g. a queued
        insert of an edge that already exists), the engine raises
        before touching any state; the drained updates are re-queued
        first, so nothing pending is lost and the caller can repair the
        queue and drain again.
        """
        self._ensure_open()
        if self._writer is not None:
            raise ConfigError(
                "the background writer owns the drain loop; use flush() "
                "to wait for it (or stop_background_writer() first)"
            )
        batch = self._scheduler.drain()
        if not len(batch):
            return 0
        traces = self._take_origin_traces()
        tracer = self.telemetry.tracer
        started = time.perf_counter()
        try:
            groups = self._engine.apply_consolidated(batch)
            elapsed = time.perf_counter() - started
            self._drain_hist.observe(elapsed)
            for trace_id in traces:
                tracer.record(
                    "drain.apply",
                    trace_id,
                    elapsed,
                    fan_in=len(traces),
                    updates=len(batch),
                    groups=groups,
                )
            self._durable_on_drain()
            self._notify_drained(self._engine.version)
            return groups
        except Exception:
            self._scheduler.submit_many(batch)
            raise

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Ensure everything queued so far is applied.

        Background mode blocks until the writer has drained and
        published (False on timeout); sync mode simply drains inline.
        """
        self._ensure_open()
        if self._writer is not None:
            return self._writer.flush(timeout=timeout)
        self.drain()
        return True

    def add_node(self) -> int:
        """Grow the node universe by one isolated node (applied live)."""
        self._ensure_open()
        if self._writer is not None:
            with self._writer.apply_lock:
                node = self._engine.add_node()
                self._durable_add_node(node)
                self._writer.publish()
            return node
        node = self._engine.add_node()
        self._durable_add_node(node)
        self._notify_drained(self._engine.version)
        return node

    # -------------------------------------------------------------- #
    # Durability hooks
    # -------------------------------------------------------------- #

    def _durable_on_drain(self) -> None:
        """Append the just-applied drain to the WAL, then maybe checkpoint.

        Runs on the draining thread — under the writer's apply lock in
        background mode, inline in sync mode — *between* the engine
        apply and the publish/ack.  Ack-after-append is the durability
        contract: a version a client observed is a version a restart
        recovers bit-identically.
        """
        if self._durability is None:
            return
        drained = self._engine.take_last_drain()
        if drained is None:
            return
        row_updates, plans = drained
        self._durability.append_drain(
            self._engine.version, row_updates, plans
        )
        self._durability.maybe_checkpoint(self._engine)

    def _durable_add_node(self, node: int) -> None:
        """WAL one live node arrival (same ack-after-append seam)."""
        if self._durability is None:
            return
        self._durability.append_add_node(
            self._engine.version, node, self._engine.graph.num_nodes
        )
        self._durability.maybe_checkpoint(self._engine)

    @property
    def durability(self):
        """The :class:`DurabilityManager`, or None when not configured."""
        return self._durability

    # -------------------------------------------------------------- #
    # Read path
    # -------------------------------------------------------------- #

    def snapshot(self) -> SnapshotView:
        """Pin the current version as an immutable :class:`SnapshotView`.

        Background mode returns the writer's latest *published* view —
        one attribute read, so readers never block on an in-flight
        drain.  Sync mode pins the live score store directly.
        """
        self._ensure_open()
        if self._writer is not None:
            return self._writer.current_view
        return SnapshotView(
            scores=self._engine.score_store.snapshot(),
            config=self._engine.config,
            version=self._engine.version,
        )

    def similarity(self, node_a: int, node_b: int) -> float:
        """Latest-version score of one pair.

        Background mode reads the latest published view (consistent,
        at most one drain behind); sync mode reads the live store.
        """
        self._ensure_open()
        if self._writer is not None:
            return self._writer.current_view.similarity(node_a, node_b)
        return self._engine.similarity(node_a, node_b)

    def top_k(self, k: int, include_self: bool = False):
        """Top-``k`` pairs at the latest version via the shard-heap path.

        Served by the engine's incremental
        :class:`~repro.executor.topk_index.ShardTopK` (no dense ``S``
        scan); in background mode the query takes the writer's apply
        lock so it never interleaves with a drain.
        """
        self._ensure_open()
        if self._writer is not None:
            with self._writer.apply_lock:
                return self._engine.top_k(k, include_self=include_self)
        return self._engine.top_k(k, include_self=include_self)

    def view_at(self, version: int) -> SnapshotView:
        """Pin a historical version as an immutable snapshot.

        ``version`` must be the live version (served directly) or one
        reachable from a retained checkpoint plus WAL replay; anything
        older than the retention horizon (or newer than the live state)
        raises :class:`~repro.exceptions.HistoryUnavailableError`.
        Requires durability to be configured.
        """
        self._ensure_open()
        version = int(version)
        live = self._engine.version
        if version == live:
            return self.snapshot()
        if version > live:
            raise HistoryUnavailableError(
                f"version {version} is in the future (live version is "
                f"{live})"
            )
        if self._durability is None:
            raise HistoryUnavailableError(
                "time-travel reads need ServiceConfig.durability configured"
            )
        return self._durability.view_at(version, self._engine.config)

    def score_at(self, node_a: int, node_b: int, version: int) -> float:
        """One pair's score as of ``version`` (time-travel read)."""
        return self.view_at(version).similarity(node_a, node_b)

    def top_k_at(self, k: int, version: int, include_self: bool = False):
        """Top-``k`` pairs as of ``version`` (time-travel read)."""
        return self.view_at(version).top_k(k, include_self=include_self)

    def query(self, request: Union[QueryRequest, dict]) -> QueryResult:
        """Run one typed :class:`QueryRequest` and wrap the answer.

        The in-process twin of the front door's ``POST /query``: the
        same envelope in, the same envelope out, the same reads
        (``similarity``/``single_pair``/``single_source`` read a pinned
        snapshot's ``S``; ``top_k`` rides the shard-heap path under the
        apply lock).  Accepts a raw wire dict as a convenience.
        """
        if isinstance(request, dict):
            request = QueryRequest.from_dict(request)
        self._ensure_open()
        started = time.perf_counter()
        if request.kind == "top_k":
            value = self.top_k(request.k)
            result = QueryResult(
                kind=request.kind,
                value=value,
                version=self.version,
                elapsed_seconds=time.perf_counter() - started,
                id=request.id,
            )
        else:
            result = run_query(self.snapshot(), request)
        self._query_hist.observe(time.perf_counter() - started)
        return result

    def memory_report(self) -> dict:
        """Layered memory accounting including scheduler state."""
        self._ensure_open()
        if self._writer is not None:
            with self._writer.apply_lock:
                report = self._engine.memory_report()
        else:
            report = self._engine.memory_report()
        report["scheduler_pending"] = len(self._scheduler)
        return report

    def metrics_report(self) -> dict:
        """Serving-side observability: queue, writer, and top-k gauges."""
        self._ensure_open()
        stats = self._scheduler.stats
        report = {
            "version": self.version,
            "queue_depth": len(self._scheduler),
            "pending_targets": self._scheduler.pending_targets,
            "scheduler": {
                "submitted": stats.submitted,
                "cancelled_pairs": stats.cancelled_pairs,
                "drained_updates": stats.drained_updates,
                "drained_batches": stats.drained_batches,
                "drained_groups": stats.drained_groups,
                "max_drained_groups": stats.max_drained_groups,
                "coalescing_ratio": stats.coalescing_ratio(),
            },
        }
        # Score-store apply gauges (per-shard scatter wall time).  The
        # report iterates dicts the drain mutates, so in background mode
        # it must not interleave with an in-flight apply.
        if self._writer is not None:
            with self._writer.apply_lock:
                report["executor"] = self._engine.score_store.apply_report()
                report["executor"].update(
                    self._engine.score_store.dtype_report()
                )
        else:
            report["executor"] = self._engine.score_store.apply_report()
            report["executor"].update(self._engine.score_store.dtype_report())
        report["precision"] = {"mode": self.precision}
        if self._writer is not None:
            report["writer"] = self._writer.report()
        index = self._engine.topk_index
        if index is not None:
            report["topk"] = {
                "k": index.k,
                "capacity": index.capacity,
                "heap_hit_rate": index.stats.heap_hit_rate(),
                "clean_query_rate": index.stats.clean_query_rate(),
                "queries": index.stats.queries,
                "shard_rescans": index.stats.shard_rescans,
                "patched_entries": index.stats.patched_entries,
                "floor_invalidations": index.stats.floor_invalidations,
                "dirty_shards": index.dirty_shards(),
            }
        report["durability"] = (
            self._durability.report()
            if self._durability is not None
            else {"enabled": False}
        )
        # New section only — every pre-telemetry key above is unchanged
        # (asserted by tests/test_telemetry.py).
        report["telemetry"] = self.telemetry.report()
        return report

    def __repr__(self) -> str:
        mode = "background" if self.background else "sync"
        return (
            f"SimRankService(n={self.num_nodes}, version={self.version}, "
            f"pending={self.pending}, writer={mode})"
        )
