"""The background writer: a dedicated thread owning the drain loop.

:class:`~repro.serving.service.SimRankService` historically drained its
:class:`~repro.serving.scheduler.UpdateScheduler` synchronously on
whichever thread called :meth:`drain` — typically a reader's.
:class:`BackgroundWriter` moves that work onto one dedicated daemon
thread so the serving loop is genuinely concurrent:

* **single writer, zero reader blocking** — the thread wakes every
  ``drain_interval`` seconds (or immediately when the queue hits its
  bound), pops one coalesced batch, applies it through the engine's
  consolidated row path, and then *publishes* a fresh immutable
  :class:`~repro.serving.snapshot.SnapshotView`.  Readers pin the
  published view with a single attribute read — they never touch
  mutable state, never take the apply lock, and therefore never block
  on a drain, no matter how long it runs.
* **bounded queue with backpressure** — ``max_pending`` caps the net
  queued updates.  At capacity the configured policy decides:

  ========== =========================================================
  ``block``          the submitting thread waits until a drain frees
                     space (default; lossless, propagates pushback)
  ``drop-coalesce``  accept only updates that coalesce into an
                     already-pending target row group (or cancel a
                     queued inverse); drop the rest, counted in
                     :attr:`WriterStats.dropped_updates`
  ``error``          raise :class:`~repro.exceptions.BackpressureError`
                     so the caller sheds load explicitly
  ========== =========================================================

* **pause on bad batches, then auto-resume** — if the engine rejects a
  batch the updates are re-queued (nothing is lost), the error is
  stored, and the loop pauses instead of spinning on the same poison
  batch; :meth:`flush` re-raises the error and :meth:`clear_error`
  resumes immediately.  Failures also self-heal: the loop schedules
  its own resume with capped exponential backoff
  (``min(30, 0.5·2^k)`` seconds), counted in
  :attr:`WriterStats.resume_attempts`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from ..exceptions import BackpressureError, ConfigError
from ..graph.updates import EdgeUpdate
from .snapshot import SnapshotView

#: Legal backpressure policies for the bounded queue.
BACKPRESSURE_POLICIES = ("block", "drop-coalesce", "error")

#: Default writer cadence: short enough that published snapshots stay
#: fresh, long enough that tiny batches still coalesce.
DEFAULT_DRAIN_INTERVAL = 0.005

#: Default bound on net queued updates.
DEFAULT_MAX_PENDING = 4096


@dataclass
class WriterStats:
    """Lifetime counters of one :class:`BackgroundWriter`."""

    drains: int = 0
    drained_updates: int = 0
    row_groups: int = 0
    #: Largest consolidated drain this writer applied.
    max_row_groups: int = 0
    publishes: int = 0
    blocked_submits: int = 0
    blocked_seconds: float = 0.0
    dropped_updates: int = 0
    rejected_updates: int = 0
    max_queue_depth: int = 0
    apply_seconds: float = 0.0
    max_apply_seconds: float = 0.0
    errors: int = 0
    #: Automatic resumes after apply failures (see the module docstring).
    resume_attempts: int = 0

    def mean_apply_seconds(self) -> float:
        """Mean wall-clock seconds per applied drain batch."""
        if self.drains == 0:
            return 0.0
        return self.apply_seconds / self.drains

    def mean_row_groups(self) -> float:
        """Mean consolidated row groups per applied drain batch."""
        if self.drains == 0:
            return 0.0
        return self.row_groups / self.drains


class BackgroundWriter:
    """Dedicated drain-loop thread over one engine + scheduler pair.

    Parameters
    ----------
    engine:
        The :class:`~repro.incremental.engine.DynamicSimRank` this
        writer exclusively mutates.
    scheduler:
        The coalescing queue submits land in.
    drain_interval:
        Seconds between wake-ups when the queue is below its bound.
    max_pending:
        Bound on net queued updates before backpressure applies.
    policy:
        One of :data:`BACKPRESSURE_POLICIES`.
    on_publish:
        Optional ``callback(view)`` invoked (under the apply lock,
        right after :attr:`current_view` flips) every time a fresh
        snapshot is published.  This is how the network front door
        learns about drains without polling; callbacks must be fast and
        must not raise — exceptions are swallowed so a broken listener
        can never stall the drain loop.
    telemetry:
        A :class:`repro.telemetry.Telemetry` facade (None → the shared
        disabled instance).  Each drain observes its apply wall time
        into the ``repro_drain_apply_seconds`` histogram and records a
        ``drain.apply`` span per traced origin submission.
    trace_source:
        Optional zero-argument callable returning the trace ids of the
        traced submissions this drain folds in (the service's
        pending-origin-trace buffer); each gets a ``drain.apply`` span.
    """

    def __init__(
        self,
        engine,
        scheduler,
        drain_interval: float = DEFAULT_DRAIN_INTERVAL,
        max_pending: int = DEFAULT_MAX_PENDING,
        policy: str = "block",
        on_publish=None,
        on_drained=None,
        telemetry=None,
        trace_source=None,
    ) -> None:
        if policy not in BACKPRESSURE_POLICIES:
            raise ConfigError(
                f"unknown backpressure policy {policy!r}; "
                f"expected one of {BACKPRESSURE_POLICIES}"
            )
        if drain_interval <= 0:
            raise ConfigError(
                f"drain_interval must be positive: {drain_interval}"
            )
        if max_pending < 1:
            raise ConfigError(f"max_pending must be >= 1: {max_pending}")
        if telemetry is None:
            from ..telemetry import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self._telemetry = telemetry
        self._trace_source = trace_source
        self._drain_hist = telemetry.registry.histogram(
            "repro_drain_apply_seconds",
            help="Consolidated drain apply wall time (sync + background)",
        )
        registry = telemetry.registry
        registry.gauge(
            "repro_writer_queue_depth",
            help="Net updates currently queued",
            fn=self.queue_depth,
        )
        registry.gauge(
            "repro_writer_drains",
            help="Drain batches applied",
            fn=lambda: self.stats.drains,
        )
        registry.gauge(
            "repro_writer_publishes",
            help="Snapshot views published",
            fn=lambda: self.stats.publishes,
        )
        registry.gauge(
            "repro_writer_dropped_updates",
            help="Updates dropped under the drop-coalesce policy",
            fn=lambda: self.stats.dropped_updates,
        )
        self._engine = engine
        self._scheduler = scheduler
        self.drain_interval = float(drain_interval)
        self.max_pending = int(max_pending)
        self.policy = policy
        self.stats = WriterStats()
        #: The latest published immutable view; readers pin it with one
        #: attribute read (atomic under the GIL) — never a lock.
        self.current_view: Optional[SnapshotView] = None
        self._cond = threading.Condition()
        self._wake = threading.Event()
        self._apply_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._inflight = 0
        self._stopping = False
        self._drain_on_stop = True
        self._error: Optional[BaseException] = None
        self.on_publish = on_publish
        #: Fires between the engine apply and the publish, still under
        #: the apply lock — the service's WAL-append-before-ack seam.
        self.on_drained = on_drained
        self._resume_at: Optional[float] = None
        self._resume_backoff = 0

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #

    def start(self) -> "BackgroundWriter":
        """Publish an initial view and start the drain-loop thread.

        A writer that was previously :meth:`stop`\\ ped can be started
        again; the stop flag is reset so the new loop actually runs.
        """
        if self._thread is not None:
            raise ConfigError("background writer already started")
        with self._cond:
            self._stopping = False
            self._drain_on_stop = True
        self._wake.clear()
        self.publish()
        self._thread = threading.Thread(
            target=self._run, name="simrank-writer", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the loop; by default drain whatever is still queued.

        Raises :class:`~repro.exceptions.ConfigError` if the thread is
        still applying a batch when ``timeout`` expires — the writer
        stays registered so a second writer can never be attached to an
        engine that a zombie drain thread is still mutating.
        """
        thread = self._thread
        with self._cond:
            self._stopping = True
            self._drain_on_stop = drain
            self._cond.notify_all()
        self._wake.set()
        if thread is not None:
            thread.join(timeout)
            if thread.is_alive():
                raise ConfigError(
                    f"background writer did not stop within {timeout}s "
                    f"(a drain batch is still applying); retry stop() or "
                    f"raise the timeout"
                )
        self._thread = None

    def __enter__(self) -> "BackgroundWriter":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    @property
    def running(self) -> bool:
        """Whether the drain-loop thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    @property
    def apply_lock(self) -> threading.Lock:
        """Serializes engine mutation/queries against the drain loop.

        Held by the writer across apply+publish; take it for any direct
        engine access (``top_k``, ``add_node``, memory accounting) that
        must not interleave with a drain.  Readers pinning
        :attr:`current_view` never need it.
        """
        return self._apply_lock

    @property
    def busy(self) -> bool:
        """Whether work is queued or a drain batch is in flight."""
        return self._inflight > 0 or len(self._scheduler) > 0

    @property
    def last_error(self) -> Optional[BaseException]:
        """The apply failure currently pausing the loop, if any."""
        return self._error

    @property
    def paused(self) -> bool:
        """Whether the loop is paused on a stored apply failure."""
        return self._error is not None

    def clear_error(self) -> None:
        """Resume draining after the caller repaired the queue."""
        with self._cond:
            self._error = None
            self._resume_at = None
            self._resume_backoff = 0
            self._cond.notify_all()
        self._wake.set()

    # -------------------------------------------------------------- #
    # Write side (any thread)
    # -------------------------------------------------------------- #

    def submit(self, update: EdgeUpdate) -> bool:
        """Enqueue one update, honoring the backpressure policy.

        Returns True when the update was accepted, False when the
        ``drop-coalesce`` policy dropped it.
        """
        with self._cond:
            if self._stopping:
                raise ConfigError("background writer is stopped")
            if len(self._scheduler) >= self.max_pending:
                if self.policy == "error":
                    self.stats.rejected_updates += 1
                    self._wake.set()
                    raise BackpressureError(
                        f"update queue at capacity ({self.max_pending} "
                        f"pending) under the 'error' policy"
                    )
                if self.policy == "drop-coalesce":
                    if not self._scheduler.has_pending_target(update.target):
                        self.stats.dropped_updates += 1
                        self._wake.set()
                        return False
                else:  # block
                    self.stats.blocked_submits += 1
                    started = time.perf_counter()
                    self._wake.set()
                    while (
                        len(self._scheduler) >= self.max_pending
                        and not self._stopping
                        and self._error is None
                    ):
                        self._cond.wait(timeout=0.05)
                    self.stats.blocked_seconds += (
                        time.perf_counter() - started
                    )
                    if self._stopping:
                        raise ConfigError(
                            "background writer stopped while submit was "
                            "blocked on backpressure"
                        )
                    if self._error is not None:
                        raise self._error
            self._scheduler.submit(update)
            depth = len(self._scheduler)
            if depth > self.stats.max_queue_depth:
                self.stats.max_queue_depth = depth
            if depth >= self.max_pending:
                self._wake.set()
            return True

    def submit_many(self, updates: Iterable[EdgeUpdate]) -> int:
        """Enqueue a stream; returns how many updates were accepted."""
        accepted = 0
        for update in updates:
            accepted += bool(self.submit(update))
        return accepted

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Block until everything queued so far is applied and published.

        Returns True when the queue fully drained, False on timeout.
        Re-raises the stored apply error if the loop is paused on one.
        """
        self._wake.set()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._error is not None:
                    raise self._error
                if len(self._scheduler) == 0 and self._inflight == 0:
                    return True
                if not self.running:
                    raise ConfigError(
                        "background writer is not running; nothing will "
                        "drain the queue"
                    )
                if deadline is not None and time.monotonic() >= deadline:
                    return False
                self._cond.wait(timeout=0.05)

    # -------------------------------------------------------------- #
    # Drain loop (writer thread)
    # -------------------------------------------------------------- #

    def _run(self) -> None:
        while True:
            self._wake.wait(self.drain_interval)
            self._wake.clear()
            batch = None
            with self._cond:
                stopping = self._stopping
                if (
                    self._error is not None
                    and self._resume_at is not None
                    and time.monotonic() >= self._resume_at
                ):
                    # Auto-resume after a transient failure: the batch
                    # was re-queued, so retrying is lossless.
                    self._error = None
                    self._resume_at = None
                    self.stats.resume_attempts += 1
                    self._cond.notify_all()
                paused = self._error is not None
                if not paused and (not stopping or self._drain_on_stop):
                    candidate = self._scheduler.drain()
                    if len(candidate):
                        batch = candidate
                        self._inflight = len(candidate)
            if batch is not None:
                self._apply(batch)
            if stopping:
                with self._cond:
                    done = (
                        self._error is not None
                        or not self._drain_on_stop
                        or len(self._scheduler) == 0
                    )
                if done:
                    return

    def _on_failure(self, exc: BaseException, batch) -> None:
        """Re-queue a failed drain and pause with a backoff resume.

        The engine validates a batch before touching any state, so
        re-queueing is lossless.
        """
        with self._cond:
            self.stats.errors += 1
            self._scheduler.submit_many(batch)
            self._resume_at = time.monotonic() + min(
                30.0, 0.5 * 2.0**self._resume_backoff
            )
            self._resume_backoff += 1
            self._inflight = 0
            self._error = exc
            self._cond.notify_all()

    def _apply(self, batch) -> None:
        traces = self._trace_source() if self._trace_source else []
        tracer = self._telemetry.tracer
        started = time.perf_counter()
        try:
            with self._apply_lock:
                groups = self._engine.apply_consolidated(batch)
                if self.on_drained is not None:
                    self.on_drained()
                self.publish()
        except Exception as exc:
            # Pause instead of spinning on the same poison batch.
            self._on_failure(exc, batch)
            return
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
        with self._cond:
            self._inflight = 0
            self._resume_backoff = 0
            self.stats.drains += 1
            self.stats.drained_updates += len(batch)
            self.stats.row_groups += groups
            if groups > self.stats.max_row_groups:
                self.stats.max_row_groups = groups
            self.stats.apply_seconds += elapsed
            if elapsed > self.stats.max_apply_seconds:
                self.stats.max_apply_seconds = elapsed
            self._cond.notify_all()

    def publish(self) -> SnapshotView:
        """Pin the engine's current version and publish it for readers.

        Caller must hold :attr:`apply_lock` or otherwise guarantee the
        engine is quiescent (the drain loop publishes inside the lock;
        :meth:`start` publishes before the thread exists).
        """
        view = SnapshotView(
            scores=self._engine.score_store.snapshot(),
            config=self._engine.config,
            version=self._engine.version,
        )
        self.current_view = view
        self.stats.publishes += 1
        if self.on_publish is not None:
            try:
                self.on_publish(view)
            except Exception:
                pass  # a broken listener must never stall the drain loop
        return view

    # -------------------------------------------------------------- #
    # Introspection
    # -------------------------------------------------------------- #

    def queue_depth(self) -> int:
        """Net updates currently queued (excluding an in-flight batch)."""
        return len(self._scheduler)

    def report(self) -> dict:
        """JSON-friendly configuration + counters summary."""
        return {
            "policy": self.policy,
            "drain_interval_seconds": self.drain_interval,
            "max_pending": self.max_pending,
            "queue_depth": self.queue_depth(),
            "running": self.running,
            "drains": self.stats.drains,
            "drained_updates": self.stats.drained_updates,
            "row_groups": self.stats.row_groups,
            "max_row_groups": self.stats.max_row_groups,
            "mean_row_groups": self.stats.mean_row_groups(),
            "publishes": self.stats.publishes,
            "blocked_submits": self.stats.blocked_submits,
            "blocked_seconds": self.stats.blocked_seconds,
            "dropped_updates": self.stats.dropped_updates,
            "rejected_updates": self.stats.rejected_updates,
            "max_queue_depth": self.stats.max_queue_depth,
            "mean_apply_seconds": self.stats.mean_apply_seconds(),
            "max_apply_seconds": self.stats.max_apply_seconds,
            "errors": self.stats.errors,
            "writer_paused": self.paused,
            "resume_attempts": self.stats.resume_attempts,
        }

    def __repr__(self) -> str:
        return (
            f"BackgroundWriter(policy={self.policy!r}, "
            f"interval={self.drain_interval}, pending={self.queue_depth()}, "
            f"running={self.running})"
        )
