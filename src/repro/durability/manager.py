"""The durability manager: WAL + checkpoints + recovery + time travel.

One :class:`DurabilityManager` owns one data directory::

    <data_dir>/
      wal.lock                  # pid of the single live writer
      MANIFEST                  # atomic pointer to retained checkpoints
      wal/wal-<seq>-v<start>.log
      checkpoints/ckpt-<version>/{meta.json, scores.npz, transitions.npz}

Lifecycle (driven by :class:`~repro.serving.service.SimRankService`):

1. Construct — acquires the lock (stale locks of dead pids are
   reclaimed), registers with the orphan reaper, repairs the WAL tail.
2. :meth:`recover` — loads the newest manifest checkpoint and replays
   the WAL, returning the state the service seeds its engine with
   (None on a fresh dir).
3. :meth:`attach` — positions the append cursor and, on a fresh dir,
   writes the initial base checkpoint.
4. Per acked drain: :meth:`append_drain` (inside the apply lock,
   *before* the drain becomes visible to readers — ack follows the
   WAL append) then :meth:`maybe_checkpoint`.
5. :meth:`view_at` — time travel: materialize any retained historical
   version from its nearest checkpoint plus WAL replay.

Failure containment: a WAL append or checkpoint error must never take
serving down — the manager flags itself failed, stops appending (so
the log on disk stays a consistent prefix of acked history), records
the event in the flight recorder, and keeps counting.  Recovery after
such a failure lands on the last *durable* version, which the health
surface reports as ``wal_lag_drains`` so operators can see the gap.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..exceptions import ConfigError, HistoryUnavailableError
from ..executor.score_store import ScoreStore
from ..graph import DynamicDiGraph
from ..incremental.plan import PlanBatch
from .checkpoint import (
    checkpoint_path,
    graph_from_packed,
    load_checkpoint,
    read_manifest,
    write_checkpoint,
    write_manifest,
)
from .reaper import (
    pid_alive,
    reap_orphans,
    register_durability,
    unregister_durability,
)
from .wal import (
    KIND_BATCH,
    WriteAheadLog,
    encode_add_node_frame,
    encode_batch_frame,
)

__all__ = ["DurabilityManager", "RecoveredState"]

_LOCK_NAME = "wal.lock"


@dataclass
class RecoveredState:
    """What a restart hands the engine: last acked drain, bit-identical."""

    version: int
    graph: DynamicDiGraph
    #: Dense scores in the store's dtype (the engine's float64 staging
    #: of float32 values is exact, and its cast back into a float32
    #: store is the exact inverse — the round trip preserves every bit).
    scores: np.ndarray
    meta: dict


@dataclass
class _Materialized:
    version: int
    store: ScoreStore
    graph: DynamicDiGraph
    meta: dict


def _acquire_lock(data_dir: str) -> str:
    """Take the single-writer lock, reclaiming one left by a dead pid."""
    path = os.path.join(data_dir, _LOCK_NAME)
    for _attempt in range(2):
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    holder = int(handle.read().strip() or -1)
            except (OSError, ValueError):
                holder = -1
            if holder > 0 and pid_alive(holder):
                raise ConfigError(
                    f"durability data dir {data_dir!r} is locked by live "
                    f"process {holder}"
                ) from None
            # Stale lock from a dead owner: reclaim and retry once.
            try:
                os.unlink(path)
            except OSError:
                pass
            continue
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return path
    raise ConfigError(
        f"could not acquire durability lock in {data_dir!r}"
    )


class DurabilityManager:
    """See module docstring.  One instance per service per data dir."""

    def __init__(self, config, telemetry=None) -> None:
        if telemetry is None:
            from ..telemetry import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self.config = config
        self.data_dir = config.data_dir
        self._telemetry = telemetry
        os.makedirs(self.data_dir, exist_ok=True)
        # Reap first so a previous SIGKILL'd owner's stale lock is gone
        # before this process tries to take it.
        try:
            reap_orphans()
        except OSError:
            pass
        self._lock_path = _acquire_lock(self.data_dir)
        self._reaper_manifest = register_durability(self.data_dir)
        self._wal = WriteAheadLog(
            os.path.join(self.data_dir, "wal"),
            fsync=config.fsync,
            fsync_interval=config.fsync_interval,
            rotate_bytes=config.rotate_bytes,
        )
        registry = telemetry.registry
        self._c_appends = registry.counter(
            "repro_wal_appends_total",
            help="WAL frames appended (drains + node arrivals)",
        )
        self._c_bytes = registry.counter(
            "repro_wal_bytes_total",
            help="Bytes appended to the write-ahead log",
        )
        self._c_checkpoints = registry.counter(
            "repro_checkpoints_total",
            help="Checkpoints published (manifest flips)",
        )
        self._mutex = threading.Lock()
        self._failed = False
        self._failed_reason: Optional[str] = None
        self._errors = 0
        self._durable_version = -1
        self._last_checkpoint_version: Optional[int] = None
        self._retained: List[int] = []
        self._wal_lag_drains = 0
        self._damping = 0.0
        self._iterations = 0
        self._view_cache = None  # (version, SnapshotView)
        self._closed = False

    # -------------------------------------------------------------- #
    # Recovery / attach
    # -------------------------------------------------------------- #

    def recover(self) -> Optional[RecoveredState]:
        """Replay checkpoint + WAL; None when the data dir is fresh.

        Raises :class:`~repro.exceptions.CorruptLogError` on mid-log
        damage (never silently diverges).  A torn WAL tail — the
        expected residue of SIGKILL mid-append — was already truncated
        when the log opened.
        """
        manifest = read_manifest(self.data_dir)
        if manifest is None:
            return None
        self._retained = [int(v) for v in manifest["retained"]]
        state = self._materialize(target_version=None)
        self._last_checkpoint_version = max(self._retained)
        self._durable_version = state.version
        self._damping = float(state.meta.get("damping", 0.0))
        self._iterations = int(state.meta.get("iterations", 0))
        return RecoveredState(
            version=state.version,
            graph=state.graph,
            scores=state.store.to_array(),
            meta=state.meta,
        )

    def attach(self, engine) -> None:
        """Bind to the live engine; write the base checkpoint if fresh."""
        self._damping = float(engine.config.damping)
        self._iterations = int(engine.config.iterations)
        self._wal.open_for_append(engine.version)
        if self._last_checkpoint_version is None:
            self.checkpoint(engine)
        self._durable_version = max(self._durable_version, engine.version)
        self._set_flight_context()

    def _set_flight_context(self) -> None:
        self._telemetry.flight.set_context(
            durable_version=self._durable_version,
            wal_offset=self._wal.tail_offset(),
            last_checkpoint_version=self._last_checkpoint_version,
        )

    # -------------------------------------------------------------- #
    # Append side (caller holds the apply lock)
    # -------------------------------------------------------------- #

    def append_drain(self, version: int, row_updates, plans) -> bool:
        """WAL one acked drain; True when it became durable.

        Never raises: an append failure flags the manager failed (the
        on-disk log must stay a consistent prefix of acked history, so
        appending *past* a hole is worse than stopping) and serving
        continues RAM-only.
        """
        if self._failed or self._closed:
            return False
        try:
            packed = PlanBatch(list(plans)).packed()
            record = encode_batch_frame(int(version), row_updates, packed)
            self._wal.append(record, int(version))
        except Exception as exc:  # noqa: BLE001 - containment seam
            self._mark_failed("wal_append", exc)
            return False
        self._c_appends.inc()
        self._c_bytes.inc(len(record))
        self._durable_version = int(version)
        self._wal_lag_drains += 1
        self._set_flight_context()
        return True

    def append_add_node(self, version: int, node: int, num_nodes: int) -> bool:
        """WAL one live node arrival; True when it became durable."""
        if self._failed or self._closed:
            return False
        try:
            record = encode_add_node_frame(int(version), node, num_nodes)
            self._wal.append(record, int(version))
        except Exception as exc:  # noqa: BLE001 - containment seam
            self._mark_failed("wal_append", exc)
            return False
        self._c_appends.inc()
        self._c_bytes.inc(len(record))
        self._durable_version = int(version)
        self._wal_lag_drains += 1
        self._set_flight_context()
        return True

    def maybe_checkpoint(self, engine) -> bool:
        """Checkpoint when the WAL lag reached the configured interval."""
        if self._failed or self._closed:
            return False
        if self._wal_lag_drains < self.config.checkpoint_interval:
            return False
        return self.checkpoint(engine)

    def checkpoint(self, engine) -> bool:
        """Publish a checkpoint of the engine's current state.

        Caller must hold the apply lock (the service's seams all do).
        A checkpoint failure does **not** poison the WAL — the chain
        from the previous checkpoint is still complete — so it only
        counts an error and resets the lag clock to avoid retrying on
        every drain.
        """
        if self._closed:
            return False
        version = int(engine.version)
        try:
            with self._mutex:
                write_checkpoint(
                    self.data_dir,
                    version=version,
                    score_store=engine.score_store,
                    transition_store=engine.transition_store,
                    damping=self._damping or engine.config.damping,
                    iterations=self._iterations or engine.config.iterations,
                )
                retained = [v for v in self._retained if v != version]
                retained.append(version)
                retained.sort()
                keep = retained[-int(self.config.retain_checkpoints) :]
                dropped = [v for v in retained if v not in keep]
                write_manifest(self.data_dir, keep)
                self._retained = keep
                for old in dropped:
                    self._remove_checkpoint(old)
                # Frames at or before the oldest retained checkpoint can
                # never be replayed again; rotate so the live segment
                # stays prunable next time.
                self._wal.rotate(version)
                self._wal.prune(min(keep))
                self._view_cache = None
        except Exception as exc:  # noqa: BLE001 - containment seam
            self._record_error("checkpoint", exc)
            self._wal_lag_drains = 0
            return False
        self._last_checkpoint_version = version
        self._wal_lag_drains = 0
        self._c_checkpoints.inc()
        self._set_flight_context()
        return True

    def _remove_checkpoint(self, version: int) -> None:
        from .checkpoint import _remove_tree

        _remove_tree(checkpoint_path(self.data_dir, version))

    def _mark_failed(self, what: str, exc: BaseException) -> None:
        self._failed = True
        self._failed_reason = f"{what}: {type(exc).__name__}: {exc}"
        self._errors += 1
        flight = self._telemetry.flight
        flight.record(
            "durability_failed", stage=what, error=type(exc).__name__
        )
        flight.dump("durability")

    def _record_error(self, what: str, exc: BaseException) -> None:
        self._errors += 1
        self._telemetry.flight.record(
            "durability_error", stage=what, error=type(exc).__name__
        )

    # -------------------------------------------------------------- #
    # Time travel
    # -------------------------------------------------------------- #

    def view_at(self, version: int, config):
        """A :class:`~repro.serving.snapshot.SnapshotView` at ``version``.

        Materialized from the nearest retained checkpoint at or before
        ``version`` plus WAL replay — the identical arithmetic the live
        drains ran, so scores and rankings are bit-identical to what
        the service served at that version.
        """
        from ..serving.snapshot import SnapshotView

        version = int(version)
        cached = self._view_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        # Serialized against checkpoint publication so a concurrent
        # retention prune can never delete the base mid-materialize.
        with self._mutex:
            state = self._materialize(target_version=version)
        view = SnapshotView(
            scores=state.store.snapshot(),
            config=config,
            version=state.version,
        )
        self._view_cache = (version, view)
        return view

    def _materialize(self, target_version: Optional[int]) -> _Materialized:
        manifest = read_manifest(self.data_dir)
        if manifest is None:
            raise HistoryUnavailableError(
                "no durable history yet (no checkpoint published in "
                f"{self.data_dir!r})"
            )
        retained = [int(v) for v in manifest["retained"]]
        if target_version is None:
            base_version = max(retained)
        else:
            candidates = [v for v in retained if v <= target_version]
            if not candidates:
                raise HistoryUnavailableError(
                    f"version {target_version} predates the oldest "
                    f"retained checkpoint (v{min(retained)}); it was "
                    "pruned by the retention policy"
                )
            base_version = max(candidates)
        data = load_checkpoint(checkpoint_path(self.data_dir, base_version))
        store = self._store_from_checkpoint(data)
        graph = graph_from_packed(data.packed_q)
        damping = float(data.meta.get("damping", self._damping))
        version = data.version
        for frame in self._wal.frames(
            after_version=base_version, through_version=target_version
        ):
            if frame.kind == KIND_BATCH:
                for plan in frame.packed.plans():
                    store.apply_plan(plan)
                for row_update in frame.row_updates:
                    row_update.apply_to(graph)
            else:
                node = graph.add_node()
                store.add_node()
                store.set_entry(node, node, 1.0 - damping)
            version = frame.version
        if target_version is not None and version != target_version:
            raise HistoryUnavailableError(
                f"version {target_version} is not in the durable history "
                f"(replay from checkpoint v{base_version} reached "
                f"v{version})"
            )
        return _Materialized(
            version=version, store=store, graph=graph, meta=data.meta
        )

    def _store_from_checkpoint(self, data) -> ScoreStore:
        """Rebuild the ScoreStore from saved blocks, in their dtype.

        The blocks already hold values of the store's dtype, so the
        rebuild is exact, and replayed plans then scatter with the same
        cast points the live drains did.
        """
        if data.shards:
            scores = np.concatenate(data.shards, axis=0)
        else:
            scores = np.zeros((0, 0), dtype=data.score_dtype)
        return ScoreStore(
            scores,
            shard_rows=int(data.meta["shard_rows"]),
            dtype=data.score_dtype,
        )

    # -------------------------------------------------------------- #
    # Observability / lifecycle
    # -------------------------------------------------------------- #

    @property
    def failed(self) -> bool:
        return self._failed

    @property
    def durable_version(self) -> int:
        return self._durable_version

    @property
    def last_checkpoint_version(self) -> Optional[int]:
        return self._last_checkpoint_version

    def retained_versions(self) -> List[int]:
        """Checkpoint versions currently answerable by :meth:`view_at`."""
        return list(self._retained)

    def wal_bytes(self) -> int:
        """Total bytes across live WAL segments."""
        return self._wal.total_bytes()

    def wal_lag_drains(self) -> int:
        """Acked drains WAL'd since the last checkpoint."""
        return self._wal_lag_drains

    def report(self) -> dict:
        """The ``metrics_report()["durability"]`` / ``/health`` payload."""
        return {
            "enabled": True,
            "data_dir": self.data_dir,
            "fsync": self.config.fsync,
            "failed": self._failed,
            "failed_reason": self._failed_reason,
            "errors": self._errors,
            "durable_version": self._durable_version,
            "last_checkpoint_version": self._last_checkpoint_version,
            "retained_checkpoints": list(self._retained),
            "wal_bytes": self._wal.total_bytes(),
            "wal_lag_drains": self._wal_lag_drains,
            "wal_appends": self._wal.appends,
            "wal_segments": len(self._wal.segments),
        }

    def sync(self) -> None:
        """Force appended frames to stable storage (tests/benchmarks)."""
        self._wal.sync()

    def close(self) -> None:
        """Flush, release the lock, unregister from the reaper."""
        if self._closed:
            return
        self._closed = True
        try:
            self._wal.close()
        finally:
            unregister_durability(self._reaper_manifest)
            try:
                os.unlink(self._lock_path)
            except OSError:
                pass
