"""Service layer — versioned snapshot reads and coalesced queued writes.

The ROADMAP's north star is serving heavy query traffic while links
evolve.  This package puts the read/write split on top of the engine:

* :mod:`repro.serving.snapshot` — :class:`SnapshotView`, a reader's pin
  on one frozen ``S`` version, the one source of every query answer.
  Served from the score store's copy-on-write shards, so pinning is
  O(#shards) and a pinned view is bit-stable no matter what the writer
  does.
* :mod:`repro.serving.scheduler` — :class:`UpdateScheduler`, the
  write-side queue.  Drains coalesce same-target edge updates into
  composite row groups (and cancel inverse pairs outright), feeding the
  engine's consolidated rank-one path.
* :mod:`repro.serving.writer` — :class:`BackgroundWriter`, a dedicated
  drain-loop thread with a bounded queue and configurable backpressure
  (``block`` / ``drop-coalesce`` / ``error``).  It publishes immutable
  snapshot views after every drain, so readers never block on a drain.
* :mod:`repro.serving.service` — :class:`SimRankService`, the
  single-writer/many-readers session: ``submit`` enqueues, ``drain``
  (sync mode) or the background writer applies coalesced batches,
  ``snapshot`` pins the current version.
* :mod:`repro.serving.config` — :class:`ServiceConfig` /
  :class:`FrontDoorConfig`, the typed, validated, JSON-round-trippable
  deployment shape and the only way to configure a service
  (``SimRankService(graph, ServiceConfig.load(path))`` and
  ``serve --config service.json`` consume the same file).
* :mod:`repro.serving.envelopes` — :class:`QueryRequest` /
  :class:`QueryResult`, the one request/response shape shared by the
  in-process API and the network front door's JSON wire, plus the
  exception→HTTP-status taxonomy.
"""

from .config import (
    PRECISION_MODES,
    WRITER_MODES,
    DurabilityConfig,
    FrontDoorConfig,
    ServiceConfig,
    TelemetryConfig,
)
from .envelopes import (
    ERROR_STATUS,
    QUERY_KINDS,
    QueryRequest,
    QueryResult,
    error_body,
    http_status,
)
from .scheduler import SchedulerStats, UpdateScheduler
from .service import SimRankService
from .snapshot import SnapshotView
from .writer import BACKPRESSURE_POLICIES, BackgroundWriter, WriterStats

__all__ = [
    "SimRankService",
    "SnapshotView",
    "UpdateScheduler",
    "SchedulerStats",
    "BackgroundWriter",
    "WriterStats",
    "ServiceConfig",
    "FrontDoorConfig",
    "TelemetryConfig",
    "DurabilityConfig",
    "QueryRequest",
    "QueryResult",
    "QUERY_KINDS",
    "ERROR_STATUS",
    "http_status",
    "error_body",
    "BACKPRESSURE_POLICIES",
    "WRITER_MODES",
    "PRECISION_MODES",
]
