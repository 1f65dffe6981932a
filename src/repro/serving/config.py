"""Typed, validated, JSON-round-trippable service configuration.

:class:`ServiceConfig` is the one way to configure a
:class:`SimRankService` — writer mode, drain cadence, backpressure,
shard size, precision, durability, …  It is:

* **validated once** — every field is checked at construction against
  the same legal domains the service enforces, so a bad config fails
  with :class:`~repro.exceptions.ConfigError` before any state is
  built;
* **JSON round-trippable** — :meth:`ServiceConfig.to_dict` /
  :meth:`ServiceConfig.from_dict` (and :meth:`save` / :meth:`load`)
  carry the full deployment shape through a config file, so
  ``SimRankService(graph, ServiceConfig.load(path))`` and
  ``serve --config service.json`` describe identical services.

:class:`FrontDoorConfig` nests the network-layer knobs (bind address,
admission batch cap, session TTL) so one file configures the whole stack,
service plus front door.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from ..config import DEFAULT_DAMPING, DEFAULT_ITERATIONS, SimRankConfig
from ..exceptions import ConfigError
from .writer import (
    BACKPRESSURE_POLICIES,
    DEFAULT_DRAIN_INTERVAL,
    DEFAULT_MAX_PENDING,
)

#: Legal writer modes (sync = caller-driven drains, background = a
#: dedicated :class:`~repro.serving.writer.BackgroundWriter` thread).
WRITER_MODES = ("sync", "background")

#: Score-store precision modes: ``float64`` (the bit-identity
#: reference, default) or ``float32`` (half the score memory; every
#: shard stores float32, plan arithmetic stays float64).
PRECISION_MODES = ("float64", "float32")

#: Default idle TTL of a pinned-snapshot session (seconds).
DEFAULT_SESSION_TTL = 30.0


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class TelemetryConfig:
    """Runtime-telemetry knobs (:mod:`repro.telemetry`).

    Parameters
    ----------
    enabled:
        ``False`` swaps every instrument for the shared no-op
        singletons — tracing, histograms, and flight recording all cost
        one empty method call.  The front-door stats keep their own
        attribute counters, so the JSON ``/metrics`` report is
        unchanged either way.
    trace_sample_rate:
        Fraction of *minted* trace ids that record spans (deterministic
        on the id, so all layers and processes agree).  Explicit
        ``X-Trace-Id`` headers are always sampled.
    trace_capacity:
        Span-ring size (oldest spans are dropped first).
    flight_capacity:
        Flight-recorder event-ring size.
    flight_dir:
        Directory flight dumps are written into (``None`` = CWD).
    """

    enabled: bool = True
    trace_sample_rate: float = 1.0
    trace_capacity: int = 512
    flight_capacity: int = 256
    flight_dir: Optional[str] = None

    def __post_init__(self) -> None:
        _require(
            isinstance(self.enabled, bool),
            f"telemetry enabled must be a bool: {self.enabled!r}",
        )
        _require(
            0.0 <= float(self.trace_sample_rate) <= 1.0,
            "trace_sample_rate must be in [0, 1]: "
            f"{self.trace_sample_rate!r}",
        )
        _require(
            int(self.trace_capacity) >= 1,
            f"trace_capacity must be >= 1: {self.trace_capacity!r}",
        )
        _require(
            int(self.flight_capacity) >= 1,
            f"flight_capacity must be >= 1: {self.flight_capacity!r}",
        )
        _require(
            self.flight_dir is None or isinstance(self.flight_dir, str),
            f"flight_dir must be None or a string: {self.flight_dir!r}",
        )

    def to_dict(self) -> dict:
        """JSON-safe payload (the exact :meth:`from_dict` input)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "TelemetryConfig":
        """Rebuild from :meth:`to_dict`; unknown keys are an error."""
        if not isinstance(payload, dict):
            raise ConfigError(
                f"telemetry config must be a dict, got "
                f"{type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(
                f"unknown telemetry config keys: {sorted(unknown)}"
            )
        return cls(**payload)


@dataclass(frozen=True)
class FrontDoorConfig:
    """Network-front-door knobs (HTTP/WebSocket layer).

    Parameters
    ----------
    host, port:
        Bind address.  Port 0 picks an ephemeral port (the bound port
        is reported once the server starts).
    admission_max_batch:
        Hard cap on queries per admission batch.  Admission is
        work-conserving (a query dispatches at once when no batch is in
        flight; queries queued behind one dispatch together when it
        settles), so this bounds the fan-in under load; a full batch
        dispatches immediately.  1 executes every query alone.
    session_ttl:
        Default idle seconds before a pinned-snapshot session is
        released (each request on the session refreshes the clock).
    max_sessions:
        Cap on concurrently pinned sessions (each pins COW score
        shards, so this bounds reader-held memory).
    subscription_max_k:
        Largest ``k`` a top-k subscription may request.
    """

    host: str = "127.0.0.1"
    port: int = 0
    admission_max_batch: int = 256
    session_ttl: float = DEFAULT_SESSION_TTL
    max_sessions: int = 1024
    subscription_max_k: int = 100

    def __post_init__(self) -> None:
        _require(
            isinstance(self.host, str) and bool(self.host),
            f"frontdoor host must be a non-empty string: {self.host!r}",
        )
        _require(
            0 <= int(self.port) <= 65535,
            f"frontdoor port must be in [0, 65535]: {self.port!r}",
        )
        _require(
            int(self.admission_max_batch) >= 1,
            f"admission_max_batch must be >= 1: {self.admission_max_batch!r}",
        )
        _require(
            self.session_ttl > 0,
            f"session_ttl must be positive: {self.session_ttl!r}",
        )
        _require(
            int(self.max_sessions) >= 1,
            f"max_sessions must be >= 1: {self.max_sessions!r}",
        )
        _require(
            int(self.subscription_max_k) >= 1,
            f"subscription_max_k must be >= 1: {self.subscription_max_k!r}",
        )

    def to_dict(self) -> dict:
        """JSON-safe payload (the exact :meth:`from_dict` input)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "FrontDoorConfig":
        """Rebuild from :meth:`to_dict`; unknown keys are an error."""
        if not isinstance(payload, dict):
            raise ConfigError(
                f"frontdoor config must be a dict, got "
                f"{type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(
                f"unknown frontdoor config keys: {sorted(unknown)}"
            )
        return cls(**payload)


@dataclass(frozen=True)
class DurabilityConfig:
    """Durable-persistence knobs (:mod:`repro.durability`).

    Parameters
    ----------
    data_dir:
        The durability root: WAL segments, checkpoints, manifest, and
        the single-writer lock all live under this directory.  A dir
        holding a valid manifest is *restored from* at service
        construction (the caller's graph/scores seed only a fresh dir).
    fsync:
        One of ``always`` / ``interval`` / ``off`` — when appended WAL
        frames are forced to stable storage.  Every policy flushes to
        the OS per append, so process death (SIGKILL) loses nothing;
        the policy only decides exposure to machine/power failure.
    fsync_interval:
        Seconds between forced syncs under the ``interval`` policy.
    checkpoint_interval:
        Acked drains between checkpoints (the WAL-lag budget a restart
        must replay).
    rotate_bytes:
        WAL segment size before rotation.
    retain_checkpoints:
        Checkpoints (and the WAL segments bridging them) kept for
        time-travel reads; older versions are pruned.
    """

    data_dir: str = ""
    fsync: str = "interval"
    fsync_interval: float = 0.05
    checkpoint_interval: int = 64
    rotate_bytes: int = 4 * 1024 * 1024
    retain_checkpoints: int = 2

    def __post_init__(self) -> None:
        _require(
            isinstance(self.data_dir, str) and bool(self.data_dir),
            f"durability data_dir must be a non-empty string: "
            f"{self.data_dir!r}",
        )
        _require(
            self.fsync in ("always", "interval", "off"),
            f"unknown fsync policy {self.fsync!r}; expected one of "
            "('always', 'interval', 'off')",
        )
        _require(
            self.fsync_interval > 0,
            f"fsync_interval must be positive: {self.fsync_interval!r}",
        )
        _require(
            int(self.checkpoint_interval) >= 1,
            f"checkpoint_interval must be >= 1: "
            f"{self.checkpoint_interval!r}",
        )
        _require(
            int(self.rotate_bytes) >= 4096,
            f"rotate_bytes must be >= 4096: {self.rotate_bytes!r}",
        )
        _require(
            int(self.retain_checkpoints) >= 1,
            f"retain_checkpoints must be >= 1: "
            f"{self.retain_checkpoints!r}",
        )

    def to_dict(self) -> dict:
        """JSON-safe payload (the exact :meth:`from_dict` input)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "DurabilityConfig":
        """Rebuild from :meth:`to_dict`; unknown keys are an error."""
        if not isinstance(payload, dict):
            raise ConfigError(
                f"durability config must be a dict, got "
                f"{type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(
                f"unknown durability config keys: {sorted(unknown)}"
            )
        return cls(**payload)


@dataclass(frozen=True)
class ServiceConfig:
    """The full deployment shape of one :class:`SimRankService`.

    ``damping``/``iterations`` carry the SimRank algorithm
    configuration so one JSON file describes the whole service
    (:meth:`simrank_config` derives the
    :class:`~repro.config.SimRankConfig`).

    Parameters
    ----------
    shard_rows:
        Row-block size of the score store (``None`` = the engine
        default).
    writer:
        ``"sync"`` (caller-driven drains) or ``"background"`` (the
        service starts a :class:`~repro.serving.writer.BackgroundWriter`
        at construction).
    drain_interval, max_pending, backpressure:
        Background-writer tuning; ignored in sync mode.
    precision:
        One of :data:`PRECISION_MODES`: the storage dtype of the whole
        score store.
    frontdoor, telemetry, durability:
        The nested network, telemetry and persistence configs
        (``None`` = front-door defaults, telemetry defaults, and no
        durability).
    """

    damping: float = DEFAULT_DAMPING
    iterations: int = DEFAULT_ITERATIONS
    shard_rows: Optional[int] = None
    writer: str = "sync"
    drain_interval: float = DEFAULT_DRAIN_INTERVAL
    max_pending: int = DEFAULT_MAX_PENDING
    backpressure: str = "block"
    precision: str = "float64"
    frontdoor: Optional[FrontDoorConfig] = field(default=None)
    telemetry: Optional[TelemetryConfig] = field(default=None)
    durability: Optional[DurabilityConfig] = field(default=None)

    def __post_init__(self) -> None:
        # Delegate damping/iterations validation to SimRankConfig.
        SimRankConfig(damping=self.damping, iterations=self.iterations)
        _require(
            self.shard_rows is None or int(self.shard_rows) >= 1,
            f"shard_rows must be None or >= 1: {self.shard_rows!r}",
        )
        _require(
            self.writer in WRITER_MODES,
            f"unknown writer mode {self.writer!r}; expected one of "
            f"{WRITER_MODES}",
        )
        _require(
            self.drain_interval > 0,
            f"drain_interval must be positive: {self.drain_interval!r}",
        )
        _require(
            int(self.max_pending) >= 1,
            f"max_pending must be >= 1: {self.max_pending!r}",
        )
        _require(
            self.backpressure in BACKPRESSURE_POLICIES,
            f"unknown backpressure policy {self.backpressure!r}; expected "
            f"one of {BACKPRESSURE_POLICIES}",
        )
        _require(
            self.precision in PRECISION_MODES,
            f"unknown precision {self.precision!r}; expected one of "
            f"{PRECISION_MODES}",
        )
        if self.frontdoor is not None and not isinstance(
            self.frontdoor, FrontDoorConfig
        ):
            raise ConfigError(
                "frontdoor must be None or a FrontDoorConfig, got "
                f"{type(self.frontdoor).__name__}"
            )
        if self.telemetry is not None and not isinstance(
            self.telemetry, TelemetryConfig
        ):
            raise ConfigError(
                "telemetry must be None or a TelemetryConfig, got "
                f"{type(self.telemetry).__name__}"
            )
        if self.durability is not None and not isinstance(
            self.durability, DurabilityConfig
        ):
            raise ConfigError(
                "durability must be None or a DurabilityConfig, got "
                f"{type(self.durability).__name__}"
            )

    # -------------------------------------------------------------- #
    # Derived views
    # -------------------------------------------------------------- #

    def simrank_config(self) -> SimRankConfig:
        """The algorithm half (damping, iterations) as a SimRankConfig."""
        return SimRankConfig(
            damping=self.damping, iterations=self.iterations
        )

    def with_overrides(self, **overrides) -> "ServiceConfig":
        """A copy with the given fields replaced (validated again)."""
        return replace(self, **overrides)

    # -------------------------------------------------------------- #
    # JSON round trip
    # -------------------------------------------------------------- #

    def to_dict(self) -> dict:
        """JSON-safe payload (the exact :meth:`from_dict` input)."""
        payload = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if (
                spec.name in ("frontdoor", "telemetry", "durability")
                and value is not None
            ):
                value = value.to_dict()
            payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ServiceConfig":
        """Rebuild from :meth:`to_dict`; unknown keys are an error."""
        if not isinstance(payload, dict):
            raise ConfigError(
                f"service config must be a dict, got "
                f"{type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(
                f"unknown service config keys: {sorted(unknown)}"
            )
        data = dict(payload)
        if isinstance(data.get("frontdoor"), dict):
            data["frontdoor"] = FrontDoorConfig.from_dict(data["frontdoor"])
        if isinstance(data.get("telemetry"), dict):
            data["telemetry"] = TelemetryConfig.from_dict(data["telemetry"])
        if isinstance(data.get("durability"), dict):
            data["durability"] = DurabilityConfig.from_dict(
                data["durability"]
            )
        return cls(**data)

    def save(self, path: str) -> None:
        """Serialize to a JSON config file (``serve --config`` input)."""
        try:
            text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        except TypeError as exc:
            raise ConfigError(
                f"service config is not JSON-serializable: {exc}"
            ) from None
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")

    @classmethod
    def load(cls, path: str) -> "ServiceConfig":
        """Load a config saved by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"invalid JSON in service config {path!r}: {exc}"
                ) from None
        return cls.from_dict(payload)
