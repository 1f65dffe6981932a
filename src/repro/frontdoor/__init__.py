"""Network front door — async HTTP/WebSocket serving over the service.

The serving layer answers queries in-process; this package puts the
same API on a socket, with three pieces of machinery the wire makes
worthwhile:

* :mod:`repro.frontdoor.admission` — **batched query admission**:
  a ``similarity``/``single_source`` query dispatches as soon as no
  batch is in flight, and the queries that queue behind an in-flight
  batch execute together against one pinned snapshot (per-shard score
  gathers and row reads of the frozen ``S``), bit-identical per query
  to unbatched execution.
* :mod:`repro.frontdoor.sessions` — **pinned-snapshot sessions**: a
  client pins one :class:`~repro.serving.snapshot.SnapshotView` under
  a TTL'd id and reads a bit-stable version across any number of
  drains; release (explicit or expiry) feeds the copy-on-write
  refcounting.
* :mod:`repro.frontdoor.subscriptions` — **top-k push subscriptions**:
  after each drain the hub diffs the incremental shard-heap ranking
  against each subscriber's last-seen state and pushes only changed
  positions plus a SHA-1 digest of the full ranking, so clients verify
  exact reconstruction on every step.

:mod:`repro.frontdoor.protocol` is the dependency-free HTTP/1.1 +
RFC 6455 wire layer (both server and client halves);
:mod:`repro.frontdoor.server` assembles everything into
:class:`FrontDoor`.
"""

from .admission import (
    AdmissionBatcher,
    batched_similarity,
    batched_single_source,
)
from .protocol import HTTPClient, ws_connect, ws_recv_json
from .server import FrontDoor, serve_frontdoor
from .sessions import SessionManager
from .subscriptions import (
    TopKSubscriptions,
    apply_delta,
    diff_ranking,
    ranking_digest,
)

__all__ = [
    "FrontDoor",
    "serve_frontdoor",
    "AdmissionBatcher",
    "batched_similarity",
    "batched_single_source",
    "SessionManager",
    "TopKSubscriptions",
    "ranking_digest",
    "diff_ranking",
    "apply_delta",
    "HTTPClient",
    "ws_connect",
    "ws_recv_json",
]
