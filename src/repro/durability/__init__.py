"""Durable low-rank persistence for the serving stack.

Four pieces, one data directory:

* :mod:`repro.durability.wal` — the checksummed append-only
  write-ahead log of factored deltas (each acked drain's
  ``PackedPlanBatch`` words plus its consolidated row updates, framed
  with length + CRC32, with configurable fsync and rotation).
* :mod:`repro.durability.checkpoint` — atomic base checkpoints: the
  score shards in the store's dtype and the packed ``Q`` arrays,
  published by manifest rename.
* :mod:`repro.durability.manager` — the orchestration: recovery on
  startup (bit-identical to the last acked drain), per-drain appends
  on the ack path, periodic checkpoints with retention, and
  time-travel materialization of any retained historical version.
* :mod:`repro.durability.reaper` — reclaims the stale ``wal.lock`` and
  checkpoint scratch dirs a SIGKILL'd owner left behind.

Enable it with ``SimRankService(graph, ServiceConfig(durability=
DurabilityConfig(data_dir="/path/to/dir")))`` (see
:class:`~repro.serving.config.DurabilityConfig`), or
``python -m repro serve ... --data-dir /path/to/dir``.
"""

from .checkpoint import (
    CheckpointData,
    graph_from_packed,
    list_checkpoints,
    load_checkpoint,
    read_manifest,
    write_checkpoint,
    write_manifest,
)
from .manager import DurabilityManager, RecoveredState
from .wal import (
    FSYNC_POLICIES,
    KIND_ADD_NODE,
    KIND_BATCH,
    WalFrame,
    WriteAheadLog,
    decode_frames,
    encode_add_node_frame,
    encode_batch_frame,
)

__all__ = [
    "CheckpointData",
    "DurabilityManager",
    "FSYNC_POLICIES",
    "KIND_ADD_NODE",
    "KIND_BATCH",
    "RecoveredState",
    "WalFrame",
    "WriteAheadLog",
    "decode_frames",
    "encode_add_node_frame",
    "encode_batch_frame",
    "graph_from_packed",
    "list_checkpoints",
    "load_checkpoint",
    "read_manifest",
    "write_checkpoint",
    "write_manifest",
]
