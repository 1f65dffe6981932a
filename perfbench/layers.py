"""Which public calls the traced run wraps, and the per-layer metrics.

Each layer is a ``repro`` module on the timed path.  A span's name is
``<layer>.<stage>``; a layer's time is the self time of its spans, so a
planner that calls the executor is not charged for the executor's work.
``graph`` mutation and engine bookkeeping are the self time of the
``engine.apply`` / ``serving.drain`` root spans.

Every metric in :data:`PER_LAYER` is reported on every workload, as 0
where the workload leaves the layer idle (for example the executor
scatter on ``query-wire``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from .spans import Span, self_time_by_root, self_times
from .stats import InsufficientSamples, percentile

#: ``(name, unit, better)`` for every per-layer metric, in print order.
PER_LAYER = [
    ("incremental.gamma_ms.p50", "ms", "lower"),
    ("incremental.plan_ms.p50", "ms", "lower"),
    ("incremental.plan_ms.p95", "ms", "lower"),
    ("incremental.plan_ms.share", "fraction", "lower"),
    ("incremental.support_rows.mean", "count", "lower"),
    ("incremental.support_cols.mean", "count", "lower"),
    ("incremental.rank.mean", "count", "lower"),
    ("executor.apply_plan_ms.p50", "ms", "lower"),
    ("executor.apply_plan_ms.p95", "ms", "lower"),
    ("executor.apply_plan_ms.share", "fraction", "lower"),
    ("executor.scatter_mb_per_update", "MB", "lower"),
    ("executor.shards_touched.mean", "count", "lower"),
    ("executor.cow_copies_per_drain", "count", "lower"),
    ("executor.topk_patch_ms.p50", "ms", "lower"),
    ("executor.topk_patch_ms.share", "fraction", "lower"),
    ("executor.topk_query_ms.p50", "ms", "lower"),
    ("executor.topk_query_ms.p90", "ms", "lower"),
    ("executor.topk_heap_hit_rate", "fraction", "higher"),
    ("linalg.q_update_ms.p50", "ms", "lower"),
    ("linalg.q_update_ms.share", "fraction", "lower"),
    ("serving.drain_ms.p50", "ms", "lower"),
    ("serving.drain_ms.max", "ms", "lower"),
    ("serving.drain_updates.mean", "count", "higher"),
    ("serving.coalescing_ratio", "ratio", "higher"),
    ("serving.queue_wait_ms.p50", "ms", "lower"),
    ("serving.writer_busy_share", "fraction", "lower"),
    ("serving.publish_ms.p50", "ms", "lower"),
    ("serving.pin_ms.p50", "ms", "lower"),
    ("serving.freshness_ms.p50", "ms", "lower"),
    ("serving.freshness_ms.max", "ms", "lower"),
    ("durability.wal_append_ms.p50", "ms", "lower"),
    ("durability.wal_append_ms.max", "ms", "lower"),
    ("durability.wal_bytes_per_update", "bytes", "lower"),
    ("durability.checkpoint_ms.p50", "ms", "lower"),
    ("durability.checkpoint_ms.max", "ms", "lower"),
    ("durability.checkpoints", "count", "lower"),
    ("durability.replay_frames", "count", "lower"),
    ("durability.recovery_s", "s", "lower"),
    ("frontdoor.admission_wait_ms.p50", "ms", "lower"),
    ("frontdoor.admission_batch.mean", "count", "higher"),
    ("frontdoor.execute_ms.p50", "ms", "lower"),
    ("frontdoor.execute_ms.p95", "ms", "lower"),
    ("frontdoor.wire_ms.p50", "ms", "lower"),
    ("simrank.single_source_ms.p50", "ms", "lower"),
    ("simrank.single_source_ms.p95", "ms", "lower"),
    ("bench.gen_lag_p99_ms", "ms", "lower"),
    ("bench.trace_overhead.latency_p50_ms", "ratio", "lower"),
    ("bench.trace_overhead.latency_p95_ms", "ratio", "lower"),
    ("bench.layer_coverage", "fraction", "higher"),
]

#: Root spans of the update path: the wall time layer shares divide by.
UPDATE_ROOTS = frozenset(
    {
        "engine.apply",
        "serving.drain",
        "serving.publish",
        "durability.wal_append",
        "durability.checkpoint",
    }
)

#: Roots whose own self time is the engine's (graph mutation, grouping).
ENGINE_ROOTS = frozenset({"engine.apply", "serving.drain"})


def _plan_note(args, kwargs, plan) -> dict:
    return {
        "rows": int(plan.rows_union.size),
        "cols": int(plan.cols_union.size),
        "rank": int(plan.rank),
    }


def _scatter_note(args, kwargs, result) -> dict:
    store, plan = args[0], args[1]
    rows, cols = plan.rows_union, plan.cols_union
    if plan.is_noop:
        return {"mb": 0.0, "shards": 0}
    shard_rows = store.shard_rows
    shards = np.union1d(rows // shard_rows, cols // shard_rows).size
    # The block and its transpose are each added once into S.
    scatter = 2 * rows.size * cols.size * store.dtype.itemsize
    return {"mb": scatter / 1e6, "shards": int(shards)}


def _batch_note(args, kwargs, result) -> dict:
    return {"updates": len(args[1])}


def _requests_note(args, kwargs, result) -> dict:
    return {"ids": [request.id for request in args[1]]}


def _request_note(args, kwargs, result) -> dict:
    return {"id": getattr(args[1], "id", None)}


def targets() -> list:
    """``(owner, attribute, span name[, note])`` for every wrapped call."""
    from repro.durability.manager import DurabilityManager
    from repro.executor.score_store import ScoreStore
    from repro.executor.topk_index import ShardTopK
    from repro.frontdoor import admission
    from repro.incremental import gamma, plan, row_update
    from repro.incremental.engine import DynamicSimRank
    from repro.linalg.qstore import TransitionStore
    from repro.serving.service import SimRankService
    from repro.serving.writer import BackgroundWriter

    return [
        (DynamicSimRank, "apply", "engine.apply"),
        (DynamicSimRank, "apply_consolidated", "serving.drain", _batch_note),
        (gamma, "compute_update_vectors", "incremental.gamma"),
        (row_update, "plan_composite_row_update", "incremental.plan"),
        (plan, "plan_rank_one", "incremental.plan", _plan_note),
        (ScoreStore, "apply_plan", "executor.apply_plan", _scatter_note),
        (ShardTopK, "on_plan", "executor.topk_patch"),
        (ShardTopK, "top_k", "executor.topk_query"),
        (TransitionStore, "apply_update", "linalg.q_update"),
        (TransitionStore, "set_row_from_graph", "linalg.q_update"),
        (BackgroundWriter, "publish", "serving.publish"),
        (SimRankService, "snapshot", "serving.pin"),
        (DurabilityManager, "append_drain", "durability.wal_append"),
        (DurabilityManager, "checkpoint", "durability.checkpoint"),
        (admission, "execute_batch", "frontdoor.execute", _requests_note),
        (SimRankService, "query", "frontdoor.execute", _request_note),
        (admission, "batched_single_source", "simrank.single_source"),
        (admission.AdmissionBatcher, "run", "frontdoor.admission", _request_note),
    ]


def summary(values: Sequence[float], statistic: str, scale: float = 1.0):
    """``(value, samples, note)`` for one statistic of a sample.

    An empty sample reads 0 (the layer was idle).  A percentile the
    sample is too small for reads the sample's maximum instead, and the
    note says so, so the printed table never passes one off as the other.
    """
    if not values:
        return 0.0, 0, ""
    if statistic == "mean":
        return scale * float(np.mean(values)), len(values), ""
    if statistic == "max":
        return scale * max(values), len(values), ""
    q = float(statistic[1:])
    try:
        return scale * percentile(values, q), len(values), ""
    except InsufficientSamples:
        return scale * max(values), len(values), f"max: too few for {statistic}"


def compute(
    recorded: List[Span],
    traced_seconds: float,
    extra: Dict[str, tuple],
) -> Dict[str, tuple]:
    """Every :data:`PER_LAYER` metric as ``name -> (value, samples, note)``.

    ``recorded`` holds every span of the run; only the measured window's
    count, except that checkpoint times also take the base checkpoint of
    each set-up (a window rarely reaches the checkpoint interval).
    ``traced_seconds`` is how long tracing was on.  ``extra`` supplies the
    metrics that come from counters or from the client side, in the same
    ``(value, samples, note)`` form; metrics nothing measured read 0.
    """
    spans = [span for span in recorded if span.phase == "window"]
    own = self_times(spans)
    per_root = self_time_by_root(spans)
    roots = [span for span in spans if span.parent is None]
    update_wall = sum(s.duration for s in roots if s.name in UPDATE_ROOTS)

    def update_self(name: str) -> float:
        return sum(
            own[id(span)]
            for span in spans
            if span.name == name and span.root.name in UPDATE_ROOTS
        )

    def share(name: str):
        if not update_wall:
            return 0.0, 0, ""
        return update_self(name) / update_wall, len(per_root.get(name, ())), ""

    def inclusive(name: str) -> List[float]:
        return [span.duration for span in roots if span.name == name]

    def infos(name: str, key: str) -> List[float]:
        return [
            span.info[key]
            for span in spans
            if span.name == name and span.info and key in span.info
        ]

    ms = 1e3
    out: Dict[str, tuple] = {}
    out["incremental.gamma_ms.p50"] = summary(
        per_root.get("incremental.gamma", []), "p50", ms
    )
    for stat in ("p50", "p95"):
        out[f"incremental.plan_ms.{stat}"] = summary(
            per_root.get("incremental.plan", []), stat, ms
        )
        out[f"executor.apply_plan_ms.{stat}"] = summary(
            per_root.get("executor.apply_plan", []), stat, ms
        )
    out["incremental.plan_ms.share"] = share("incremental.plan")
    out["executor.apply_plan_ms.share"] = share("executor.apply_plan")
    out["executor.topk_patch_ms.share"] = share("executor.topk_patch")
    out["linalg.q_update_ms.share"] = share("linalg.q_update")
    for key in ("rows", "cols"):
        out[f"incremental.support_{key}.mean"] = summary(
            infos("incremental.plan", key), "mean"
        )
    out["incremental.rank.mean"] = summary(infos("incremental.plan", "rank"), "mean")
    out["executor.shards_touched.mean"] = summary(
        infos("executor.apply_plan", "shards"), "mean"
    )
    out["executor.topk_patch_ms.p50"] = summary(
        per_root.get("executor.topk_patch", []), "p50", ms
    )
    for stat in ("p50", "p90"):
        out[f"executor.topk_query_ms.{stat}"] = summary(
            per_root.get("executor.topk_query", []), stat, ms
        )
    out["linalg.q_update_ms.p50"] = summary(
        per_root.get("linalg.q_update", []), "p50", ms
    )
    drains = inclusive("serving.drain")
    for stat in ("p50", "max"):
        out[f"serving.drain_ms.{stat}"] = summary(drains, stat, ms)
        out[f"durability.wal_append_ms.{stat}"] = summary(
            inclusive("durability.wal_append"), stat, ms
        )
    out["serving.drain_updates.mean"] = summary(
        infos("serving.drain", "updates"), "mean"
    )
    out["serving.publish_ms.p50"] = summary(
        inclusive("serving.publish"), "p50", ms
    )
    out["serving.pin_ms.p50"] = summary(inclusive("serving.pin"), "p50", ms)
    for stat in ("p50", "p95"):
        out[f"frontdoor.execute_ms.{stat}"] = summary(
            inclusive("frontdoor.execute"), stat, ms
        )
        out[f"simrank.single_source_ms.{stat}"] = summary(
            per_root.get("simrank.single_source", []), stat, ms
        )
    out["frontdoor.admission_batch.mean"] = summary(
        [len(ids) for ids in infos("frontdoor.execute", "ids")], "mean"
    )
    out["frontdoor.admission_wait_ms.p50"] = summary(
        admission_waits(spans), "p50", ms
    )
    engine_self = sum(
        own[id(span)] for span in roots if span.name in ENGINE_ROOTS
    )
    out["bench.layer_coverage"] = (
        (1.0 - engine_self / update_wall) if update_wall else 0.0,
        len([s for s in roots if s.name in UPDATE_ROOTS]),
        "",
    )
    updates = len(inclusive("engine.apply")) + sum(
        infos("serving.drain", "updates")
    )
    scatter = infos("executor.apply_plan", "mb")
    out["executor.scatter_mb_per_update"] = (
        sum(scatter) / updates if updates else 0.0,
        updates,
        "",
    )
    writer_wall = sum(
        s.duration
        for s in roots
        if s.name in UPDATE_ROOTS and s.name != "engine.apply"
    )
    out["serving.writer_busy_share"] = (
        writer_wall / traced_seconds if traced_seconds else 0.0,
        len(drains),
        "",
    )
    checkpoints = [
        span.duration
        for span in recorded
        if span.name == "durability.checkpoint" and span.parent is None
    ]
    for stat in ("p50", "max"):
        out[f"durability.checkpoint_ms.{stat}"] = summary(checkpoints, stat, ms)
    window_checkpoints = len(inclusive("durability.checkpoint"))
    out["durability.checkpoints"] = (window_checkpoints, window_checkpoints, "")
    out.update(extra)
    for name, _, _ in PER_LAYER:
        out.setdefault(name, (0.0, 0, ""))
    return out


def admission_waits(spans: List[Span]) -> List[float]:
    """Per batched query: time in ``AdmissionBatcher.run`` minus its
    batch's execute time (the admission window plus the hand-offs)."""
    executed = {}
    for span in spans:
        if span.name == "frontdoor.execute" and span.info and "ids" in span.info:
            for request_id in span.info["ids"]:
                executed[request_id] = span.duration
    waits = []
    for span in spans:
        if span.name == "frontdoor.admission" and span.info:
            request_id = span.info.get("id")
            if request_id in executed:
                waits.append(span.duration - executed[request_id])
    return waits


def server_times(spans: List[Span]) -> Dict[str, float]:
    """Request id -> time the server spent on it, for the wire share."""
    times = {}
    for span in spans:
        if span.name in ("frontdoor.admission", "frontdoor.execute") and span.info:
            request_id = span.info.get("id")
            if request_id is not None:
                times[request_id] = span.duration
    return times
