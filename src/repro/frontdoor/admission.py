"""Batched query admission: one snapshot, one BLAS pass, many answers.

Under concurrent load the front door does not execute similarity and
single-source queries one at a time.  Admission is **work-conserving**:
a query that arrives while no batch is in flight dispatches on the next
event-loop turn (every query parsed in the same turn rides along), and
queries that arrive while a batch executes queue up and dispatch
together the moment it settles.  Batches form exactly when there is
load to batch, with no timer to tune; a batch that reaches the size cap
dispatches at once.  Each batch pins **one** snapshot view and executes
as one vectorized pass:

* ``similarity`` — the requested ``(a, b)`` pairs are gathered from
  the frozen score shards with one fancy-indexing read per touched
  shard instead of one Python-level ``entry()`` call per query;
* ``single_source`` — the walk stacks of all requested sources are
  computed **stacked**: the unit vectors become the columns of one
  ``(n, b)`` matrix and the per-step sparse products ``QᵀX`` / ``QX``
  run as single sparse×dense-matrix calls.

The stacked path is **bit-identical per column** to the sequential
one: scipy's CSR/CSC sparse×matrix kernels accumulate every output
column in the same sequential nonzero order as their matrix×vector
kernels, and the dense Horner combination ``t + C·(Q·R)`` is
elementwise.  The equivalence is asserted by the test suite and spot
checked by the benchmark, so batching is a pure latency/throughput
optimization — answers never change by admission accident.

Demultiplexing tags each :class:`QueryResult` with ``batched=True``
and the batch size, so the wire exposes how much coalescing the load
produced.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Sequence, Set

import numpy as np

from ..exceptions import NodeNotFoundError
from ..serving.envelopes import QueryRequest, QueryResult
from ..simrank.queries import single_source_simrank
from ..telemetry import NULL_TELEMETRY, GaugeGroup


def batched_similarity(view, pairs: Sequence[tuple]) -> List[float]:
    """Gather frozen scores for many ``(a, b)`` pairs, one read per shard.

    Bit-identical to per-pair :meth:`SnapshotView.similarity`: both are
    pure reads of the same frozen shard entries.
    """
    n = view.num_nodes
    for a, b in pairs:
        if not (0 <= a < n):
            raise NodeNotFoundError(a)
        if not (0 <= b < n):
            raise NodeNotFoundError(b)
    return view.scores.gather(
        [a for a, _ in pairs], [b for _, b in pairs]
    )


def batched_single_source(view, nodes: Sequence[int]) -> np.ndarray:
    """Single-source scores for many sources in one stacked pass.

    Returns an ``(n, len(nodes))`` matrix whose column ``j`` is
    bit-identical to ``view.single_source(nodes[j])`` — the stacked
    sparse products accumulate each column in the same order as the
    vector path (see the module docstring).  Duplicate sources are
    fine (each gets its own column).
    """
    transitions = view.transitions
    config = view.config
    n = transitions.shape[0]
    for node in nodes:
        if not (0 <= node < n):
            raise NodeNotFoundError(node)
    if len(nodes) == 1:
        # Single column: the vector path *is* the batched path.
        return single_source_simrank(
            transitions, nodes[0], config
        ).reshape(n, 1)
    stacked = np.zeros((n, len(nodes)))
    for column, node in enumerate(nodes):
        stacked[node, column] = 1.0
    walk_stack = [stacked]
    for _ in range(config.iterations):
        stacked = transitions.rmatvec(stacked)
        walk_stack.append(stacked)
    result = walk_stack[-1].copy()
    for t_matrix in reversed(walk_stack[:-1]):
        result = t_matrix + config.damping * (transitions @ result)
    return (1.0 - config.damping) * result


def execute_batch(view, requests: Sequence[QueryRequest]) -> List[QueryResult]:
    """Run one admitted batch against one pinned view, demultiplexed.

    Only batchable kinds (``similarity``, ``single_source``) may
    appear; a request whose node ids are invalid gets its exception
    *in its own slot* via a sentinel re-raise at demux time, so one bad
    query never fails its batch-mates.
    """
    started = time.perf_counter()
    sim_slots: List[int] = []
    sim_pairs: List[tuple] = []
    source_slots: List[int] = []
    source_nodes: List[int] = []
    failures: Dict[int, BaseException] = {}
    for index, request in enumerate(requests):
        n = view.num_nodes
        if request.kind == "similarity":
            if not (0 <= request.node_a < n):
                failures[index] = NodeNotFoundError(request.node_a)
            elif not (0 <= request.node_b < n):
                failures[index] = NodeNotFoundError(request.node_b)
            else:
                sim_slots.append(index)
                sim_pairs.append((request.node_a, request.node_b))
        else:  # single_source (the batcher admits nothing else)
            if not (0 <= request.node < n):
                failures[index] = NodeNotFoundError(request.node)
            else:
                source_slots.append(index)
                source_nodes.append(request.node)

    values: Dict[int, object] = {}
    if sim_pairs:
        for slot, score in zip(
            sim_slots, batched_similarity(view, sim_pairs)
        ):
            values[slot] = score
    if source_nodes:
        columns = batched_single_source(view, source_nodes)
        for position, slot in enumerate(source_slots):
            values[slot] = columns[:, position].copy()
    elapsed = time.perf_counter() - started

    results: List[QueryResult] = []
    for index, request in enumerate(requests):
        if index in failures:
            results.append(failures[index])
            continue
        results.append(
            QueryResult(
                kind=request.kind,
                value=values[index],
                version=view.version,
                elapsed_seconds=elapsed,
                id=request.id,
                batched=True,
                batch_size=len(requests),
            )
        )
    return results


class AdmissionBatcher:
    """Work-conserving admission in front of the batched executors.

    ``await run(request)`` parks the caller on a future.  With no batch
    in flight the first arrival schedules a flush for the next loop
    turn; arrivals during an in-flight batch wait for it to settle
    (successfully or not) and then flush as one batch; a full batch
    flushes immediately.  The flush executes the whole batch against
    one freshly pinned snapshot **in the executor thread pool** so the
    event loop keeps admitting during the BLAS pass.
    """

    def __init__(
        self,
        pin_view,
        max_batch: int,
        run_blocking,
        telemetry=None,
    ) -> None:
        if telemetry is None:
            telemetry = NULL_TELEMETRY
        self._pin_view = pin_view
        self.max_batch = int(max_batch)
        self._run_blocking = run_blocking
        self._pending: List[tuple] = []
        self._flush_handle = None
        #: Batch tasks executing now.  Holding them keeps the loop from
        #: dropping them, and an empty set is what lets a new arrival
        #: dispatch on the next turn instead of queueing.
        self._in_flight: Set[asyncio.Task] = set()
        self.batches = 0
        self.batched_queries = 0
        self.max_batch_seen = 0
        self._telemetry = telemetry
        self._execute_hist = telemetry.registry.histogram(
            "repro_admission_execute_seconds",
            help="Batched admission execute time (pin + vectorized pass)",
        )
        gauges = GaugeGroup(telemetry.registry, "repro_admission")
        gauges.expose("max_batch", lambda: self.max_batch)
        gauges.expose("batches", lambda: self.batches)
        gauges.expose("batched_queries", lambda: self.batched_queries)
        gauges.expose(
            "mean_batch_size",
            lambda: (
                self.batched_queries / self.batches if self.batches else 0.0
            ),
        )
        gauges.expose("max_batch_seen", lambda: self.max_batch_seen)
        self._gauges = gauges

    async def run(self, request: QueryRequest) -> QueryResult:
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending.append((request, future, loop.time()))
        if len(self._pending) >= self.max_batch:
            self._flush()
        elif not self._in_flight and self._flush_handle is None:
            self._flush_handle = loop.call_soon(self._flush)
        return self._unwrap(await future)

    def _cancel_flush(self) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None

    def _flush(self) -> None:
        self._cancel_flush()
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        task = asyncio.get_running_loop().create_task(self._settle(batch))
        self._in_flight.add(task)
        task.add_done_callback(self._settled)

    def _settled(self, task: asyncio.Task) -> None:
        # Runs however the batch ended, so a failed pin or execute
        # never strands the queries queued behind it.
        self._in_flight.discard(task)
        self._flush()

    async def _settle(self, batch: List[tuple]) -> None:
        requests = [request for request, _, _ in batch]
        now = asyncio.get_running_loop().time()
        tracer = self._telemetry.tracer
        for request, _, enqueued in batch:
            tracer.record(
                "admission.wait",
                request.trace_id,
                now - enqueued,
                batch_size=len(batch),
            )
        try:
            results = await self._execute(requests)
        except BaseException as exc:  # pin/execute failed wholesale
            for _, future, _ in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        self.batches += 1
        self.batched_queries += len(batch)
        if len(batch) > self.max_batch_seen:
            self.max_batch_seen = len(batch)
        for (_, future, _), result in zip(batch, results):
            if not future.done():
                future.set_result(result)

    async def _execute(self, requests: List[QueryRequest]):
        tracer = self._telemetry.tracer
        traced = [
            request.trace_id
            for request in requests
            if tracer.sampled(request.trace_id)
        ]

        def work():
            pin_started = time.perf_counter()
            view = self._pin_view()
            pin_elapsed = time.perf_counter() - pin_started
            exec_started = time.perf_counter()
            results = execute_batch(view, requests)
            exec_elapsed = time.perf_counter() - exec_started
            self._execute_hist.observe(pin_elapsed + exec_elapsed)
            # The whole batch shares one pin and one vectorized pass, so
            # every traced member gets the same span timings tagged with
            # the fan-in it rode along with.
            for trace_id in traced:
                tracer.record(
                    "admission.pin",
                    trace_id,
                    pin_elapsed,
                    batch_size=len(requests),
                    version=view.version,
                )
                tracer.record(
                    "admission.execute",
                    trace_id,
                    exec_elapsed,
                    batch_size=len(requests),
                )
            return results

        return await self._run_blocking(work)

    @staticmethod
    def _unwrap(result):
        if isinstance(result, BaseException):
            raise result
        return result

    def drain(self) -> None:
        """Fail every parked query (service shutting down).

        A batch already in flight still completes and answers its own
        queries; nothing queued behind it runs.
        """
        self._cancel_flush()
        pending, self._pending = self._pending, []
        for _, future, _ in pending:
            if not future.done():
                future.cancel()

    def report(self) -> dict:
        """Admission counters for the metrics endpoint.

        Rendered through the :class:`GaugeGroup`, so the same readers
        back this dict and the registry's Prometheus gauges — key names
        are the historical ones.
        """
        return self._gauges.report()
