"""The three workloads: set-up, the measured window, and the checks.

All three use the Fig. 2a data shape: a CITH-like citation network of
2000 papers over 10 yearly cohorts, snapshotted mid-evolution, with the
following arrivals as the update stream (damping 0.6, K = 15).  The
network is a fixed data set, like the paper's real ones; the seed
drives every draw of the load.  Per-update cost follows the network's
affected areas, so a network per seed would swing the latencies by
±15% between seeds and hide any change smaller than that.

* ``unit-stream`` — closed loop, one caller applying the arrivals one
  ``DynamicSimRank.apply`` at a time (the paper's own protocol), each
  citing paper kept or skipped by a seeded coin.
* ``query-wire`` — open loop, reads only: 100 ``POST /query``/s over two
  keep-alive connections, nodes Zipf-skewed by in-degree.
* ``mixed-durable`` — open loop, one citing paper per second posted to
  ``POST /updates`` beside 60 reads/s, with the write-ahead log on.

Each run sets up :data:`SETUPS` times and reports the median, so work
moved into set-up shows; the last set-up is the one measured.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import shutil
import statistics
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.datasets.citation import citation_network
from repro.frontdoor.server import FrontDoor
from repro.incremental.engine import DynamicSimRank
from repro.serving.config import DurabilityConfig, ServiceConfig
from repro.serving.service import SimRankService
from repro.simrank.matrix import matrix_simrank
from repro.telemetry import Telemetry

from . import layers
from .spans import Recorder
from .stats import (
    assign_to_drains,
    best_window_percentile,
    freshness,
    percentile,
)

NUM_PAPERS = 2000
#: The data set: ``perf_gate``'s default network seed.
NETWORK_SEED = 7
#: Share of citing papers a ``unit-stream`` seed keeps in its stream.
PAPER_KEEP = 0.5
NUM_YEARS = 10
REFERENCES = 12
RECENCY = 0.7
DAMPING = 0.6
ITERATIONS = 15

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Exactness bar against a batch recompute (the perf gate's tolerance).
EXACT_TOLERANCE = 1e-9
#: Traced runs alternate untraced and traced blocks of this length, so
#: one run yields both the per-layer spans and the tracing overhead.
BLOCK_SECONDS = 1.0
#: Seconds after the schedule ends before unanswered requests fail.  It
#: costs nothing when the server keeps up, and lets a backlog left by a
#: host stall near the end drain instead of reading as failures.
GRACE_SECONDS = 5.0
TOP_K = 10

#: Below the 150/s first tried: each connection carries one request at a
#: time and every query sits out the 2 ms admission window, so at 150/s
#: a slow spell of the host pushed each connection past 60% busy and
#: p95 swung from 8.5 to 22 ms across runs.  At 100/s a connection is
#: about 25% busy.
QUERY_RATE = 100.0
QUERY_MIX = (("similarity", 0.6), ("single_source", 0.3), ("top_k", 0.1))
#: Share of ``query-wire`` replies kept and checked bit for bit.
CHECKED_SHARE = 0.03
PAPER_RATE = 1.0
MIXED_QUERY_RATE = 60.0

GENERATOR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "generator.py")


class Outcome:
    """What one run measured and whether its checks held."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: List[tuple] = []
        #: End-to-end metrics: name -> value (units in ``run.py``).
        self.metrics: Dict[str, float] = {}
        #: The workload's own end-to-end figures, printed by name.
        self.report: List[tuple] = []
        #: Per-layer metrics: name -> (value, samples, note).
        self.layers: Dict[str, tuple] = {}

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


class Run:
    """One invocation's settings plus the trace recorder, when tracing."""

    def __init__(self, seed: int, seconds: float, trace: bool, workdir: str):
        self.seed = seed
        self.seconds = float(seconds)
        self.workdir = workdir
        self.recorder: Optional[Recorder] = Recorder() if trace else None
        if self.recorder is not None:
            self.recorder.install(layers.targets())
            self.recorder.enabled = True

    def traced(self, origin: float, moment: float) -> bool:
        """Whether ``moment`` falls in a traced block of the window."""
        if self.recorder is None:
            return False
        return int((moment - origin) / BLOCK_SECONDS) % 2 == 1

    def traced_seconds(self, origin: float, end: float) -> float:
        """Seconds of ``[origin, end)`` that fall in traced blocks."""
        if self.recorder is None:
            return 0.0
        total = 0.0
        start = origin + BLOCK_SECONDS
        while start < end:
            total += min(end, start + BLOCK_SECONDS) - start
            start += 2 * BLOCK_SECONDS
        return total

    def open_window(self) -> None:
        if self.recorder is not None:
            self.recorder.enabled = False
            self.recorder.phase = "window"

    def close(self) -> None:
        if self.recorder is not None:
            self.recorder.enabled = False
            self.recorder.uninstall()


def make_inputs():
    """The mid-evolution snapshot and the arrivals that follow it."""
    network = citation_network(
        NUM_PAPERS,
        num_years=NUM_YEARS,
        references_per_paper=REFERENCES,
        recency_bias=RECENCY,
        seed=NETWORK_SEED,
    )
    times = network.timestamps()
    middle = times[len(times) // 2]
    base = network.snapshot_at(middle)
    arrivals = list(network.delta_between(middle, times[-1]))
    return base, arrivals


def papers_of(arrivals) -> List[list]:
    """Consecutive arrivals grouped by citing paper (the edge source)."""
    papers: List[list] = []
    for update in arrivals:
        if papers and papers[-1][0].source == update.source:
            papers[-1].append(update)
        else:
            papers.append([update])
    return papers


def service_config(durability: Optional[str] = None, writer: str = "background"):
    return ServiceConfig(
        damping=DAMPING,
        iterations=ITERATIONS,
        writer=writer,
        durability=None
        if durability is None
        else DurabilityConfig(data_dir=durability),
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_report(name: str, values: List[float], q: float, scale: float = 1e3):
    """A percentile for the printed report, or why there is none."""
    try:
        return name, scale * percentile(values, q), "ms", len(values)
    except ValueError as exc:
        return name, None, "ms", f"{len(values)} samples ({exc})"


def check_exact(outcome: Outcome, graph, scores: np.ndarray) -> None:
    """Final S against a batch recompute of the final graph."""
    exact = matrix_simrank(graph, service_config().simrank_config())
    error = float(np.max(np.abs(scores - exact)))
    outcome.check(
        "exact_vs_batch",
        error <= EXACT_TOLERANCE,
        f"max |S - S_batch| = {error:.3e} (bar {EXACT_TOLERANCE:g})",
    )


def overhead(traced: List[float], untraced: List[float], q: float) -> tuple:
    """Traced ÷ untraced value of one latency percentile."""
    try:
        ratio = percentile(traced, q) / percentile(untraced, q)
    except (ValueError, ZeroDivisionError):
        return 0.0, min(len(traced), len(untraced)), "too few samples"
    return ratio, min(len(traced), len(untraced)), ""


# ------------------------------------------------------------------ #
# unit-stream
# ------------------------------------------------------------------ #


def unit_stream(run: Run) -> Outcome:
    outcome = Outcome()
    base, arrivals = make_inputs()
    rng = np.random.default_rng(run.seed)
    kept = [paper for paper in papers_of(arrivals) if rng.random() < PAPER_KEEP]
    stream = [update for paper in kept for update in paper]
    config = service_config(writer="sync")
    setups = []
    for _ in range(SETUPS):
        engine = None  # free the previous set-up first: one engine at a time
        started = time.perf_counter()
        engine = DynamicSimRank(
            base,
            config.simrank_config(),
            telemetry=Telemetry.from_config(config.telemetry),
        )
        setups.append(time.perf_counter() - started)

    run.open_window()
    recorder = run.recorder
    samples: Dict[bool, List[float]] = {False: [], True: []}
    origin = time.monotonic()
    deadline = origin + run.seconds
    for update in stream:
        now = time.monotonic()
        if now >= deadline:
            break
        traced = run.traced(origin, now)
        if recorder is not None:
            recorder.enabled = traced
        outcome.attempted += 1
        started = time.perf_counter()
        try:
            engine.apply(update)
        except Exception as exc:  # a failed apply ends the stream
            outcome.failed += 1
            outcome.check("apply", False, f"{type(exc).__name__}: {exc}")
            break
        samples[traced].append(time.perf_counter() - started)
    end = time.monotonic()
    if recorder is not None:
        recorder.enabled = False
    rss = peak_rss_mb()
    if end < deadline:
        outcome.check("stream_long_enough", False, "ran out of arrivals")
    check_exact(outcome, engine.graph, engine.similarities())

    latencies = samples[False]
    if recorder is None:
        outcome.metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "latency_p50_ms": 1e3 * best_window_percentile(latencies, 50),
            "latency_p95_ms": 1e3 * best_window_percentile(latencies, 95),
        }
        count = len(latencies)
        outcome.report = [
            ("update_p50_ms", outcome.metrics["latency_p50_ms"], "ms", count),
            ("update_p95_ms", outcome.metrics["latency_p95_ms"], "ms", count),
            ("updates_per_s", count / sum(latencies), "1/s", count),
        ]
    else:
        outcome.layers = layers.compute(
            recorder.spans,
            run.traced_seconds(origin, end),
            {
                "bench.trace_overhead.latency_p50_ms": overhead(
                    samples[True], samples[False], 50
                ),
                "bench.trace_overhead.latency_p95_ms": overhead(
                    samples[True], samples[False], 95
                ),
            },
        )
    report_common(outcome, setups, rss)
    return outcome


def report_common(outcome: Outcome, setups: List[float], rss: float) -> None:
    """Add the figures every workload reports."""
    outcome.report += [
        ("setup_s", statistics.median(setups), "s", len(setups)),
        ("peak_rss_mb", rss, "MB", 1),
        (
            "error_rate",
            outcome.failed / outcome.attempted if outcome.attempted else 1.0,
            "fraction",
            outcome.attempted,
        ),
    ]


# ------------------------------------------------------------------ #
# The wire workloads
# ------------------------------------------------------------------ #


async def start_service(base, config):
    """One set-up: service, front door, and the first top-k build."""
    service = SimRankService(base, config)
    try:
        door = await FrontDoor(service).start()
    except BaseException:
        service.close()
        raise
    # The first top_k builds the shard heaps: a once-per-boot cost that
    # belongs to set-up, not to the first measured samples.
    service.top_k(TOP_K)
    return service, door


async def stop_service(service, door) -> None:
    await door.stop()
    service.close()


async def drive(run: Run, door, connections: list) -> tuple:
    """Run the generator process over ``connections``; return its result.

    Returns ``(origin, result)``: the schedule origin on the shared
    monotonic clock and the generator's per-request records.
    """
    spec = {
        "host": door.host,
        "port": door.port,
        "duration": run.seconds,
        "grace": GRACE_SECONDS,
        "connections": connections,
    }
    path = os.path.join(run.workdir, "generator.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    process = await asyncio.create_subprocess_exec(
        sys.executable,
        GENERATOR,
        path,
        stdin=asyncio.subprocess.PIPE,
        stdout=asyncio.subprocess.PIPE,
        limit=1 << 28,
    )
    loop = asyncio.get_running_loop()
    try:
        ready = await asyncio.wait_for(process.stdout.readline(), 60)
        if ready.strip() != b"ready":
            raise RuntimeError(f"generator did not start: {ready!r}")
        origin = time.monotonic() + 0.2
        run.open_window()
        recorder = run.recorder
        if recorder is not None:
            block = 0
            while block * BLOCK_SECONDS < run.seconds:
                loop.call_at(
                    origin + block * BLOCK_SECONDS,
                    setattr,
                    recorder,
                    "enabled",
                    block % 2 == 1,
                )
                block += 1
            loop.call_at(origin + run.seconds, setattr, recorder, "enabled", False)
        process.stdin.write(f"{origin!r}\n".encode())
        await process.stdin.drain()
        line = await asyncio.wait_for(
            process.stdout.readline(), run.seconds + GRACE_SECONDS + 60
        )
        await asyncio.wait_for(process.wait(), 30)
    finally:
        if process.returncode is None:
            process.kill()
            await process.wait()
    if run.recorder is not None:
        run.recorder.enabled = False
    return origin, json.loads(line)


def in_degree_zipf(rng, graph, size) -> np.ndarray:
    """Nodes drawn with probability ∝ 1/rank, ranked by in-degree."""
    n = graph.num_nodes
    degrees = np.array([graph.in_degree(node) for node in range(n)])
    ranked = np.lexsort((np.arange(n), -degrees))
    weights = 1.0 / np.arange(1, n + 1)
    return ranked[rng.choice(n, size=size, p=weights / weights.sum())]


def query_body(kind: str, a: int, b: int, request_id: str) -> dict:
    if kind == "similarity":
        return {"kind": kind, "node_a": a, "node_b": b, "id": request_id}
    if kind == "single_source":
        return {"kind": kind, "node": a, "id": request_id}
    return {"kind": kind, "k": TOP_K, "id": request_id}


class Tally:
    """Per-request bookkeeping over the generator's records."""

    def __init__(self, run: Run, origin: float) -> None:
        self.run = run
        self.origin = origin
        #: traced? -> [(due time, latency)], in any order.
        self.latency: Dict[bool, List[tuple]] = {False: [], True: []}
        self.lags: List[float] = []
        self.round_trips: Dict[str, float] = {}
        self.unanswered = 0
        self.refused = 0

    def add(self, outcome: Outcome, request, record, track_latency=True):
        """Count one request; returns its reply status (None: unanswered)."""
        offset, _, body, _ = request
        outcome.attempted += 1
        if record is None:
            outcome.failed += 1
            self.unanswered += 1
            return None
        sent, received, status, _, lag = record
        self.lags.append(lag)
        if status != 200:
            outcome.failed += 1
            self.refused += 1
            return status
        due = self.origin + offset
        if track_latency:
            traced = self.run.traced(self.origin, due)
            self.latency[traced].append((due, received - due))
            if traced:
                self.round_trips[body["id"]] = received - sent
        return status

    def finish(self, outcome: Outcome, server: Dict[str, float]) -> dict:
        """Untraced runs: the end-to-end latencies.  Traced: the extras."""
        untraced, traced = (
            [latency for _, latency in sorted(self.latency[key])]
            for key in (False, True)
        )
        if self.run.recorder is None:
            p50 = 1e3 * best_window_percentile(untraced, 50)
            p95 = 1e3 * best_window_percentile(untraced, 95)
            outcome.metrics["latency_p50_ms"] = p50
            outcome.metrics["latency_p95_ms"] = p95
            outcome.report += [
                ("query_p50_ms", p50, "ms", len(untraced)),
                ("query_p95_ms", p95, "ms", len(untraced)),
                percentile_report("query_p99_ms", untraced, 99),
                ("unanswered", self.unanswered, "count", outcome.attempted),
                ("refused", self.refused, "count", outcome.attempted),
            ]
            return {}
        wire = [
            trip - server[request_id]
            for request_id, trip in self.round_trips.items()
            if request_id in server
        ]
        return {
            "bench.gen_lag_p99_ms": layers.summary(self.lags, "p99", 1e3),
            "frontdoor.wire_ms.p50": layers.summary(wire, "p50", 1e3),
            "bench.trace_overhead.latency_p50_ms": overhead(traced, untraced, 50),
            "bench.trace_overhead.latency_p95_ms": overhead(traced, untraced, 95),
        }


def topk_hits(index, before) -> tuple:
    """Heap hit rate of the top-k index over the window."""
    if index is None or before is None:
        return 0.0, 0, ""
    queries = index.stats.shard_queries - before[0]
    rescans = index.stats.shard_rescans - before[1]
    if not queries:
        return 0.0, 0, ""
    return 1.0 - rescans / queries, queries, ""


def topk_counters(service):
    index = service.engine.topk_index
    if index is None:
        return None, None
    return index, (index.stats.shard_queries, index.stats.shard_rescans)


async def repeated_setup(base, make_config, on_teardown=None):
    """Set up :data:`SETUPS` times; keep the last.  Returns the times too."""
    setups = []
    live = None
    for attempt in range(SETUPS):
        if live is not None:
            await stop_service(*live)
            if on_teardown is not None:
                on_teardown(attempt - 1)
            live = None
        config = make_config(attempt)
        started = time.perf_counter()
        live = await start_service(base, config)
        setups.append(time.perf_counter() - started)
    return live, setups


# ------------------------------------------------------------------ #
# query-wire
# ------------------------------------------------------------------ #


async def query_wire(run: Run) -> Outcome:
    outcome = Outcome()
    base, _ = make_inputs()
    rng = np.random.default_rng(run.seed)
    count = int(QUERY_RATE * run.seconds)
    nodes = in_degree_zipf(rng, base, (count, 2))
    kinds = rng.choice(
        [kind for kind, _ in QUERY_MIX],
        size=count,
        p=[share for _, share in QUERY_MIX],
    )
    keep = rng.random(count) < CHECKED_SHARE
    connections: List[list] = [[], []]
    for index in range(count):
        body = query_body(
            str(kinds[index]), int(nodes[index, 0]), int(nodes[index, 1]), str(index)
        )
        connections[index % 2].append(
            [index / QUERY_RATE, "/query", body, bool(keep[index])]
        )

    (service, door), setups = await repeated_setup(
        base, lambda attempt: service_config()
    )
    try:
        index, hit_base = topk_counters(service)
        origin, result = await drive(run, door, connections)
        rss = peak_rss_mb()
        tally = Tally(run, origin)
        for requests, records in zip(connections, result["records"]):
            for request, record in zip(requests, records):
                tally.add(outcome, request, record)
        check_replies(outcome, service, connections, result)
        for error in result["errors"]:
            outcome.check("generator", False, error)
        hits = topk_hits(index, hit_base)
    finally:
        await stop_service(service, door)
    outcome.metrics["setup_s"] = statistics.median(setups)
    outcome.metrics["peak_rss_mb"] = rss
    recorder = run.recorder
    extra = tally.finish(
        outcome, layers.server_times(recorder.spans) if recorder else {}
    )
    if recorder is not None:
        extra["executor.topk_heap_hit_rate"] = hits
        outcome.layers = layers.compute(
            recorder.spans, run.traced_seconds(origin, origin + run.seconds), extra
        )
    report_common(outcome, setups, rss)
    return outcome


def check_replies(outcome: Outcome, service, connections, result) -> None:
    """Kept wire answers must equal the snapshot's, bit for bit."""
    view = service.snapshot()
    checked = wrong = 0
    for requests, kept in zip(connections, result["kept"]):
        for position, reply in kept.items():
            body = requests[int(position)][2]
            if reply is None or reply.get("version") != view.version:
                ok = False
            elif body["kind"] == "similarity":
                ok = reply["value"] == view.similarity(body["node_a"], body["node_b"])
            elif body["kind"] == "single_source":
                ok = np.array_equal(
                    np.asarray(reply["value"], dtype=np.float64),
                    view.single_source(body["node"]),
                )
            else:
                expected = [[a, b, s] for a, b, s in view.top_k(body["k"])]
                ok = reply["value"] == expected
            checked += 1
            if not ok:
                wrong += 1
    outcome.failed += wrong
    outcome.check(
        "wire_answers_bit_identical",
        checked > 0 and wrong == 0,
        f"{checked} replies checked at version {view.version}, {wrong} differ",
    )


# ------------------------------------------------------------------ #
# mixed-durable
# ------------------------------------------------------------------ #


def wire_update(update) -> list:
    return ["insert" if update.is_insert else "delete", update.source, update.target]


class DrainLog:
    """Submissions and drains seen from the benchmark's side.

    The scheduler's ``submit`` and ``drain`` are shadowed on the one
    instance the service owns, to note when each update entered the
    queue and how many each drain took; a drain listener notes when the
    version a drain published became visible.
    """

    def __init__(self, service) -> None:
        scheduler = service.scheduler
        self.submitted: List[float] = []
        self.drains: List[tuple] = []  # (size, started, visible)
        self._taken = (0, 0.0)
        submit, drain = scheduler.submit, scheduler.drain

        def noted_submit(update):
            submit(update)
            self.submitted.append(time.monotonic())

        def noted_drain():
            started = time.monotonic()
            batch = drain()
            if len(batch):
                self._taken = (len(batch), started)
            return batch

        scheduler.submit = noted_submit
        scheduler.drain = noted_drain
        service.add_drain_listener(self._on_drain)

    def _on_drain(self, version: int) -> None:
        size, started = self._taken
        self.drains.append((size, started, time.monotonic()))


async def mixed_durable(run: Run) -> Outcome:
    outcome = Outcome()
    base, arrivals = make_inputs()
    rng = np.random.default_rng(run.seed)
    papers = papers_of(arrivals)[: int(PAPER_RATE * run.seconds)]
    writes = [
        [
            index / PAPER_RATE,
            "/updates",
            {"updates": [wire_update(update) for update in paper], "validate": True},
            True,
        ]
        for index, paper in enumerate(papers)
    ]
    count = int(MIXED_QUERY_RATE * run.seconds)
    nodes = rng.integers(base.num_nodes, size=(count, 2))
    single = rng.random(count) < 1.0 / 3.0
    reads = [
        [
            index / MIXED_QUERY_RATE,
            "/query",
            query_body(
                "single_source" if single[index] else "similarity",
                int(nodes[index, 0]),
                int(nodes[index, 1]),
                f"r{index}",
            ),
            False,
        ]
        for index in range(count)
    ]

    def data_dir(attempt: int) -> str:
        return os.path.join(run.workdir, f"data-{attempt}")

    (service, door), setups = await repeated_setup(
        base,
        lambda attempt: service_config(durability=data_dir(attempt)),
        lambda attempt: shutil.rmtree(data_dir(attempt)),
    )
    final_dir = data_dir(SETUPS - 1)
    loop = asyncio.get_running_loop()
    try:
        log = DrainLog(service)
        store = service.engine.score_store
        scheduler_stats = service.scheduler.stats
        wal_bytes = service.telemetry.registry.get("repro_wal_bytes_total")
        index, hit_base = topk_counters(service)
        before = (
            store.cow_copies,
            scheduler_stats.drained_updates,
            scheduler_stats.drained_groups,
            wal_bytes.value,
        )
        origin, result = await drive(run, door, [writes, reads])
        rss = peak_rss_mb()
        await loop.run_in_executor(None, service.flush)
        tally = Tally(run, origin)
        accepted_sizes, accepted_due = [], []
        for position, (request, record) in enumerate(
            zip(writes, result["records"][0])
        ):
            status = tally.add(outcome, request, record, track_latency=False)
            if status != 200:
                continue
            reply = result["kept"][0][str(position)]
            size = len(request[2]["updates"])
            if reply["accepted"] != size or reply["rejected"]:
                outcome.failed += 1
                outcome.check("updates_accepted", False, json.dumps(reply))
            accepted_sizes.append(reply["accepted"])
            accepted_due.append(origin + request[0])
        for request, record in zip(reads, result["records"][1]):
            tally.add(outcome, request, record)
        for error in result["errors"]:
            outcome.check("generator", False, error)

        fresh = freshness(
            accepted_due,
            accepted_sizes,
            [(size, visible) for size, _, visible in log.drains],
        )
        unmatched = sum(1 for value in fresh if value is None)
        drained_total = sum(size for size, _, _ in log.drains)
        outcome.check(
            "every_update_published",
            unmatched == 0 and drained_total == len(log.submitted),
            f"{unmatched} papers never published",
        )
        fresh = [value for value in fresh if value is not None]
        owners = assign_to_drains([1] * len(log.submitted), [d[0] for d in log.drains])
        waits = [
            log.drains[owner][1] - submitted
            for submitted, owner in zip(log.submitted, owners)
            if owner is not None
        ]
        drained = scheduler_stats.drained_updates - before[1]
        groups = scheduler_stats.drained_groups - before[2]
        window_counters = {
            "executor.cow_copies_per_drain": (
                (store.cow_copies - before[0]) / max(1, len(log.drains)),
                len(log.drains),
                "",
            ),
            "serving.coalescing_ratio": (drained / max(1, groups), groups, ""),
            "durability.wal_bytes_per_update": (
                (wal_bytes.value - before[3]) / drained if drained else 0.0,
                drained,
                "",
            ),
            "executor.topk_heap_hit_rate": topk_hits(index, hit_base),
            "serving.queue_wait_ms.p50": layers.summary(waits, "p50", 1e3),
            "serving.freshness_ms.p50": layers.summary(fresh, "p50", 1e3),
            "serving.freshness_ms.max": layers.summary(fresh, "max", 1e3),
        }
        manager = service.durability
        outcome.check(
            "durability_not_failed",
            not manager.failed,
            "write-ahead log healthy" if not manager.failed else "manager failed",
        )
        replay_frames = manager.wal_lag_drains()
        final_scores = service.engine.similarities()
        final_graph = service.engine.graph.copy()
        final_version = service.version
    finally:
        await stop_service(service, door)

    started = time.perf_counter()
    recovered = SimRankService(
        base, service_config(durability=final_dir, writer="sync")
    )
    recovery = time.perf_counter() - started
    try:
        same = recovered.version == final_version and np.array_equal(
            recovered.engine.similarities(), final_scores
        )
        outcome.check(
            "recovery_bit_identical",
            same,
            f"recovered v{recovered.version} (live v{final_version}) "
            f"in {recovery:.3f} s",
        )
    finally:
        recovered.close()
    check_exact(outcome, final_graph, final_scores)

    outcome.metrics["setup_s"] = statistics.median(setups)
    outcome.metrics["peak_rss_mb"] = rss
    recorder = run.recorder
    extra = tally.finish(
        outcome, layers.server_times(recorder.spans) if recorder else {}
    )
    outcome.report += [
        percentile_report("freshness_p50_ms", fresh, 50),
        percentile_report("freshness_p90_ms", fresh, 90),
        ("recovery_s", recovery, "s", 1),
    ]
    if recorder is not None:
        extra.update(window_counters)
        extra["durability.replay_frames"] = (replay_frames, 1, "")
        extra["durability.recovery_s"] = (recovery, 1, "")
        outcome.layers = layers.compute(
            recorder.spans, run.traced_seconds(origin, origin + run.seconds), extra
        )
    report_common(outcome, setups, rss)
    return outcome


WORKLOADS = {
    "unit-stream": unit_stream,
    "query-wire": query_wire,
    "mixed-durable": mixed_durable,
}
