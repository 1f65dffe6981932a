"""Closed-loop many-client load generator for the network front door.

Measures what the front door actually promises — wire-level p50/p99
under concurrent clients **while background drains land** — and gates
the correctness claims at the same time:

* ``--clients N`` closed-loop HTTP clients issue a similarity /
  single-source mix as fast as their own round trips allow (closed
  loop: no open-loop arrival process hiding queueing);
* an **update driver** posts validated edge toggles throughout the
  run, so every latency sample rides over live drain traffic;
* a **pinned-session probe** pins one session up front and keeps
  re-reading the same pairs through it — any deviation from the first
  answers fails the run (bit-stability over the wire), while its
  paired *fresh* reads must see monotonically non-decreasing versions;
* a **WebSocket subscriber** maintains the top-k ranking purely from
  pushed deltas, digest-checking every step, and at the end the
  reconstructed ranking must equal a full recompute;
* any protocol error anywhere fails the run.

Two modes: self-hosted (default — builds a seeded random graph, a
background-writer service, and an in-process front door) or
``--connect HOST:PORT`` against an already-running ``serve --http``
instance (the CI smoke leg).

Usage::

    python -m repro.bench.frontdoor --clients 8 --duration 5
    python -m repro.bench.frontdoor --connect 127.0.0.1:8731 \
        --clients 8 --duration 5
    python -m repro.bench.frontdoor --merge-into BENCH_pr8.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from typing import List, Optional

import numpy as np

from ..frontdoor.protocol import HTTPClient, ws_connect, ws_recv_json
from ..frontdoor.subscriptions import apply_delta, ranking_digest
from ..telemetry import MetricRegistry, validate_scrape


def _latency_ms(histogram) -> dict:
    """Wire the histogram digest into the report's historical shape."""
    digest = histogram.summary()
    return {
        "count": int(digest["count"]),
        "p50_ms": digest["p50"] * 1e3,
        "p99_ms": digest["p99"] * 1e3,
        "mean_ms": digest["mean"] * 1e3,
    }


class _Run:
    """Shared mutable state of one benchmark run.

    Latency samples land in client-side registry histograms (the same
    fixed-bucket instruments the server exposes), so the report's
    p50/p99 come from the telemetry digest path rather than a bespoke
    percentile helper — the benchmark eats the same math it gates.
    """

    def __init__(self) -> None:
        self.registry = MetricRegistry()
        self.latencies = {
            kind: self.registry.histogram(
                f"bench_{kind}_seconds",
                help=f"Client-observed {kind} round-trip seconds",
            )
            for kind in ("similarity", "single_source")
        }
        self.overall = self.registry.histogram(
            "bench_query_seconds",
            help="Client-observed query round-trip seconds (all kinds)",
        )
        self.failures: List[str] = []
        self.requests = 0
        self.updates_accepted = 0
        self.updates_posted = 0
        self.deltas = 0
        self.digest_failures = 0
        self.session_checks = 0
        self.session_stable = True
        self.versions_monotone = True
        self.batched_max = 1

    def fail(self, message: str) -> None:
        self.failures.append(message)


async def _query_client(
    host: str,
    port: int,
    num_nodes: int,
    run: _Run,
    end_time: float,
    seed: int,
) -> None:
    rng = np.random.default_rng(seed)
    client = HTTPClient(host, port)
    try:
        await client.connect()
        while time.monotonic() < end_time:
            if rng.random() < 0.7:
                payload = {
                    "kind": "similarity",
                    "node_a": int(rng.integers(num_nodes)),
                    "node_b": int(rng.integers(num_nodes)),
                }
            else:
                payload = {
                    "kind": "single_source",
                    "node": int(rng.integers(num_nodes)),
                }
            started = time.perf_counter()
            status, body = await client.request("POST", "/query", payload)
            elapsed = time.perf_counter() - started
            if status != 200:
                run.fail(f"query returned {status}: {body}")
                return
            run.requests += 1
            run.latencies[payload["kind"]].observe(elapsed)
            run.overall.observe(elapsed)
            size = int(body.get("batch_size", 1))
            if size > run.batched_max:
                run.batched_max = size
    except Exception as exc:  # protocol failures are gate failures
        run.fail(f"query client died: {type(exc).__name__}: {exc}")
    finally:
        await client.close()


async def _update_driver(
    host: str,
    port: int,
    num_nodes: int,
    run: _Run,
    end_time: float,
    seed: int,
    interval: float,
    batch_size: int,
) -> None:
    """Toggle random edges with server-side validation.

    Keeps a local belief of each touched edge's state, corrected from
    the server's per-update verdicts, so the stream stays almost
    entirely valid while still exercising the rejection path.
    """
    rng = np.random.default_rng(seed)
    belief: dict = {}
    client = HTTPClient(host, port)
    try:
        await client.connect()
        while time.monotonic() < end_time:
            updates = []
            for _ in range(batch_size):
                source = int(rng.integers(num_nodes))
                target = int(rng.integers(num_nodes))
                if source == target:
                    continue
                key = (source, target)
                insert = not belief.get(key, False)
                updates.append(
                    ["insert" if insert else "delete", source, target]
                )
                belief[key] = insert
            if not updates:
                continue
            status, body = await client.request(
                "POST",
                "/updates",
                {"updates": updates, "validate": True},
            )
            if status != 200:
                run.fail(f"updates returned {status}: {body}")
                return
            run.updates_posted += len(updates)
            run.updates_accepted += int(body["accepted"])
            for op, source, target, _reason in body["rejected"]:
                # Server knew better (edge pre-existed or vanished);
                # adopt its view so the next toggle is valid.
                belief[(source, target)] = op == "delete"
            await asyncio.sleep(interval)
    except Exception as exc:
        run.fail(f"update driver died: {type(exc).__name__}: {exc}")
    finally:
        await client.close()


async def _session_probe(
    host: str,
    port: int,
    num_nodes: int,
    run: _Run,
    end_time: float,
    seed: int,
) -> None:
    """Bit-stability of one pinned session + fresh-read monotonicity."""
    rng = np.random.default_rng(seed)
    pairs = [
        (int(rng.integers(num_nodes)), int(rng.integers(num_nodes)))
        for _ in range(16)
    ]
    client = HTTPClient(host, port)
    try:
        await client.connect()
        status, body = await client.request(
            "POST", "/session", {"ttl": 120}
        )
        if status != 201:
            run.fail(f"session create returned {status}: {body}")
            return
        session = body["session"]
        reference = {}
        for a, b in pairs:
            status, body = await client.request(
                "POST",
                "/query",
                {
                    "kind": "similarity",
                    "node_a": a,
                    "node_b": b,
                    "session": session,
                },
            )
            if status != 200:
                run.fail(f"session query returned {status}: {body}")
                return
            reference[(a, b)] = body["value"]
        last_fresh_version = -1
        while time.monotonic() < end_time:
            a, b = pairs[int(rng.integers(len(pairs)))]
            status, body = await client.request(
                "POST",
                "/query",
                {
                    "kind": "similarity",
                    "node_a": a,
                    "node_b": b,
                    "session": session,
                },
            )
            if status != 200:
                run.fail(f"session query returned {status}: {body}")
                return
            run.session_checks += 1
            if body["value"] != reference[(a, b)]:
                run.session_stable = False
                run.fail(
                    f"pinned session drifted on pair ({a}, {b}): "
                    f"{reference[(a, b)]!r} -> {body['value']!r}"
                )
                return
            status, fresh = await client.request(
                "POST",
                "/query",
                {"kind": "similarity", "node_a": a, "node_b": b},
            )
            if status != 200:
                run.fail(f"fresh query returned {status}: {fresh}")
                return
            if fresh["version"] < last_fresh_version:
                run.versions_monotone = False
                run.fail(
                    f"fresh read version went backwards: "
                    f"{last_fresh_version} -> {fresh['version']}"
                )
                return
            last_fresh_version = fresh["version"]
            await asyncio.sleep(0.01)
        await client.request("DELETE", f"/session/{session}")
    except Exception as exc:
        run.fail(f"session probe died: {type(exc).__name__}: {exc}")
    finally:
        await client.close()


async def _subscriber(
    host: str,
    port: int,
    k: int,
    run: _Run,
    stop: asyncio.Event,
    state: dict,
) -> None:
    """Maintain the top-k ranking purely from pushed deltas.

    Runs until ``stop`` is set — it must outlive the load phase so the
    deltas from the final flush still arrive before the end-of-run
    equality check.
    """
    try:
        reader, writer = await ws_connect(host, port, f"/ws/topk?k={k}")
        state["writer"] = writer
        message = await ws_recv_json(reader)
        if message is None or message.get("type") != "snapshot":
            run.fail(f"subscription did not open with a snapshot: {message}")
            return
        ranking = [(a, b, score) for a, b, score in message["ranking"]]
        if ranking_digest(ranking) != message["digest"]:
            run.digest_failures += 1
            run.fail("initial subscription snapshot digest mismatch")
            return
        state["ranking"] = ranking
        while not stop.is_set():
            try:
                message = await asyncio.wait_for(
                    ws_recv_json(reader), timeout=0.25
                )
            except asyncio.TimeoutError:
                continue
            if message is None or message.get("type") == "closed":
                break
            if message.get("type") != "delta":
                continue
            ranking = apply_delta(
                ranking, message["size"], message["changed"]
            )
            run.deltas += 1
            if ranking_digest(ranking) != message["digest"]:
                run.digest_failures += 1
                run.fail(
                    f"delta digest mismatch at version "
                    f"{message.get('version')}"
                )
                return
            state["ranking"] = ranking
    except Exception as exc:
        run.fail(f"subscriber died: {type(exc).__name__}: {exc}")


async def _final_equality(
    host: str,
    port: int,
    k: int,
    run: _Run,
    state: dict,
    timeout: float = 5.0,
) -> bool:
    """After quiescence: the delta-built ranking == a full recompute."""
    client = HTTPClient(host, port)
    try:
        await client.connect()
        await client.request("POST", "/flush", {})
        deadline = time.monotonic() + timeout
        while True:
            status, body = await client.request(
                "POST", "/query", {"kind": "top_k", "k": k}
            )
            if status != 200:
                run.fail(f"final top_k returned {status}: {body}")
                return False
            recomputed = [(a, b, score) for a, b, score in body["value"]]
            if state.get("ranking") == recomputed:
                return True
            if time.monotonic() >= deadline:
                run.fail(
                    "subscription ranking does not match the full "
                    f"recompute after {timeout}s of quiescence"
                )
                return False
            await asyncio.sleep(0.1)
    finally:
        await client.close()


async def _run_clients(
    host: str,
    port: int,
    args: argparse.Namespace,
    run: _Run,
) -> dict:
    async with HTTPClient(host, port) as client:
        status, health = await client.request("GET", "/health")
        if status != 200:
            raise RuntimeError(f"health probe failed: {status} {health}")
        num_nodes = int(health["num_nodes"])

    end_time = time.monotonic() + args.duration
    sub_state: dict = {}
    sub_stop = asyncio.Event()
    sub_task = asyncio.create_task(
        _subscriber(host, port, args.k, run, sub_stop, sub_state)
    )
    tasks = [
        _query_client(host, port, num_nodes, run, end_time, 1000 + i)
        for i in range(args.clients)
    ]
    tasks.append(
        _update_driver(
            host,
            port,
            num_nodes,
            run,
            end_time,
            seed=77,
            interval=args.update_interval,
            batch_size=args.update_batch,
        )
    )
    tasks.append(
        _session_probe(host, port, num_nodes, run, end_time, seed=55)
    )
    await asyncio.gather(*tasks)

    # Scrape while the server is still hot (subscriber attached, load
    # counters populated) so the validated exposition reflects a live
    # process, not an idle one.
    scrape = None
    if getattr(args, "scrape_prometheus", False):
        async with HTTPClient(host, port) as client:
            status, text = await client.request(
                "GET", "/metrics?format=prometheus", raw=True
            )
        if status != 200:
            run.fail(f"prometheus scrape returned {status}")
        else:
            try:
                scrape = validate_scrape(text)
            except ValueError as exc:
                run.fail(f"prometheus scrape invalid: {exc}")

    # The subscriber stays live through the final flush so the deltas
    # it triggers land before the equality check reads sub_state.
    final_match = False
    if not run.failures:
        final_match = await _final_equality(
            host, port, args.k, run, sub_state
        )
    sub_stop.set()
    await sub_task

    async with HTTPClient(host, port) as client:
        status, metrics = await client.request("GET", "/metrics")
        frontdoor = metrics.get("frontdoor", {}) if status == 200 else {}
    ws_writer = sub_state.get("writer")
    if ws_writer is not None:
        ws_writer.close()
    return {
        "final_match": final_match,
        "frontdoor": frontdoor,
        "prometheus_scrape": scrape,
    }


async def _bench(args: argparse.Namespace, run: _Run) -> dict:
    if args.connect:
        host, _, port_text = args.connect.rpartition(":")
        host = host or "127.0.0.1"
        outcome = await _run_clients(host, int(port_text), args, run)
        mode = {"mode": "connect", "target": args.connect}
    else:
        from ..graph.digraph import DynamicDiGraph
        from ..frontdoor import FrontDoor
        from ..serving import ServiceConfig, SimRankService

        rng = np.random.default_rng(args.seed)
        graph = DynamicDiGraph(num_nodes=args.nodes)
        target_edges = args.nodes * args.degree
        seen = set()
        while len(seen) < target_edges:
            source = int(rng.integers(args.nodes))
            target = int(rng.integers(args.nodes))
            if source != target and (source, target) not in seen:
                seen.add((source, target))
                graph.add_edge(source, target)
        service = SimRankService(
            graph,
            config=ServiceConfig(
                writer="background",
                drain_interval=0.002,
            ),
        )
        door = await FrontDoor(service).start()
        try:
            outcome = await _run_clients(door.host, door.port, args, run)
        finally:
            await door.stop()
            service.close()
        mode = {
            "mode": "self-hosted",
            "nodes": args.nodes,
            "edges": len(seen),
        }

    report = {
        **mode,
        "clients": args.clients,
        "duration_seconds": args.duration,
        "requests": run.requests,
        "throughput_rps": run.requests / args.duration,
        "latency": {
            "overall": _latency_ms(run.overall),
            "similarity": _latency_ms(run.latencies["similarity"]),
            "single_source": _latency_ms(run.latencies["single_source"]),
        },
        "max_wire_batch": run.batched_max,
        "updates": {
            "posted": run.updates_posted,
            "accepted": run.updates_accepted,
        },
        "subscription": {
            "k": args.k,
            "deltas": run.deltas,
            "digest_failures": run.digest_failures,
            "final_match": outcome["final_match"],
        },
        "session_probe": {
            "checks": run.session_checks,
            "stable": run.session_stable,
            "versions_monotone": run.versions_monotone,
        },
        "frontdoor_metrics": outcome["frontdoor"],
        "protocol_errors": len(run.failures),
        "failures": run.failures,
    }
    if outcome.get("prometheus_scrape") is not None:
        report["prometheus_scrape"] = outcome["prometheus_scrape"]
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.frontdoor",
        description="Closed-loop latency + correctness gate for the "
        "network front door.",
    )
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--duration", type=float, default=5.0)
    parser.add_argument("--nodes", type=int, default=300)
    parser.add_argument("--degree", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument(
        "--update-interval",
        type=float,
        default=0.02,
        help="seconds between update-driver batches",
    )
    parser.add_argument("--update-batch", type=int, default=8)
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="run against an already-listening serve --http instance "
        "instead of self-hosting",
    )
    parser.add_argument("--out", default=None, help="JSON report path")
    parser.add_argument(
        "--scrape-prometheus",
        action="store_true",
        help="fetch /metrics?format=prometheus from the live server "
        "mid-run and validate the exposition (scrape failures fail "
        "the gate)",
    )
    parser.add_argument(
        "--merge-into",
        default=None,
        help="existing JSON report to fold this run into "
        "(under the 'frontdoor' key)",
    )
    args = parser.parse_args(argv)

    run = _Run()
    report = asyncio.run(_bench(args, run))
    rendered = json.dumps(report, indent=2, sort_keys=True)
    print(rendered)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    if args.merge_into:
        merged = {}
        if os.path.exists(args.merge_into):
            with open(args.merge_into, "r", encoding="utf-8") as handle:
                merged = json.load(handle)
        merged["frontdoor"] = report
        with open(args.merge_into, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(merged, indent=2, sort_keys=True) + "\n"
            )
        print(
            f"merged frontdoor into {args.merge_into}", file=sys.stderr
        )

    failed = (
        bool(run.failures)
        or run.digest_failures
        or not run.session_stable
        or not run.versions_monotone
        or not report["subscription"]["final_match"]
        or run.requests == 0
    )
    if failed:
        print("FRONTDOOR GATE FAIL:", file=sys.stderr)
        for failure in run.failures or ["no requests completed"]:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(
        f"frontdoor gate OK: {run.requests} requests, "
        f"p99 {report['latency']['overall']['p99_ms']:.2f} ms, "
        f"{run.deltas} verified deltas, "
        f"{run.session_checks} stable session reads",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
