"""Smoke perf gate: per-update latency of the live engine vs the seed.

A Fig. 2a-style microbenchmark following the paper's protocol: a
CITH-like citation network (one of the Fig. 2a dataset families) is
snapshot mid-evolution, ``S`` is precomputed once, and the next edge
arrivals are applied as unit updates (a) through the live
:class:`~repro.incremental.engine.DynamicSimRank` zero-rebuild pipeline
and (b) through the frozen seed hot path in :mod:`repro.bench.legacy`.
Both pipelines start from identical state and apply the identical
update sequence, and their final scores are asserted equal, so the
wall-clock ratio isolates the update-pipeline rework.  Each pipeline is
timed over two alternating rounds and the faster round is kept,
suppressing cold-cache/ordering bias.

Writes a JSON report whose name (and CI artifact name) derive from
``--out`` — each PR records its own trajectory point (``BENCH_pr1.json``,
``BENCH_pr2.json``, …) at the repo root::

    python -m repro.bench.perf_gate --out BENCH_pr2.json --baseline BENCH_pr1.json
    python -m repro.bench.perf_gate --nodes 500 --updates 20 --min-speedup 1.5

``--baseline`` points at a previous report: the gate then also records
the per-update latency trajectory (baseline → current live mean) and,
with ``--max-baseline-ratio``, fails when the live mean regresses past
that factor of the baseline's live mean.  The gate always exits
non-zero when the measured mean speedup vs the frozen seed pipeline
falls below ``--min-speedup`` (default 3.0; CI's smoke run uses a
smaller graph and a softer bar to stay noise-tolerant).

``--precision float32`` runs the live pipeline with float32 score
storage; the bit-drift assertion against the seed is then replaced by
accuracy gates (NDCG@100 / top-100 overlap vs the seed's float64
scores, ``--min-ndcg`` / ``--min-topk-overlap``).  ``--precision-curve``
additionally records a two-leg precision comparison — float64
reference and float32 — with per-leg latency, score-store bytes,
scatter bytes-per-update, and accuracy, gated on the float32 leg's
accuracy plus a float32 win condition (≥
``--min-f32-throughput``x per-update throughput OR ≥
``--min-f32-memory-saving`` score-store memory saved).

``--max-telemetry-ratio`` adds a telemetry-overhead section: the live
pipeline is additionally timed with :mod:`repro.telemetry` enabled at
default sampling and with the shared null instance, both legs recorded
in the report, and the gate fails when the on/off mean-latency ratio
exceeds the given factor (CI uses 1.05).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from ..config import SimRankConfig
from ..datasets.citation import citation_network
from ..graph.transition import backward_transition_matrix
from ..graph.updates import UpdateBatch
from ..incremental.engine import DynamicSimRank
from ..metrics.ndcg import ndcg_at_k
from ..metrics.topk import top_k_overlap
from ..simrank.matrix import matrix_simrank
from .legacy import legacy_inc_sr_unit_update


def _workload(
    num_nodes: int,
    num_updates: int,
    references: int,
    recency: float,
    seed: int,
):
    """Fig. 2a protocol: mid-evolution citation snapshot + next arrivals.

    A citation network (CITH-like by default: ~12 refs/paper, strong
    recency bias — see :func:`repro.datasets.citation.cith_like`) is
    evolved over yearly cohorts; the graph is snapshot mid-evolution,
    SimRank is precomputed once, and the next ``num_updates`` edge
    arrivals (the delta toward the following snapshots) form the
    unit-update stream — exactly how the paper feeds its link-evolving
    experiments.
    """
    timestamped = citation_network(
        num_nodes,
        num_years=10,
        references_per_paper=references,
        recency_bias=recency,
        seed=seed,
    )
    times = timestamped.timestamps()
    middle = times[len(times) // 2]
    base = timestamped.snapshot_at(middle)
    delta = timestamped.delta_between(middle, times[-1])
    updates = list(delta)[:num_updates]
    config = SimRankConfig(damping=0.6, iterations=15)
    initial = matrix_simrank(base, config)
    return base, config, initial, updates


def _time_live(graph, config, initial, updates, score_dtype=None, telemetry=None):
    engine = DynamicSimRank(
        graph,
        config,
        algorithm="inc-sr",
        initial_scores=initial,
        score_dtype=score_dtype,
        telemetry=telemetry,
    )
    engine.apply(UpdateBatch(updates))
    return [stats.seconds for stats in engine.history], engine.similarities()


def _time_legacy(graph, config, initial, updates):
    live_graph = graph.copy()
    q_matrix = backward_transition_matrix(live_graph)
    scores = initial.copy()
    seconds: List[float] = []
    for update in updates:
        started = time.perf_counter()
        q_matrix = legacy_inc_sr_unit_update(
            live_graph, q_matrix, scores, update, config
        )
        seconds.append(time.perf_counter() - started)
    return seconds, scores


def run_perf_gate(
    num_nodes: int = 2000,
    num_updates: int = 100,
    references: int = 12,
    recency: float = 0.7,
    seed: int = 7,
    check_equivalence: bool = True,
    precision: str = "float64",
) -> Dict:
    """Run both pipelines; return the JSON-serializable report dict.

    At ``precision="float64"`` (default) the live pipeline must match
    the seed bit-for-bit (within 1e-9).  At ``"float32"`` the seed
    stays float64 and the report instead records ranking accuracy
    (``accuracy_vs_seed``) for the caller to gate on.
    """
    graph, config, initial, updates = _workload(
        num_nodes, num_updates, references, recency, seed
    )
    score_dtype = None if precision == "float64" else precision

    # Two alternating rounds per pipeline; keep each pipeline's faster
    # round so neither side is charged for cold caches or run order.
    legacy_seconds, legacy_scores = _time_legacy(graph, config, initial, updates)
    live_seconds, live_scores = _time_live(
        graph, config, initial, updates, score_dtype
    )
    legacy_again, _ = _time_legacy(graph, config, initial, updates)
    live_again, _ = _time_live(graph, config, initial, updates, score_dtype)
    legacy_seconds = min(legacy_seconds, legacy_again, key=sum)
    live_seconds = min(live_seconds, live_again, key=sum)

    report = {
        "benchmark": "unit-update-latency",
        "workload": {
            "graph": "cith-like citation snapshot (fig2a protocol)",
            "num_nodes": num_nodes,
            "num_edges": graph.num_edges,
            "references_per_paper": references,
            "recency_bias": recency,
            "num_updates": len(updates),
            "damping": config.damping,
            "iterations": config.iterations,
            "seed": seed,
            "precision": precision,
        },
        "live": _summary(live_seconds),
        "legacy_seed": _summary(legacy_seconds),
        "mean_speedup": statistics.fmean(legacy_seconds)
        / statistics.fmean(live_seconds),
        "median_speedup": statistics.median(legacy_seconds)
        / statistics.median(live_seconds),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }

    if check_equivalence:
        if precision == "float64":
            # The two pipelines must produce the same scores (sanity
            # guard that the speedup is not bought with a wrong answer).
            drift = float(np.max(np.abs(live_scores - legacy_scores)))
            report["max_score_drift_vs_seed"] = drift
            if drift > 1e-9:
                raise AssertionError(
                    f"live pipeline drifted from seed scores by {drift:.3e}"
                )
        else:
            # Reduced precision cannot be bit-identical to the float64
            # seed; gate on ranking accuracy instead (the caller
            # enforces the thresholds).
            report["accuracy_vs_seed"] = {
                "ndcg_at_100": float(
                    ndcg_at_k(live_scores, legacy_scores, k=100)
                ),
                "topk100_overlap": float(
                    top_k_overlap(live_scores, legacy_scores, k=100)
                ),
            }
    return report


def _precision_leg(graph, config, initial, updates, score_dtype):
    """One live-pipeline run at a score-store dtype."""
    engine = DynamicSimRank(
        graph,
        config,
        algorithm="inc-sr",
        initial_scores=initial,
        score_dtype=score_dtype,
    )
    engine.apply(UpdateBatch(updates))
    seconds = [stats.seconds for stats in engine.history]
    itemsize = engine.score_store.dtype.itemsize
    scatter_entries = [
        sum(stats.affected.area_sizes())
        for stats in engine.history
        if stats.affected is not None
    ]
    total = sum(seconds)
    return {
        "seconds": seconds,
        "final": engine.similarities(),
        "mean_update_ms": statistics.fmean(seconds) * 1e3,
        "updates_per_second": len(updates) / total if total else 0.0,
        "score_store_bytes": engine.score_store.nbytes(),
        "score_dtype": engine.score_store.dtype.name,
        # Score bytes scattered per update (affected-area entries at the
        # store's itemsize) — the bytes-per-update companion to
        # ms-per-update.
        "scatter_bytes_per_update": (
            statistics.fmean(scatter_entries) * itemsize
            if scatter_entries
            else 0.0
        ),
    }


def run_precision_curve(
    num_nodes: int = 2000,
    num_updates: int = 100,
    references: int = 12,
    recency: float = 0.7,
    seed: int = 7,
    min_ndcg: float = 0.99,
    min_topk_overlap: float = 0.98,
    min_f32_throughput: float = 1.25,
    min_f32_memory_saving: float = 0.40,
) -> Dict:
    """Two-leg precision comparison: float64 reference vs float32.

    Both legs replay the identical update stream from identical initial
    state.  Accuracy of the float32 leg is measured against the float64
    reference leg's final matrix (NDCG@100 + top-100 overlap), and the
    gate section records whether the float32 leg clears the accuracy
    floors *and* the win condition (throughput OR memory saving).
    """
    graph, config, initial, updates = _workload(
        num_nodes, num_updates, references, recency, seed
    )
    reference = _precision_leg(graph, config, initial, updates, "float64")
    float32 = _precision_leg(graph, config, initial, updates, "float32")

    def _leg_report(leg, accuracy: bool) -> Dict:
        entry = {
            key: leg[key]
            for key in (
                "mean_update_ms",
                "updates_per_second",
                "score_store_bytes",
                "score_dtype",
                "scatter_bytes_per_update",
            )
        }
        if accuracy:
            entry["ndcg_at_100"] = float(
                ndcg_at_k(leg["final"], reference["final"], k=100)
            )
            entry["topk100_overlap"] = float(
                top_k_overlap(leg["final"], reference["final"], k=100)
            )
        return entry

    curve = {
        "float64_reference": _leg_report(reference, accuracy=False),
        "float32": _leg_report(float32, accuracy=True),
    }

    throughput_ratio = (
        curve["float32"]["updates_per_second"]
        / curve["float64_reference"]["updates_per_second"]
        if curve["float64_reference"]["updates_per_second"]
        else 0.0
    )
    memory_saving = 1.0 - (
        curve["float32"]["score_store_bytes"]
        / curve["float64_reference"]["score_store_bytes"]
    )
    accuracy_ok = (
        curve["float32"]["ndcg_at_100"] >= min_ndcg
        and curve["float32"]["topk100_overlap"] >= min_topk_overlap
    )
    win_ok = (
        throughput_ratio >= min_f32_throughput
        or memory_saving >= min_f32_memory_saving
    )
    curve["gates"] = {
        "min_ndcg": min_ndcg,
        "min_topk_overlap": min_topk_overlap,
        "min_f32_throughput": min_f32_throughput,
        "min_f32_memory_saving": min_f32_memory_saving,
        "f32_throughput_ratio": throughput_ratio,
        "f32_memory_saving": memory_saving,
        "accuracy_ok": accuracy_ok,
        "win_ok": win_ok,
        "passed": accuracy_ok and win_ok,
    }
    return curve


def run_telemetry_overhead(
    num_nodes: int = 2000,
    num_updates: int = 100,
    references: int = 12,
    recency: float = 0.7,
    seed: int = 7,
) -> Dict:
    """Live pipeline with telemetry on (default sampling) vs off.

    Both legs replay the identical update stream from identical state;
    each is timed over two alternating rounds keeping the faster round
    (same bias suppression as the main gate).  ``overhead_ratio`` is
    on-mean / off-mean — the factor the instrumented hot path costs —
    and the caller gates it with ``--max-telemetry-ratio``.
    """
    from ..telemetry import NULL_TELEMETRY, Telemetry

    graph, config, initial, updates = _workload(
        num_nodes, num_updates, references, recency, seed
    )
    on_seconds, _ = _time_live(
        graph, config, initial, updates, telemetry=Telemetry()
    )
    off_seconds, _ = _time_live(
        graph, config, initial, updates, telemetry=NULL_TELEMETRY
    )
    on_again, _ = _time_live(
        graph, config, initial, updates, telemetry=Telemetry()
    )
    off_again, _ = _time_live(
        graph, config, initial, updates, telemetry=NULL_TELEMETRY
    )
    on = min(on_seconds, on_again, key=sum)
    off = min(off_seconds, off_again, key=sum)
    return {
        "telemetry_on": _summary(on),
        "telemetry_off": _summary(off),
        "overhead_ratio": statistics.fmean(on) / statistics.fmean(off),
    }


def run_durability_overhead(
    num_nodes: int = 2000,
    num_updates: int = 100,
    references: int = 12,
    recency: float = 0.7,
    seed: int = 7,
    fsync: str = "interval",
) -> Dict:
    """Serving drain loop WAL-on (``fsync`` policy) vs WAL-off.

    Both legs drain the identical update stream one update per drain
    through :class:`~repro.serving.SimRankService` — the WAL-on leg
    appends every acked drain before publishing it (the ack-after-
    append seam the durability layer adds).  Alternating rounds keep
    the faster of two runs per leg (same bias suppression as the other
    overhead sections).  ``overhead_ratio`` is on-mean / off-mean and
    the caller gates it with ``--max-durability-ratio``.

    The on-leg also times a time-travel pass — ``top_k_at`` against
    every retained checkpoint version — reported as
    ``time_travel.mean_seconds`` (not gated; checkpoint-load plus
    WAL-replay cost is the measurement, regressions show in trend).
    """
    import shutil
    import tempfile

    from ..serving import DurabilityConfig, ServiceConfig, SimRankService

    graph, config, initial, updates = _workload(
        num_nodes, num_updates, references, recency, seed
    )

    def _drain_leg(durability):
        service = SimRankService(
            graph.copy(),
            ServiceConfig(
                damping=config.damping,
                iterations=config.iterations,
                durability=durability,
            ),
            initial_scores=initial.copy(),
        )
        seconds: List[float] = []
        try:
            for update in updates:
                service.submit(update)
                started = time.perf_counter()
                service.drain()
                seconds.append(time.perf_counter() - started)
            travel = []
            if durability is not None:
                for version in service.durability.retained_versions():
                    started = time.perf_counter()
                    service.top_k_at(100, version)
                    travel.append(time.perf_counter() - started)
            return seconds, travel
        finally:
            service.close()

    def _on_leg():
        data_dir = tempfile.mkdtemp(prefix="repro-durability-gate-")
        try:
            # Default checkpoint cadence: the gate measures the
            # per-drain WAL tax, not checkpoint cost (that shows up
            # in the ungated time-travel section instead).
            return _drain_leg(
                DurabilityConfig(data_dir=data_dir, fsync=fsync)
            )
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)

    on_seconds, travel = _on_leg()
    off_seconds, _ = _drain_leg(None)
    on_again, travel_again = _on_leg()
    off_again, _ = _drain_leg(None)
    if sum(on_again) < sum(on_seconds):
        on_seconds, travel = on_again, travel_again
    off = min(off_seconds, off_again, key=sum)
    report = {
        "fsync": fsync,
        "wal_on": _summary(on_seconds),
        "wal_off": _summary(off),
        "overhead_ratio": (
            statistics.fmean(on_seconds) / statistics.fmean(off)
        ),
    }
    if travel:
        report["time_travel"] = _summary(travel)
        report["time_travel"]["versions"] = len(travel)
    return report


def _summary(seconds: List[float]) -> Dict[str, float]:
    return {
        "mean_seconds": statistics.fmean(seconds),
        "median_seconds": statistics.median(seconds),
        "p95_seconds": sorted(seconds)[max(0, int(0.95 * len(seconds)) - 1)],
        "total_seconds": sum(seconds),
    }


def attach_baseline(report: Dict, baseline_path: str) -> Dict:
    """Record the latency trajectory from a previous gate report.

    Adds a ``baseline`` section (who we compared against, its live
    mean) and ``latency_ratio_vs_baseline`` — current live mean divided
    by baseline live mean, so 1.0 means "as fast as the previous PR"
    and values below 1.0 are improvements.
    """
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    baseline_mean = baseline["live"]["mean_seconds"]
    report["baseline"] = {
        "report": os.path.basename(baseline_path),
        "mean_seconds": baseline_mean,
        "mean_speedup_vs_seed": baseline.get("mean_speedup"),
    }
    report["latency_ratio_vs_baseline"] = (
        report["live"]["mean_seconds"] / baseline_mean
    )
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.perf_gate",
        description="Per-update latency gate vs the frozen seed pipeline.",
    )
    parser.add_argument("--nodes", type=int, default=2000)
    parser.add_argument("--updates", type=int, default=100)
    parser.add_argument("--references", type=int, default=12)
    parser.add_argument("--recency", type=float, default=0.7)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None, help="JSON report path")
    parser.add_argument(
        "--baseline",
        default=None,
        help="previous gate report to record a latency trajectory against",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="fail when mean speedup vs seed drops below this",
    )
    parser.add_argument(
        "--max-baseline-ratio",
        type=float,
        default=None,
        help="fail when live mean latency exceeds baseline mean times this",
    )
    parser.add_argument(
        "--precision",
        choices=("float64", "float32"),
        default="float64",
        help="score-store storage dtype for the live pipeline; float32 "
        "replaces the bit-drift assertion with the accuracy gates below",
    )
    parser.add_argument(
        "--precision-curve",
        action="store_true",
        help="also record the float64/float32 precision comparison "
        "(and gate the float32 leg on accuracy + win condition)",
    )
    parser.add_argument(
        "--min-ndcg",
        type=float,
        default=0.99,
        help="minimum NDCG@100 vs the float64 reference for "
        "reduced-precision legs",
    )
    parser.add_argument(
        "--min-topk-overlap",
        type=float,
        default=0.98,
        help="minimum top-100 pair overlap vs the float64 reference "
        "for reduced-precision legs",
    )
    parser.add_argument(
        "--min-f32-throughput",
        type=float,
        default=1.25,
        help="float32 win condition: required per-update throughput "
        "ratio vs the float64 reference (OR'd with the memory saving)",
    )
    parser.add_argument(
        "--min-f32-memory-saving",
        type=float,
        default=0.40,
        help="float32 win condition: required fraction of score-store "
        "bytes saved vs float64 (OR'd with the throughput ratio)",
    )
    parser.add_argument(
        "--max-telemetry-ratio",
        type=float,
        default=None,
        help="also run the live pipeline telemetry-on vs telemetry-off "
        "and fail when the on/off mean-latency ratio exceeds this "
        "(the report records both legs)",
    )
    parser.add_argument(
        "--durability",
        action="store_true",
        help="also run the serving drain loop WAL-on vs WAL-off (plus "
        "a time-travel read pass) and gate the on/off mean-latency "
        "ratio with --max-durability-ratio",
    )
    parser.add_argument(
        "--max-durability-ratio",
        type=float,
        default=1.10,
        help="fail when the WAL-on mean drain latency exceeds WAL-off "
        "times this (--durability only)",
    )
    parser.add_argument(
        "--fsync",
        choices=("always", "interval", "off"),
        default="interval",
        help="WAL fsync policy for the --durability on-leg",
    )
    args = parser.parse_args(argv)

    report = run_perf_gate(
        num_nodes=args.nodes,
        num_updates=args.updates,
        references=args.references,
        recency=args.recency,
        seed=args.seed,
        precision=args.precision,
    )
    if args.max_telemetry_ratio is not None:
        report["telemetry_overhead"] = run_telemetry_overhead(
            num_nodes=args.nodes,
            num_updates=args.updates,
            references=args.references,
            recency=args.recency,
            seed=args.seed,
        )
    if args.durability:
        report["durability_overhead"] = run_durability_overhead(
            num_nodes=args.nodes,
            num_updates=args.updates,
            references=args.references,
            recency=args.recency,
            seed=args.seed,
            fsync=args.fsync,
        )
    if args.precision_curve:
        report["precision_curve"] = run_precision_curve(
            num_nodes=args.nodes,
            num_updates=args.updates,
            references=args.references,
            recency=args.recency,
            seed=args.seed,
            min_ndcg=args.min_ndcg,
            min_topk_overlap=args.min_topk_overlap,
            min_f32_throughput=args.min_f32_throughput,
            min_f32_memory_saving=args.min_f32_memory_saving,
        )
    if args.out:
        # The artifact/report identity is derived from --out, not
        # hardcoded per PR.
        report["report"] = os.path.basename(args.out)
    if args.baseline:
        if os.path.exists(args.baseline):
            attach_baseline(report, args.baseline)
        else:
            # A requested-but-missing baseline must not silently disable
            # the regression gate.
            print(
                f"PERF GATE FAIL: baseline report {args.baseline!r} not found",
                file=sys.stderr,
            )
            return 1
    rendered = json.dumps(report, indent=2, sort_keys=True)
    print(rendered)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")

    if report["mean_speedup"] < args.min_speedup:
        print(
            f"PERF GATE FAIL: mean speedup {report['mean_speedup']:.2f}x "
            f"< required {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    accuracy = report.get("accuracy_vs_seed")
    if accuracy is not None:
        if (
            accuracy["ndcg_at_100"] < args.min_ndcg
            or accuracy["topk100_overlap"] < args.min_topk_overlap
        ):
            print(
                f"PERF GATE FAIL: {args.precision} accuracy vs seed "
                f"(ndcg@100 {accuracy['ndcg_at_100']:.4f}, top-100 "
                f"overlap {accuracy['topk100_overlap']:.4f}) below gates "
                f"({args.min_ndcg}, {args.min_topk_overlap})",
                file=sys.stderr,
            )
            return 1
        print(
            f"precision {args.precision}: ndcg@100 "
            f"{accuracy['ndcg_at_100']:.4f}, top-100 overlap "
            f"{accuracy['topk100_overlap']:.4f} (gates ok)"
        )
    curve = report.get("precision_curve")
    if curve is not None:
        gates = curve["gates"]
        print(
            f"precision curve: float32 {gates['f32_throughput_ratio']:.2f}x "
            f"throughput, {100 * gates['f32_memory_saving']:.0f}% score "
            f"memory saved, ndcg@100 {curve['float32']['ndcg_at_100']:.4f}, "
            f"top-100 overlap {curve['float32']['topk100_overlap']:.4f}"
        )
        if not gates["passed"]:
            print(
                f"PERF GATE FAIL: precision curve gates failed "
                f"(accuracy_ok={gates['accuracy_ok']}, "
                f"win_ok={gates['win_ok']})",
                file=sys.stderr,
            )
            return 1
    overhead = report.get("telemetry_overhead")
    if overhead is not None:
        print(
            f"telemetry overhead: "
            f"{overhead['telemetry_on']['mean_seconds'] * 1e3:.2f} ms on vs "
            f"{overhead['telemetry_off']['mean_seconds'] * 1e3:.2f} ms off "
            f"per update ({overhead['overhead_ratio']:.3f}x)"
        )
        if overhead["overhead_ratio"] > args.max_telemetry_ratio:
            print(
                f"PERF GATE FAIL: telemetry-on mean latency is "
                f"{overhead['overhead_ratio']:.3f}x telemetry-off "
                f"(max {args.max_telemetry_ratio:.2f}x)",
                file=sys.stderr,
            )
            return 1
    durability = report.get("durability_overhead")
    if durability is not None:
        travel = durability.get("time_travel")
        travel_note = (
            f", time travel {travel['mean_seconds'] * 1e3:.1f} ms/version "
            f"over {travel['versions']} versions"
            if travel
            else ""
        )
        print(
            f"durability overhead (fsync={durability['fsync']}): "
            f"{durability['wal_on']['mean_seconds'] * 1e3:.2f} ms on vs "
            f"{durability['wal_off']['mean_seconds'] * 1e3:.2f} ms off "
            f"per drain ({durability['overhead_ratio']:.3f}x){travel_note}"
        )
        if durability["overhead_ratio"] > args.max_durability_ratio:
            print(
                f"PERF GATE FAIL: WAL-on mean drain latency is "
                f"{durability['overhead_ratio']:.3f}x WAL-off "
                f"(max {args.max_durability_ratio:.2f}x)",
                file=sys.stderr,
            )
            return 1
    ratio = report.get("latency_ratio_vs_baseline")
    if ratio is not None:
        trajectory = (
            f"{report['baseline']['report']} -> "
            f"{report.get('report', 'current')}: "
            f"{report['baseline']['mean_seconds'] * 1e3:.2f} ms -> "
            f"{report['live']['mean_seconds'] * 1e3:.2f} ms per update "
            f"({ratio:.2f}x)"
        )
        print(f"latency trajectory: {trajectory}")
        if args.max_baseline_ratio is not None and ratio > args.max_baseline_ratio:
            print(
                f"PERF GATE FAIL: live mean latency is {ratio:.2f}x the "
                f"baseline (max {args.max_baseline_ratio:.2f}x)",
                file=sys.stderr,
            )
            return 1
    print(
        f"perf gate ok: {report['mean_speedup']:.2f}x mean per-update "
        f"speedup vs seed (gate {args.min_speedup:.2f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
