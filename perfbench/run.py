"""Run one benchmark workload against the program built from ``src/``.

Usage, from the repository root::

    python3 perfbench/run.py --workload unit-stream --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
wraps the layers' public calls in spans, alternating untraced and
traced one-second blocks, and reports the per-layer metrics instead;
its spans are written to ``.perfbench-work/`` when the run ends.  The
report goes to standard output and its last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when a correctness check fails, and 2 when the program under
test cannot be imported.
"""

from __future__ import annotations

import argparse
import asyncio
import inspect
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("unit-stream", "query-wire", "mixed-durable")
#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def show(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        # Measure the checkout's own source, never an installed copy.
        print(f"perfbench: no program source under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [source, ROOT]
    work_root = os.path.join(ROOT, ".perfbench-work")
    # The program keeps scratch files (durability manifests, flight
    # dumps) in the temp dir; point it into the checkout before import.
    tempfile.tempdir = os.path.join(work_root, "tmp")
    os.makedirs(tempfile.tempdir, exist_ok=True)
    try:
        from perfbench import layers, workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    workdir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    run = workloads.Run(args.seed, args.seconds, bool(args.trace), workdir)
    try:
        workload = workloads.WORKLOADS[args.workload]
        if inspect.iscoroutinefunction(workload):
            outcome = asyncio.run(workload(run))
        else:
            outcome = workload(run)
        if run.recorder is not None:
            run.recorder.write(
                os.path.join(work_root, f"spans-{args.workload}-seed{args.seed}.jsonl")
            )
    finally:
        run.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}")
    for name, ok, detail in outcome.checks:
        print(f"  check {name:<28} {'ok' if ok else 'FAILED'}  {detail}")
    if args.trace:
        print(f"  {'per-layer metric':<40} {'value':>12}  {'unit':<8} samples")
        metrics = {}
        for name, unit, _ in layers.PER_LAYER:
            value, samples, note = outcome.layers[name]
            metrics[name] = {"value": float(value), "unit": unit}
            print(f"  {name:<40} {show(float(value)):>12}  {unit:<8} {samples}  {note}")
    else:
        print(f"  {'end-to-end metric':<40} {'value':>12}  {'unit':<8} samples")
        for name, value, unit, samples in outcome.report:
            print(f"  {name:<40} {show(value):>12}  {unit:<8} {samples}")
        metrics = {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
