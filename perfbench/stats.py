"""The benchmark's own arithmetic: percentiles and drain matching.

Kept free of any import from the program under test, so the tests in
``perfbench/test_arithmetic.py`` pin it down on its own.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple


class InsufficientSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def min_samples(q: float) -> int:
    """Samples a ``q``-th percentile needs: ten samples beyond it.

    A median needs one sample.  Above the median, ``n·(1 − q/100)`` must
    be at least 10, so p90 needs 100 samples, p95 200 and p99 1000.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100): {q}")
    if q <= 50:
        return 1
    return math.ceil(round(10.0 / (1.0 - q / 100.0), 6))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile; raises when the sample is short."""
    need = min_samples(q)
    if len(values) < need:
        raise InsufficientSamples(
            f"p{q:g} needs {need} samples, got {len(values)}"
        )
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: Fewest samples in one window: enough that a window's percentile
#: reflects the workload's mix of operations, not a few operations.
MIN_WINDOW = 200


def best_window_percentile(
    values: Sequence[float], q: float, windows: int = 10
) -> float:
    """The lowest, over consecutive windows of a run, of each window's percentile.

    ``values`` are in time order.  They are cut into as many equal
    consecutive windows of at least :data:`MIN_WINDOW` samples (and at
    least the percentile's sample need) as they fill, at most
    ``windows``.  On a shared host, spells of interference lasting
    seconds add latency to every request they cover and never take any
    away, so the run's least disturbed window is its steadiest reading
    of the program (the perf gate keeps its faster round for the same
    reason).  A change that slows the program slows every window.
    """
    count = min(windows, len(values) // max(MIN_WINDOW, min_samples(q)))
    if count < 1:
        raise InsufficientSamples(
            f"a p{q:g} window needs {max(MIN_WINDOW, min_samples(q))} "
            f"samples, got {len(values)}"
        )
    bounds = [round(index * len(values) / count) for index in range(count + 1)]
    return min(
        percentile(values[lo:hi], q) for lo, hi in zip(bounds, bounds[1:])
    )


def assign_to_drains(
    item_sizes: Sequence[int], drain_sizes: Sequence[int]
) -> List[Optional[int]]:
    """Index of the first drain that holds all of each submitted item.

    Items (one request's updates each) enter the queue in submission
    order and every drain takes everything queued when it starts, so the
    ``k``-th update ever submitted is in the first drain whose running
    total reaches ``k``.  Matching by counts, not by clock, is what
    keeps a drain that was already running when an item arrived from
    being credited with it.  An item that no drain covers maps to None.
    """
    result: List[Optional[int]] = []
    drained = 0
    drain = -1
    submitted = 0
    for size in item_sizes:
        submitted += size
        while drained < submitted and drain + 1 < len(drain_sizes):
            drain += 1
            drained += drain_sizes[drain]
        result.append(drain if drained >= submitted and drain >= 0 else None)
    return result


def freshness(
    due_times: Sequence[float],
    item_sizes: Sequence[int],
    drains: Sequence[Tuple[int, float]],
) -> List[Optional[float]]:
    """Seconds from each item's due time until a drain made it visible.

    ``drains`` holds ``(updates drained, time the published version was
    seen)`` in drain order.  None marks an item no drain covered.
    """
    owners = assign_to_drains(item_sizes, [size for size, _ in drains])
    return [
        None if owner is None else drains[owner][1] - due
        for due, owner in zip(due_times, owners)
    ]
