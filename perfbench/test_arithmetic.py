"""Tests for the benchmark's own arithmetic (``python -m pytest perfbench``)."""

import json
import os

import pytest

from perfbench import layers, run
from perfbench.spans import (
    Recorder,
    Span,
    covered_length,
    self_time_by_root,
    self_times,
)
from perfbench.stats import (
    InsufficientSamples,
    assign_to_drains,
    freshness,
    min_samples,
    percentile,
    best_window_percentile,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def span(name, start, end, parent=None):
    made = Span(name, parent, "window")
    made.start, made.end = start, end
    return made


class TestSelfTime:
    def test_nested_spans(self):
        root = span("engine.apply", 0.0, 10.0)
        plan = span("incremental.plan", 1.0, 4.0, root)
        inner = span("incremental.plan", 2.0, 3.0, plan)
        scatter = span("executor.apply_plan", 5.0, 9.0, root)
        own = self_times([root, plan, inner, scatter])
        assert own[id(root)] == pytest.approx(3.0)
        assert own[id(plan)] == pytest.approx(2.0)
        assert own[id(inner)] == pytest.approx(1.0)
        assert own[id(scatter)] == pytest.approx(4.0)

    def test_overlapping_children_count_once_and_are_clipped(self):
        parent = span("serving.drain", 0.0, 10.0)
        first = span("a", 2.0, 6.0, parent)
        second = span("b", 4.0, 8.0, parent)
        late = span("c", 9.0, 12.0, parent)
        own = self_times([parent, first, second, late])
        # Covered: [2, 8] and the clipped [9, 10].
        assert own[id(parent)] == pytest.approx(3.0)

    def test_covered_length_merges_and_skips_empty(self):
        assert covered_length([(0, 1), (0.5, 2), (3, 3), (5, 6)]) == 3.0
        assert covered_length([]) == 0.0

    def test_self_time_summed_per_root(self):
        first = span("serving.drain", 0.0, 10.0)
        span_a = span("incremental.plan", 0.0, 2.0, first)
        span_b = span("incremental.plan", 3.0, 4.0, first)
        second = span("serving.drain", 20.0, 25.0)
        span_c = span("incremental.plan", 21.0, 22.5, second)
        samples = self_time_by_root([first, span_a, span_b, second, span_c])
        assert samples["incremental.plan"] == pytest.approx([3.0, 1.5])
        assert samples["serving.drain"] == pytest.approx([7.0, 3.5])

    def test_recorder_links_parents_and_restores(self):
        class Owner:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 1

        recorder = Recorder()
        original = Owner.__dict__["outer"]
        recorder.install([(Owner, "outer", "x.outer"), (Owner, "inner", "x.inner")])
        assert Owner().outer() == 2  # disabled: nothing recorded
        assert recorder.spans == []
        recorder.enabled = True
        assert Owner().outer() == 2
        inner, outer = recorder.spans
        assert (inner.name, outer.name) == ("x.inner", "x.outer")
        assert inner.parent is outer and outer.parent is None
        assert outer.start <= inner.start <= inner.end <= outer.end
        recorder.uninstall()
        assert Owner.__dict__["outer"] is original


class TestPercentile:
    def test_sample_counts(self):
        assert min_samples(50) == 1
        assert min_samples(90) == 100
        assert min_samples(95) == 200
        assert min_samples(99) == 1000

    def test_refuses_short_samples(self):
        with pytest.raises(InsufficientSamples):
            percentile(list(range(999)), 99)
        assert percentile(list(range(1, 1001)), 99) == 990
        with pytest.raises(InsufficientSamples):
            percentile([], 50)

    def test_nearest_rank(self):
        assert percentile([5.0], 50) == 5.0
        assert percentile([4, 1, 3, 2], 50) == 2
        assert percentile(list(range(1, 201)), 95) == 190

    def test_best_window_ignores_disturbed_windows(self):
        values = [1.0] * 2000
        values[400:1400] = [50.0] * 1000  # half the run slowed by the host
        assert percentile(values, 95) == 50.0
        assert best_window_percentile(values, 95) == 1.0

    def test_window_count_follows_the_sample_need(self):
        # 450 samples hold two p95 windows, [0, 225) and [225, 450).
        values = list(range(450))[::-1]
        assert best_window_percentile(values, 95) == 213
        # A median window needs MIN_WINDOW (200) samples too.
        assert best_window_percentile(list(range(400))[::-1], 50) == 99
        with pytest.raises(InsufficientSamples):
            best_window_percentile(list(range(30)), 50)
        with pytest.raises(InsufficientSamples):
            best_window_percentile(list(range(199)), 95)

    def test_summary_never_mislabels_a_short_tail(self):
        value, samples, note = layers.summary([1.0, 2.0, 3.0], "p95", 1e3)
        assert (value, samples) == (3000.0, 3) and note.startswith("max")
        assert layers.summary([], "p50") == (0.0, 0, "")


class TestFreshnessMatching:
    def test_drain_in_flight_when_update_arrived(self):
        # Paper 0 (2 updates) is due at 0.0; a drain starts at 0.5 and
        # takes it.  Paper 1 arrives at 0.6 while that drain still runs
        # and becomes visible at 1.0; only the next drain (visible at
        # 1.5) carries paper 1, whatever the clocks suggest.
        drains = [(2, 1.0), (3, 1.5)]
        assert freshness([0.0, 0.6], [2, 3], drains) == pytest.approx([1.0, 0.9])

    def test_item_split_across_drains_waits_for_the_last(self):
        assert assign_to_drains([4], [3, 1]) == [1]

    def test_several_items_in_one_drain(self):
        assert assign_to_drains([1, 2, 1, 3], [4, 3]) == [0, 0, 0, 1]

    def test_unpublished_items_are_none(self):
        assert assign_to_drains([2, 2], [2]) == [0, None]
        assert freshness([0.0], [1], []) == [None]


class TestBenchmarkFile:
    def test_metric_lists_match_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
            tuple(entry) for entry in layers.PER_LAYER
        ]
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
