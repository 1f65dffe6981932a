"""Tests for repro.serving (snapshots, scheduler, service).

The two property tests required by the serving contract:

* **snapshot isolation** — a pinned :class:`SnapshotView`'s scores are
  bit-identical before and after the writer applies a randomized
  update stream;
* **coalescing equivalence** — a drained (coalesced, consolidated)
  batch lands within the shared truncation bound of applying the same
  stream one unit update at a time.
"""

import numpy as np
import pytest

from repro import DynamicSimRank, SimRankConfig
from repro.datasets.citation import citation_network
from repro.exceptions import NodeNotFoundError
from repro.graph.generators import erdos_renyi_digraph
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.serving import DurabilityConfig, SimRankService, UpdateScheduler
from repro.simrank.exact import truncation_error_bound
from repro.simrank.matrix import matrix_simrank
from repro.simrank.queries import single_source_simrank

from _streams import random_update_stream as _random_stream
from _streams import service_config


class TestScheduler:
    def test_fifo_group_order_and_shapes(self):
        scheduler = UpdateScheduler()
        scheduler.submit(EdgeUpdate.insert(1, 9))
        scheduler.submit(EdgeUpdate.insert(2, 5))
        scheduler.submit(EdgeUpdate.delete(3, 9))
        batch = scheduler.drain()
        assert [u.edge for u in batch] == [(3, 9), (1, 9), (2, 5)]
        assert [u.is_insert for u in batch] == [False, True, True]

    def test_inverse_pairs_cancel(self):
        scheduler = UpdateScheduler()
        scheduler.submit(EdgeUpdate.insert(1, 2))
        scheduler.submit(EdgeUpdate.delete(1, 2))
        scheduler.submit(EdgeUpdate.delete(4, 2))
        scheduler.submit(EdgeUpdate.insert(4, 2))
        assert len(scheduler) == 0
        assert scheduler.stats.cancelled_pairs == 2
        assert len(scheduler.drain()) == 0

    def test_duplicate_submits_do_not_inflate_pending(self):
        # The O(1) counter must agree with the net dict state even when
        # the same update is submitted repeatedly (the bounded-queue
        # backpressure check reads len()).
        scheduler = UpdateScheduler()
        for _ in range(3):
            scheduler.submit(EdgeUpdate.insert(1, 7))
        assert len(scheduler) == 1
        scheduler.submit(EdgeUpdate.delete(1, 7))
        assert len(scheduler) == 0
        for _ in range(2):
            scheduler.submit(EdgeUpdate.delete(2, 7))
        assert len(scheduler) == 1
        batch = scheduler.drain()
        assert [u.edge for u in batch] == [(2, 7)]
        assert len(scheduler) == 0

    def test_drain_empties_queue(self):
        scheduler = UpdateScheduler()
        scheduler.submit_many(
            [EdgeUpdate.insert(0, 1), EdgeUpdate.insert(2, 1)]
        )
        assert len(scheduler) == 2
        assert scheduler.pending_targets == 1
        batch = scheduler.drain()
        assert len(batch) == 2
        assert len(scheduler) == 0
        assert scheduler.pending_targets == 0

    def test_stats_and_coalescing_ratio(self):
        scheduler = UpdateScheduler()
        scheduler.submit_many(
            [
                EdgeUpdate.insert(0, 7),
                EdgeUpdate.insert(1, 7),
                EdgeUpdate.insert(2, 7),
                EdgeUpdate.insert(3, 8),
            ]
        )
        scheduler.drain()
        stats = scheduler.stats
        assert stats.submitted == 4
        assert stats.drained_updates == 4
        assert stats.drained_groups == 2
        assert stats.drained_batches == 1
        assert stats.coalescing_ratio() == 2.0

    def test_net_stream_preserves_graph_semantics(self):
        graph = erdos_renyi_digraph(30, 0.08, seed=5)
        stream = _random_stream(graph, 60, seed=6)
        sequential = graph.copy()
        for update in stream:
            update.apply_to(sequential)

        scheduler = UpdateScheduler()
        scheduler.submit_many(stream)
        coalesced = graph.copy()
        for update in scheduler.drain():
            update.apply_to(coalesced)
        assert set(sequential.edges()) == set(coalesced.edges())


class TestSnapshotIsolation:
    def test_pinned_view_is_bit_identical_across_writer_stream(self):
        config = SimRankConfig(damping=0.6, iterations=12)
        graph = erdos_renyi_digraph(70, 0.05, seed=11)
        service = SimRankService(graph, service_config(config, shard_rows=16))
        view = service.snapshot()
        frozen_scores = view.similarities()
        frozen_single_source = view.single_source(3)
        frozen_top = view.top_k(10)

        rng_seeds = (21, 22, 23)
        for seed in rng_seeds:
            stream = _random_stream(service.engine.graph, 40, seed=seed)
            service.submit_many(stream)
            service.drain()

        np.testing.assert_array_equal(view.similarities(), frozen_scores)
        np.testing.assert_array_equal(
            view.single_source(3), frozen_single_source
        )
        assert view.top_k(10) == frozen_top
        # The writer really moved on.
        assert service.version > view.version
        assert not np.array_equal(
            service.snapshot().similarities(), frozen_scores
        )

    def test_views_pinned_at_different_versions_coexist(self):
        config = SimRankConfig(damping=0.6, iterations=10)
        graph = erdos_renyi_digraph(40, 0.07, seed=3)
        service = SimRankService(graph, service_config(config, shard_rows=8))
        views = []
        expected = []
        for seed in range(4):
            views.append(service.snapshot())
            expected.append(views[-1].similarities())
            service.submit_many(
                _random_stream(service.engine.graph, 15, seed=seed)
            )
            service.drain()
        for view, scores in zip(views, expected):
            np.testing.assert_array_equal(view.similarities(), scores)
        versions = [view.version for view in views]
        assert versions == sorted(versions)
        assert len(set(versions)) == len(versions)

    def test_view_matches_engine_state_at_pin_time(self):
        config = SimRankConfig(damping=0.6, iterations=12)
        graph = erdos_renyi_digraph(30, 0.1, seed=9)
        service = SimRankService(graph, service_config(config, shard_rows=8))
        before = service.engine.similarities()
        view = service.snapshot()
        service.submit_many(_random_stream(service.engine.graph, 25, seed=1))
        service.drain()
        np.testing.assert_array_equal(view.similarities(), before)
        assert view.similarity(2, 5) == before[2, 5]
        np.testing.assert_array_equal(view.similarity_row(4), before[4])

    def test_single_source_served_from_frozen_s(self):
        config = SimRankConfig(damping=0.6, iterations=12)
        graph = erdos_renyi_digraph(35, 0.08, seed=13)
        service = SimRankService(graph, service_config(config))
        frozen_q = service.engine.transition_matrix.copy()
        view = service.snapshot()
        service.submit_many(_random_stream(service.engine.graph, 30, seed=2))
        service.drain()
        walk = single_source_simrank(frozen_q, 7, config)
        row = view.single_source(7)
        assert row.tobytes() == view.similarity_row(7).tobytes()
        np.testing.assert_allclose(row, walk, rtol=0, atol=1e-12)
        assert view.single_pair(7, 9) == pytest.approx(walk[9])


def _citation_inputs(seed=2):
    """A small citation snapshot and the arrivals that follow it.

    The benchmark's graph family at a test's size: backward walks die
    out within the truncation horizon, so the incrementally maintained
    ``S`` stays within round-off of the Eq. 34 walk after updates.
    """
    network = citation_network(
        160, num_years=8, references_per_paper=4, seed=seed
    )
    times = network.timestamps()
    middle = times[len(times) // 2]
    return (
        network.snapshot_at(middle),
        list(network.delta_between(middle, times[-1])),
    )


class TestOneReadSource:
    """Every view answers every query from its one frozen ``S``."""

    @pytest.mark.parametrize(
        "kind", ["sync", "background", "float32", "time_travel"]
    )
    def test_reads_agree_bit_for_bit(self, kind, tmp_path):
        config = SimRankConfig(damping=0.6, iterations=15)
        base, arrivals = _citation_inputs()
        fields = {"shard_rows": 16}
        if kind == "background":
            fields["writer"] = "background"
        elif kind == "float32":
            fields["precision"] = "float32"
        elif kind == "time_travel":
            fields["durability"] = DurabilityConfig(
                data_dir=str(tmp_path),
                fsync="off",
                checkpoint_interval=4,
                retain_checkpoints=3,
            )
        service = SimRankService(base, service_config(config, **fields))
        try:
            graphs = {service.version: base.copy()}
            for start in range(0, len(arrivals), 10):
                service.submit_many(arrivals[start : start + 10])
                service.flush()
                graphs[service.version] = service.engine.graph.copy()
            if kind == "time_travel":
                horizon = min(service.durability.retained_versions())
                past = [v for v in graphs if horizon <= v < service.version]
                view = service.view_at(past[0])
            else:
                view = service.snapshot()
            assert view.version > 0
            graph = graphs[view.version]
            n = view.num_nodes
            for a in range(n):
                row = view.single_source(a)
                assert row.dtype == view.scores.dtype
                assert row.tobytes() == view.similarity_row(a).tobytes()
                for b in range(n):
                    assert view.similarity(a, b) == float(row[b])
                for b in (0, a, n - 1):
                    assert view.single_pair(a, b) == view.similarity(a, b)
                if kind != "float32":
                    np.testing.assert_allclose(
                        row,
                        single_source_simrank(graph, a, config),
                        rtol=0,
                        atol=1e-12,
                    )
            for node in (-1, n):
                with pytest.raises(NodeNotFoundError):
                    view.single_source(node)
                with pytest.raises(NodeNotFoundError):
                    view.similarity(node, 0)
                with pytest.raises(NodeNotFoundError):
                    view.single_pair(0, node)
        finally:
            service.close()


class TestCoalescingEquivalence:
    def test_drained_batch_matches_one_at_a_time(self):
        config = SimRankConfig(damping=0.6, iterations=25)
        graph = erdos_renyi_digraph(50, 0.06, seed=17)
        stream = _random_stream(graph, 50, seed=18)

        unit_engine = DynamicSimRank(graph, config, algorithm="inc-sr")
        for update in stream:
            unit_engine.apply(update)

        service = SimRankService(graph, service_config(config, shard_rows=16))
        service.submit_many(stream)
        groups = service.drain()
        assert 0 < groups <= len(stream)

        bound = truncation_error_bound(config)
        np.testing.assert_allclose(
            service.engine.similarities(),
            unit_engine.similarities(),
            atol=4 * bound,
        )
        # Both ride within the truncation bound of the exact batch answer.
        truth = matrix_simrank(
            UpdateBatch(stream).applied(graph), config
        )
        np.testing.assert_allclose(
            service.engine.similarities(), truth, atol=4 * bound
        )


class TestService:
    def test_version_and_pending_accounting(self):
        config = SimRankConfig(damping=0.6, iterations=10)
        graph = erdos_renyi_digraph(20, 0.1, seed=7)
        service = SimRankService(graph, service_config(config))
        assert service.version == 0
        assert service.drain() == 0  # empty drain is a no-op
        assert service.version == 0
        stream = _random_stream(graph, 10, seed=4)
        service.submit_many(stream)
        assert service.pending == len(stream)
        service.drain()
        assert service.pending == 0
        assert service.version == 1

    def test_failed_drain_requeues_pending_updates(self):
        config = SimRankConfig(damping=0.6, iterations=10)
        graph = erdos_renyi_digraph(20, 0.1, seed=7)
        service = SimRankService(graph, service_config(config))
        existing = next(iter(graph.edges()))
        valid_target = next(
            t for t in range(20) if t != 5 and not graph.has_edge(5, t)
        )
        service.submit(EdgeUpdate.insert(*existing))  # invalid: exists
        service.submit(EdgeUpdate.insert(5, valid_target))
        version = service.version
        with pytest.raises(Exception):
            service.drain()
        # Nothing applied, nothing lost: both updates are queued again.
        assert service.version == version
        assert service.pending == 2

    def test_live_similarity_tracks_writer(self):
        config = SimRankConfig(damping=0.6, iterations=10)
        graph = erdos_renyi_digraph(20, 0.1, seed=8)
        service = SimRankService(graph, service_config(config))
        view = service.snapshot()
        stream = _random_stream(graph, 12, seed=5)
        service.submit_many(stream)
        service.drain()
        live = service.engine.similarities()
        assert service.similarity(1, 2) == live[1, 2]
        assert not np.array_equal(view.similarities(), live)

    def test_add_node_through_service(self):
        config = SimRankConfig(damping=0.6, iterations=10)
        graph = erdos_renyi_digraph(12, 0.2, seed=2)
        service = SimRankService(graph, service_config(config, shard_rows=4))
        view = service.snapshot()
        node = service.add_node()
        assert node == 12
        assert service.num_nodes == 13
        assert view.num_nodes == 12  # pinned view keeps the old universe
        assert service.similarity(node, node) == pytest.approx(
            1.0 - config.damping
        )

    def test_memory_report_layers(self):
        config = SimRankConfig(damping=0.6, iterations=10)
        graph = erdos_renyi_digraph(20, 0.1, seed=6)
        service = SimRankService(graph, service_config(config, shard_rows=8))
        service.snapshot()
        report = service.memory_report()
        for key in (
            "transition_store_bytes",
            "workspace_bytes",
            "score_buffer_bytes",
            "score_shards",
            "scheduler_pending",
        ):
            assert key in report
        assert report["score_shared_shards"] == 3


class TestTargetIndex:
    """The scheduler's O(1)-maintained target index (replaces the scan)."""

    def test_pending_targets_tracks_random_churn(self):
        rng = np.random.default_rng(42)
        scheduler = UpdateScheduler()
        # Shadow model: recompute the active-target set from scratch.
        for _ in range(500):
            source = int(rng.integers(6))
            target = int(rng.integers(6))
            if source == target:
                continue
            if rng.random() < 0.5:
                scheduler.submit(EdgeUpdate.insert(source, target))
            else:
                scheduler.submit(EdgeUpdate.delete(source, target))
            expected = {
                t for (t, adds, removes) in scheduler.peek()
            }
            assert scheduler.active_targets == expected
            assert scheduler.pending_targets == len(expected)
            for t in range(6):
                assert scheduler.has_pending_target(t) == (t in expected)

    def test_cancellation_clears_target(self):
        scheduler = UpdateScheduler()
        scheduler.submit(EdgeUpdate.insert(1, 2))
        assert scheduler.has_pending_target(2)
        assert scheduler.pending_targets == 1
        scheduler.submit(EdgeUpdate.delete(1, 2))
        assert not scheduler.has_pending_target(2)
        assert scheduler.pending_targets == 0
        assert scheduler.active_targets == frozenset()

    def test_drain_resets_index(self):
        scheduler = UpdateScheduler()
        scheduler.submit(EdgeUpdate.insert(1, 2))
        scheduler.submit(EdgeUpdate.insert(3, 4))
        assert scheduler.pending_targets == 2
        scheduler.drain()
        assert scheduler.pending_targets == 0
        assert scheduler.active_targets == frozenset()
        assert not scheduler.has_pending_target(2)


class TestApplyMetrics:
    """Per-shard apply wall-time gauges on the executor surface."""

    def test_score_store_records_per_shard_seconds(self):
        config = SimRankConfig(damping=0.6, iterations=8)
        graph = erdos_renyi_digraph(60, 0.06, seed=8)
        service = SimRankService(graph, service_config(config, shard_rows=16))
        service.submit_many(_random_stream(graph, 12, seed=9))
        service.drain()
        store = service.engine.score_store
        assert store.apply_metrics.plans > 0
        assert store.apply_metrics.seconds > 0.0
        assert store.apply_metrics.per_shard_seconds
        report = store.apply_report()
        assert report["plans"] == store.apply_metrics.plans
        assert set(report["per_shard_seconds"]) <= {
            str(i) for i in range(store.num_shards)
        }

    def test_metrics_report_exposes_executor_section(self):
        config = SimRankConfig(damping=0.6, iterations=8)
        graph = erdos_renyi_digraph(40, 0.08, seed=10)
        service = SimRankService(graph, service_config(config, shard_rows=16))
        service.submit_many(_random_stream(graph, 6, seed=11))
        service.drain()
        executor = service.metrics_report()["executor"]
        assert executor["apply_seconds"] > 0.0
        assert executor["mean_plan_seconds"] > 0.0
