"""Tests for repro.executor.topk_index (shard-local incremental top-k).

The central property: after *arbitrary* update sequences, the
incrementally patched shard-heap ranking is bit-identical — same pairs,
same scores, same deterministic tie order — to the brute-force
:func:`repro.metrics.topk.top_k_pairs` pass over the dense matrix.
"""

import numpy as np
import pytest

from repro import DynamicSimRank, SimRankConfig
from repro.exceptions import DimensionError
from repro.executor import ScoreStore, ShardTopK, top_k_from_blocks
from repro.graph.generators import erdos_renyi_digraph
from repro.graph.updates import EdgeUpdate
from repro.metrics.topk import top_k_pairs
from repro.metrics.topk_tracker import TopKTracker
from repro.serving import SimRankService

from _streams import random_update_stream as _random_stream
from _streams import service_config


@pytest.fixture
def config():
    return SimRankConfig(damping=0.6, iterations=12)


class TestBlockMerge:
    """The scan-free shard merge used by frozen snapshots."""

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for n, shard_rows in ((1, 1), (7, 3), (24, 8), (40, 16)):
            scores = rng.random((n, n))
            scores = (scores + scores.T) / 2
            store = ScoreStore(scores, shard_rows=shard_rows)
            for k in (0, 1, 5, n, n * n):
                got = top_k_from_blocks(store.iter_shard_blocks(), k)
                assert got == top_k_pairs(store.to_array(), k)

    def test_deterministic_tie_order(self):
        # Massive ties (all-equal scores) must come out in (a, b) order,
        # exactly like the lexsort-based brute force.
        scores = np.full((20, 20), 0.25)
        store = ScoreStore(scores, shard_rows=4)
        got = top_k_from_blocks(store.iter_shard_blocks(), 7)
        assert got == top_k_pairs(scores, 7)
        assert [pair[:2] for pair in got] == [
            (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
        ]

    def test_include_self_and_validation(self):
        rng = np.random.default_rng(6)
        scores = rng.random((10, 10))
        scores = (scores + scores.T) / 2
        store = ScoreStore(scores, shard_rows=4)
        got = top_k_from_blocks(store.iter_shard_blocks(), 6, include_self=True)
        assert got == top_k_pairs(scores, 6, include_self=True)
        with pytest.raises(DimensionError):
            top_k_from_blocks(store.iter_shard_blocks(), -1)


class TestIncrementalProperty:
    def test_matches_brute_force_after_arbitrary_updates(self, config):
        """The required property test: unit-update streams, many checks."""
        graph = erdos_renyi_digraph(60, 0.06, seed=7)
        engine = DynamicSimRank(graph, config, shard_rows=16)
        assert engine.top_k(8) == top_k_pairs(engine.similarities(), 8)
        for i, update in enumerate(_random_stream(engine.graph, 90, seed=8)):
            engine.apply(update)
            if i % 5 == 0:
                assert engine.top_k(8) == top_k_pairs(
                    engine.similarities(), 8
                )
        # After the stream the index must still agree, and must have
        # been exercised incrementally (not rebuilt per query).
        assert engine.top_k(8) == top_k_pairs(engine.similarities(), 8)
        stats = engine.topk_index.stats
        assert stats.queries >= 19
        assert stats.patched_entries > 0

    def test_matches_brute_force_through_consolidated_drains(self, config):
        graph = erdos_renyi_digraph(50, 0.07, seed=17)
        service = SimRankService(graph, service_config(config, shard_rows=8))
        assert service.top_k(10) == top_k_pairs(
            service.engine.similarities(), 10
        )
        for seed in (18, 19, 20):
            service.submit_many(_random_stream(service.engine.graph, 25, seed))
            service.drain()
            assert service.top_k(10) == top_k_pairs(
                service.engine.similarities(), 10
            )

    def test_deletion_heavy_stream_forces_floor_invalidation(self, config):
        """Score decreases must trigger lazy re-scans, not wrong answers."""
        rng = np.random.default_rng(27)
        graph = erdos_renyi_digraph(40, 0.15, seed=27)
        engine = DynamicSimRank(graph, config, shard_rows=8)
        engine.top_k(5)
        edges = list(engine.graph.edges())
        rng.shuffle(edges)
        for source, target in edges[:30]:
            engine.apply(EdgeUpdate.delete(source, target))
            assert engine.top_k(5) == top_k_pairs(engine.similarities(), 5)
        assert engine.topk_index.stats.floor_invalidations > 0
        assert engine.topk_index.stats.shard_rescans > 0

    def test_k_growth_rebuilds_index(self, config):
        graph = erdos_renyi_digraph(30, 0.1, seed=37)
        engine = DynamicSimRank(graph, config, shard_rows=8)
        assert engine.top_k(3) == top_k_pairs(engine.similarities(), 3)
        first = engine.topk_index
        # Within capacity: same index serves a larger k.
        assert engine.top_k(5) == top_k_pairs(engine.similarities(), 5)
        assert engine.topk_index is first
        # Beyond capacity: a larger index replaces it, still exact.
        big_k = first.capacity + 10
        assert engine.top_k(big_k) == top_k_pairs(
            engine.similarities(), big_k
        )
        assert engine.topk_index is not first

    def test_add_node_invalidates_then_agrees(self, config):
        graph = erdos_renyi_digraph(20, 0.15, seed=47)
        engine = DynamicSimRank(graph, config, shard_rows=4)
        engine.top_k(6)
        node = engine.add_node()
        assert engine.top_k(6) == top_k_pairs(engine.similarities(), 6)
        engine.apply(EdgeUpdate.insert(0, node))
        assert engine.top_k(6) == top_k_pairs(engine.similarities(), 6)

    def test_include_self_fallback(self, config):
        graph = erdos_renyi_digraph(25, 0.1, seed=57)
        engine = DynamicSimRank(graph, config, shard_rows=8)
        assert engine.top_k(5, include_self=True) == top_k_pairs(
            engine.similarities(), 5, include_self=True
        )

    def test_edge_k_values(self, config):
        graph = erdos_renyi_digraph(10, 0.2, seed=67)
        engine = DynamicSimRank(graph, config)
        assert engine.top_k(0) == []
        with pytest.raises(DimensionError):
            engine.top_k(-1)


class TestShardTopKUnit:
    def test_validation(self, config):
        graph = erdos_renyi_digraph(10, 0.2, seed=77)
        engine = DynamicSimRank(graph, config)
        with pytest.raises(DimensionError):
            ShardTopK(engine.score_store, k=0)
        with pytest.raises(DimensionError):
            ShardTopK(engine.score_store, k=10, capacity=5)
        index = ShardTopK(engine.score_store, k=3)
        with pytest.raises(DimensionError):
            index.top_k(index.capacity + 1)

    def test_heap_hit_rate_counts_scanless_queries(self, config):
        graph = erdos_renyi_digraph(30, 0.1, seed=87)
        engine = DynamicSimRank(graph, config, shard_rows=8)
        engine.top_k(5)  # build: miss
        engine.top_k(5)  # nothing changed: pure heap hit
        stats = engine.topk_index.stats
        assert stats.queries == 2
        assert stats.heap_hits == 1
        assert stats.clean_query_rate() == 0.5
        # Shard-level: first query re-scanned every shard (build), the
        # second touched none — exactly half the shard visits hit.
        assert stats.shard_queries == 2 * engine.score_store.num_shards
        assert stats.heap_hit_rate() == 0.5

    def test_dense_rewrite_invalidates(self, config):
        graph = erdos_renyi_digraph(20, 0.1, seed=97)
        engine = DynamicSimRank(graph, config, shard_rows=8)
        engine.top_k(4)
        assert engine.topk_index.dirty_shards() == 0
        rng = np.random.default_rng(97)
        fresh = rng.random((20, 20))
        fresh = (fresh + fresh.T) / 2
        engine.score_store.replace_dense(fresh)
        assert engine.topk_index.dirty_shards() == engine.score_store.num_shards
        assert engine.top_k(4) == top_k_pairs(fresh, 4)


class TestSnapshotTopK:
    def test_snapshot_ranking_matches_dense(self, config):
        graph = erdos_renyi_digraph(40, 0.08, seed=3)
        service = SimRankService(graph, service_config(config, shard_rows=16))
        view = service.snapshot()
        frozen = view.similarities()
        assert view.top_k(10) == top_k_pairs(frozen, 10)
        service.submit_many(_random_stream(service.engine.graph, 30, seed=4))
        service.drain()
        # Frozen view still ranks the frozen version; a fresh one moved.
        assert view.top_k(10) == top_k_pairs(frozen, 10)
        fresh = service.snapshot()
        assert fresh.top_k(10) == top_k_pairs(fresh.similarities(), 10)


class TestTrackerIntegration:
    def test_tracker_rides_the_shard_index(self, config):
        graph = erdos_renyi_digraph(30, 0.1, seed=5)
        engine = DynamicSimRank(graph, config, shard_rows=8)
        tracker = TopKTracker(engine, k=5)
        assert engine.topk_index is not None  # built by the tracker
        queries_before = engine.topk_index.stats.queries
        for update in _random_stream(engine.graph, 15, seed=6):
            engine.apply(update)
            tracker.refresh()
        assert tracker.current() == top_k_pairs(engine.similarities(), 5)
        assert engine.topk_index.stats.queries > queries_before

    def test_tracker_falls_back_without_top_k(self):
        class DenseOnly:
            def __init__(self, scores):
                self._scores = scores

            def similarities(self):
                return self._scores

        rng = np.random.default_rng(8)
        scores = rng.random((12, 12))
        scores = (scores + scores.T) / 2
        tracker = TopKTracker(DenseOnly(scores), k=4)
        assert tracker.current() == top_k_pairs(scores, 4)
