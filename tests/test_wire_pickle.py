"""Pickle round trips for the library's plan and transition state.

:class:`UpdatePlan` objects and packed transition payloads can be
persisted or handed to another process.
These property tests pin that contract: a
``pickle.loads(pickle.dumps(x))`` round trip must preserve apply
semantics and ``Q`` exactly.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import SimRankConfig
from repro.durability import graph_from_packed
from repro.executor.score_store import ScoreStore
from repro.graph.generators import erdos_renyi_digraph
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.incremental.plan import apply_plan_dense, plan_unit_update
from repro.linalg.qstore import TransitionStore
from repro.simrank.matrix import matrix_simrank

from _streams import random_update_stream

CFG = SimRankConfig(damping=0.6, iterations=8)


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def _plans_for(graph, count, seed):
    """Plan ``count`` valid unit updates against a live session."""
    store = TransitionStore.from_graph(graph)
    scores = ScoreStore(matrix_simrank(graph, CFG), shard_rows=32)
    live = graph.copy()
    plans = []
    for update in random_update_stream(graph, count, seed=seed):
        plan = plan_unit_update(store, scores, update, live, CFG)
        plans.append((plan, live.num_nodes))
        scores.apply_plan(plan)
        update.apply_to(live)
        store.apply_update(update)
    return plans


class TestUpdatePlanPickle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_apply_semantics_preserved(self, seed):
        graph = erdos_renyi_digraph(60, 0.05, seed=seed)
        for plan, n in _plans_for(graph, 8, seed=seed + 100):
            clone = _roundtrip(plan)
            direct = apply_plan_dense(np.zeros((n, n)), plan)
            wired = apply_plan_dense(np.zeros((n, n)), clone)
            assert np.array_equal(direct, wired)
            assert clone.target == plan.target
            assert clone.rank == plan.rank
            assert np.array_equal(clone.rows_union, plan.rows_union)
            assert np.array_equal(clone.cols_union, plan.cols_union)

    def test_vectors_dropped_from_wire_format(self):
        graph = erdos_renyi_digraph(40, 0.06, seed=9)
        (plan, _), *_ = _plans_for(graph, 1, seed=1)
        assert plan.vectors is not None
        assert _roundtrip(plan).vectors is None

    def test_sharded_apply_of_unpickled_plan_matches(self):
        graph = erdos_renyi_digraph(60, 0.05, seed=4)
        scores = matrix_simrank(graph, CFG)
        direct_store = ScoreStore(scores, shard_rows=16)
        wired_store = ScoreStore(scores, shard_rows=16)
        for plan, _ in _plans_for(graph, 6, seed=44):
            direct_store.apply_plan(plan)
            wired_store.apply_plan(_roundtrip(plan))
        assert np.array_equal(
            direct_store.to_array(), wired_store.to_array()
        )


def _rebuild(payload):
    """Restore ``Q`` from a packed payload the way checkpoint recovery does."""
    return TransitionStore.from_graph(graph_from_packed(payload))


class TestTransitionPayloadPickle:
    def test_export_packed_roundtrip_rebuilds_q(self):
        graph = erdos_renyi_digraph(80, 0.05, seed=2)
        store = TransitionStore.from_graph(graph)
        rebuilt = _rebuild(_roundtrip(store.export_packed()))
        dense = store.csr_matrix().toarray()
        assert np.array_equal(rebuilt.csr_matrix().toarray(), dense)
        x = np.random.default_rng(0).random(graph.num_nodes)
        assert np.array_equal(
            rebuilt.csr_matrix() @ x, store.csr_matrix() @ x
        )
        assert np.array_equal(
            rebuilt.csr_matrix().T @ x, store.csr_matrix().T @ x
        )

    def test_export_packed_roundtrip_after_surgery(self):
        graph = erdos_renyi_digraph(50, 0.06, seed=3)
        store = TransitionStore.from_graph(graph)
        live = graph.copy()
        for update in random_update_stream(graph, 12, seed=5):
            update.apply_to(live)
            store.apply_update(update)
        rebuilt = _rebuild(_roundtrip(store.export_packed()))
        assert np.array_equal(
            rebuilt.csr_matrix().toarray(), store.csr_matrix().toarray()
        )


class TestUpdateStreamPickle:
    def test_edge_updates_and_batches(self):
        updates = [EdgeUpdate.insert(1, 2), EdgeUpdate.delete(3, 4)]
        batch = UpdateBatch(updates)
        clone = _roundtrip(batch)
        assert list(clone) == updates
        assert _roundtrip(updates[0]) == updates[0]
