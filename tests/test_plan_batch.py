"""Plan batches: the packed word encoding the write-ahead log frames.

The contract under test is the one WAL replay rides on: a ``PlanBatch``
survives the packed word encoding bit-exactly, replaying a decoded batch
through ``ScoreStore.apply_plan`` equals applying its plans live, and
over arbitrary mixed update streams the decoded drains of a service
reproduce its live scores and top-k bit-identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SimRankConfig
from repro.executor.score_store import ScoreStore
from repro.graph.generators import erdos_renyi_digraph
from repro.graph.updates import UpdateBatch
from repro.incremental.plan import (
    PackedPlanBatch,
    PlanBatch,
    UpdatePlan,
    apply_plan_dense,
)
from repro.incremental.row_update import (
    consolidate_batch,
    plan_composite_row_update,
)
from repro.linalg.qstore import TransitionStore
from repro.metrics.topk import top_k_pairs
from repro.serving import SimRankService
from repro.simrank.matrix import matrix_simrank

from _streams import random_update_stream, service_config

CFG = SimRankConfig(damping=0.6, iterations=8)


def _plans_for_stream(num_nodes, num_updates, seed):
    """Real kernel plans: one composite row plan per consolidated group."""
    graph = erdos_renyi_digraph(num_nodes, 0.06, seed=seed)
    store = TransitionStore.from_graph(graph)
    scores = matrix_simrank(graph, CFG)
    stream = random_update_stream(graph, num_updates, seed=seed + 1)
    row_updates = consolidate_batch(UpdateBatch(stream), graph)
    plans = [
        plan_composite_row_update(graph, store, scores, ru, CFG)
        for ru in row_updates
    ]
    return graph, scores, plans


def _decoded(plans):
    """Round-trip plans through the packed words a WAL frame carries."""
    packed = PlanBatch(list(plans)).packed()
    words = np.empty(packed.word_count(), dtype=np.int64)
    packed.write_words(words)
    return PackedPlanBatch.from_words(
        words, packed.count, packed.section_lengths()
    ).plans()


class TestPackedEncoding:
    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_word_roundtrip_bit_exact(self, seed):
        """packed -> words -> plans reproduces every factor bitwise."""
        _, _, plans = _plans_for_stream(60, 25, seed)
        batch = PlanBatch(plans)
        packed = batch.packed()
        words = np.empty(packed.word_count(), dtype=np.int64)
        assert packed.write_words(words) == packed.word_count()
        rebuilt = PackedPlanBatch.from_words(
            words, packed.count, packed.section_lengths()
        ).plans()
        assert len(rebuilt) == len(plans)
        for original, copy in zip(plans, rebuilt):
            assert copy.target == original.target
            assert copy.rank == original.rank
            assert np.array_equal(copy.rows_union, original.rows_union)
            assert np.array_equal(copy.cols_union, original.cols_union)
            for (ai, av), (bi, bv) in zip(
                original.left_factors, copy.left_factors
            ):
                assert np.array_equal(ai, bi)
                assert np.array_equal(av, bv)
            for (ai, av), (bi, bv) in zip(
                original.right_factors, copy.right_factors
            ):
                assert np.array_equal(ai, bi)
                assert np.array_equal(av, bv)

    def test_roundtripped_apply_bit_identical(self):
        """Applying rebuilt plans == applying the originals, bitwise."""
        _, scores, plans = _plans_for_stream(50, 20, seed=3)
        packed = PlanBatch(plans).packed()
        words = np.empty(packed.word_count(), dtype=np.int64)
        packed.write_words(words)
        rebuilt = PackedPlanBatch.from_words(
            words, packed.count, packed.section_lengths()
        ).plans()
        direct = scores.copy()
        wired = scores.copy()
        for plan in plans:
            apply_plan_dense(direct, plan)
        for plan in rebuilt:
            apply_plan_dense(wired, plan)
        assert np.array_equal(direct, wired)

    def test_truncated_words_rejected(self):
        _, _, plans = _plans_for_stream(40, 10, seed=4)
        packed = PlanBatch(plans).packed()
        words = np.empty(packed.word_count(), dtype=np.int64)
        packed.write_words(words)
        with pytest.raises(ValueError):
            PackedPlanBatch.from_words(
                words[:-1], packed.count, packed.section_lengths()
            )

    def test_empty_batch(self):
        batch = PlanBatch([])
        assert batch.is_noop
        packed = batch.packed()
        assert packed.count == 0
        assert packed.word_count() == 0
        assert PackedPlanBatch.from_words(
            np.empty(0, dtype=np.int64), 0, packed.section_lengths()
        ).plans() == []


class TestScoreStoreBatchApply:
    """Replay applies a decoded batch plan by plan, as a live drain does."""

    def test_batch_equals_sequential(self):
        """Decoded batch through ScoreStore == live plans, bitwise."""
        _, scores, plans = _plans_for_stream(50, 25, seed=6)
        sequential = ScoreStore(scores, shard_rows=16)
        replayed = ScoreStore(scores, shard_rows=16)
        dense = scores.copy()
        for plan in plans:
            sequential.apply_plan(plan)
            apply_plan_dense(dense, plan)
        for plan in _decoded(plans):
            replayed.apply_plan(plan)
        assert np.array_equal(sequential.to_array(), replayed.to_array())
        assert np.array_equal(sequential.to_array(), dense)
        applied = len([plan for plan in plans if not plan.is_noop])
        assert replayed.version == sequential.version == applied
        assert replayed.apply_metrics.report()["plans"] == applied

    def test_noop_batch_is_ignored(self):
        store = ScoreStore(np.zeros((8, 8)), shard_rows=4)
        noop = UpdatePlan(
            target=3,
            left_factors=[],
            right_factors=[],
            rows_union=np.empty(0, dtype=np.int64),
            cols_union=np.empty(0, dtype=np.int64),
            affected=None,
        )
        for batch in (PlanBatch([]), PlanBatch([noop, noop])):
            assert batch.is_noop
            for plan in _decoded(batch.plans):
                store.apply_plan(plan)
        assert store.version == 0
        assert store.apply_metrics.plans == 0
        assert not store.to_array().any()


class TestServiceStreamEquivalence:
    """Decoded drains replayed == live service drains == dense oracle."""

    @pytest.mark.parametrize("seed", [21, 22])
    def test_mixed_streams_bit_identical(self, seed):
        graph = erdos_renyi_digraph(80, 0.05, seed=seed)
        scores = matrix_simrank(graph, CFG)
        updates = random_update_stream(graph, 60, seed=seed + 100)
        replayed = ScoreStore(scores, shard_rows=16)
        dense = scores.copy()
        service = SimRankService(
            graph,
            service_config(CFG, shard_rows=16),
            initial_scores=scores,
        )
        try:
            chunk = 12
            drains = 0
            for begin in range(0, len(updates), chunk):
                service.submit_many(updates[begin : begin + chunk])
                service.drain()
                _row_updates, plans = service.engine.take_last_drain()
                drains += 1
                for plan in plans:
                    apply_plan_dense(dense, plan)
                for plan in _decoded(plans):
                    replayed.apply_plan(plan)
            live = service.engine.similarities()
            assert drains > 1
            assert np.array_equal(replayed.to_array(), live)
            assert np.array_equal(dense, live)
            assert service.top_k(10) == top_k_pairs(dense, 10)
            report = service.metrics_report()["executor"]
            assert report["plans"] == replayed.apply_metrics.plans > 0
        finally:
            service.close()
