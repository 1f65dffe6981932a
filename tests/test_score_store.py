"""Tests for repro.executor.score_store (the sharded executor layer)."""

import numpy as np
import pytest

from repro.exceptions import DimensionError
from repro.executor import ScoreStore
from repro.graph.generators import erdos_renyi_digraph
from repro.incremental.plan import (
    UpdatePlan,
    apply_plan_dense,
    plan_unit_update,
)
from repro.graph.updates import EdgeUpdate
from repro.linalg.qstore import TransitionStore
from repro.linalg.scatter import scatter_add
from repro.simrank.matrix import matrix_simrank
from repro.telemetry import Telemetry


def _random_scores(n, seed=0):
    rng = np.random.default_rng(seed)
    scores = rng.random((n, n))
    return (scores + scores.T) / 2.0


def _synthetic_plan(rows, cols, rank=3, seed=0, scale=1e-3):
    """A plan whose factor supports are exactly ``rows`` / ``cols``."""
    rng = np.random.default_rng(seed)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    return UpdatePlan(
        target=0,
        left_factors=[(rows, rng.standard_normal(rows.size) * scale)
                      for _ in range(rank)],
        right_factors=[(cols, rng.standard_normal(cols.size) * scale)
                       for _ in range(rank)],
        rows_union=rows,
        cols_union=cols,
        affected=None,
    )


def _ix_reference(scores, plan):
    """The former ``np.ix_`` read-modify-write apply, on a copy."""
    out = scores.copy()
    left, right = plan.panels()
    block = left @ right.T
    out[np.ix_(plan.rows_union, plan.cols_union)] += block
    out[np.ix_(plan.cols_union, plan.rows_union)] += block.T
    return out


class TestReads:
    @pytest.mark.parametrize("shard_rows", [1, 3, 4, 100])
    def test_round_trip(self, shard_rows):
        scores = _random_scores(10)
        store = ScoreStore(scores, shard_rows=shard_rows)
        np.testing.assert_array_equal(store.to_array(), scores)

    def test_entry_row_column(self):
        scores = _random_scores(9)
        store = ScoreStore(scores, shard_rows=4)
        assert store.entry(7, 2) == scores[7, 2]
        np.testing.assert_array_equal(store.row(5), scores[5])
        np.testing.assert_array_equal(store.column(3), scores[:, 3])

    def test_getitem_duck_typing(self):
        scores = _random_scores(8)
        store = ScoreStore(scores, shard_rows=3)
        assert store[4, 6] == scores[4, 6]
        np.testing.assert_array_equal(store[:, 2], scores[:, 2])
        np.testing.assert_array_equal(store[6, :], scores[6])
        with pytest.raises(TypeError):
            store[1:3, 2]

    def test_matvec_matches_dense(self):
        scores = _random_scores(11)
        store = ScoreStore(scores, shard_rows=4)
        x = np.random.default_rng(1).random(11)
        np.testing.assert_array_equal(store.matvec(x), scores @ x)
        np.testing.assert_array_equal(store @ x, scores @ x)

    def test_column_into_out_buffer(self):
        scores = _random_scores(7)
        store = ScoreStore(scores, shard_rows=2)
        out = np.empty(7)
        result = store.column(4, out=out)
        assert result is out
        np.testing.assert_array_equal(out, scores[:, 4])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            ScoreStore(np.zeros((3, 4)))

    def test_bad_shard_rows_rejected(self):
        with pytest.raises(DimensionError):
            ScoreStore(np.zeros((3, 3)), shard_rows=0)


class TestWrites:
    def test_add_dense_and_replace(self):
        scores = _random_scores(10)
        store = ScoreStore(scores, shard_rows=3)
        delta = _random_scores(10, seed=5)
        store.add_dense(delta)
        np.testing.assert_array_equal(store.to_array(), scores + delta)
        store.replace_dense(scores)
        np.testing.assert_array_equal(store.to_array(), scores)

    def test_set_entry(self):
        store = ScoreStore(np.zeros((6, 6)), shard_rows=2)
        store.set_entry(5, 1, 0.25)
        assert store.entry(5, 1) == 0.25

    def test_version_bumps_on_mutation(self):
        store = ScoreStore(np.zeros((4, 4)), shard_rows=2)
        v0 = store.version
        store.set_entry(0, 0, 1.0)
        store.add_dense(np.zeros((4, 4)))
        assert store.version == v0 + 2

    def test_apply_plan_matches_dense_executor(self, config):
        graph = erdos_renyi_digraph(40, 0.08, seed=11)
        tstore = TransitionStore.from_graph(graph)
        dense = matrix_simrank(tstore.csr_matrix(), config)
        target = 17
        source = next(
            node
            for node in range(graph.num_nodes)
            if node != target and not graph.has_edge(node, target)
        )
        update = EdgeUpdate.insert(source, target)
        plan = plan_unit_update(tstore, dense, update, graph, config)
        assert not plan.is_noop

        expected = dense.copy()
        apply_plan_dense(expected, plan)
        for shard_rows in (1, 4, 7, 64):
            store = ScoreStore(dense, shard_rows=shard_rows)
            store.apply_plan(plan)
            np.testing.assert_array_equal(store.to_array(), expected)


class TestScatterKernel:
    """The flat-index kernel is byte-equal to the ``np.ix_`` reference."""

    def test_plan_after_column_capacity_grew(self):
        scores = _random_scores(10)
        store = ScoreStore(scores, shard_rows=4)
        for _ in range(3):
            store.add_node()
        assert store.num_nodes == 13
        # Column capacity doubled past n: the flat stride must be the
        # buffer's width, not the live node count.
        assert store._shards[0].buffer.shape[1] > store.num_nodes
        before = store.to_array()
        plan = _synthetic_plan([0, 2, 5, 9, 12], [1, 3, 4, 11, 12], seed=1)
        store.apply_plan(plan)
        assert store.to_array().tobytes() == _ix_reference(before, plan).tobytes()

    def test_float32_store_rounds_once(self):
        scores = _random_scores(40)
        store = ScoreStore(scores, shard_rows=16, dtype="float32")
        before = store.to_array()
        assert before.dtype == np.float32
        plan = _synthetic_plan(
            np.arange(0, 40, 2), np.arange(1, 40, 2), seed=2, scale=0.5
        )
        store.apply_plan(plan)
        after = store.to_array()
        assert after.dtype == np.float32
        assert after.tobytes() == _ix_reference(before, plan).tobytes()
        # The data is discriminating: casting the float64 block to
        # float32 before the add rounds twice and changes some entries.
        block = plan.blocks()[0].astype(np.float32)
        twice = before.copy()
        twice[np.ix_(plan.rows_union, plan.cols_union)] += block
        twice[np.ix_(plan.cols_union, plan.rows_union)] += block.T
        assert twice.tobytes() != after.tobytes()

    def test_overlapping_row_and_column_supports(self):
        scores = _random_scores(9)
        plan = _synthetic_plan([1, 3, 4, 6], [0, 3, 4, 5, 8], seed=3)
        assert np.intersect1d(plan.rows_union, plan.cols_union).size == 2
        expected = _ix_reference(scores, plan)
        for shard_rows in (1, 2, 4, 9):
            store = ScoreStore(scores, shard_rows=shard_rows)
            store.apply_plan(plan)
            assert store.to_array().tobytes() == expected.tobytes()
        dense = scores.copy()
        apply_plan_dense(dense, plan)
        assert dense.tobytes() == expected.tobytes()

    def test_pinned_snapshot_survives_the_write(self):
        scores = _random_scores(10)
        store = ScoreStore(scores, shard_rows=3)
        snap = store.snapshot()
        frozen = snap.to_array()
        plan = _synthetic_plan([2, 5, 7], [0, 5, 9], seed=4)
        store.apply_plan(plan)
        assert snap.to_array().tobytes() == frozen.tobytes()
        assert snap.to_array().tobytes() == scores.tobytes()
        assert store.to_array().tobytes() == _ix_reference(scores, plan).tobytes()
        assert store.cow_copies > 0

    def test_single_row_support(self):
        scores = _random_scores(8)
        plan = _synthetic_plan([6], [0, 2, 6, 7], seed=5)
        store = ScoreStore(scores, shard_rows=3)
        store.apply_plan(plan)
        assert store.to_array().tobytes() == _ix_reference(scores, plan).tobytes()

    def test_dense_apply_writes_f_ordered_input_in_place(self):
        scores = _random_scores(12)
        plan = _synthetic_plan([1, 3, 4, 8], [0, 3, 4, 5, 11], seed=6)
        fortran = np.asfortranarray(scores)
        assert not fortran.flags.c_contiguous
        assert apply_plan_dense(fortran, plan) is fortran
        assert (
            np.ascontiguousarray(fortran).tobytes()
            == _ix_reference(scores, plan).tobytes()
        )

    def test_dense_apply_writes_strided_view_in_place(self):
        scores = _random_scores(12)
        plan = _synthetic_plan([1, 3, 4, 8], [0, 3, 4, 5, 11], seed=6)
        backing = np.zeros((12, 19))
        view = backing[:, 3:15]
        view[...] = scores
        # No flat view exists: reshape(-1) would silently copy and an
        # add into it would be lost.
        assert not np.shares_memory(view.reshape(-1), backing)
        apply_plan_dense(view, plan)
        assert (
            np.ascontiguousarray(view).tobytes()
            == _ix_reference(scores, plan).tobytes()
        )
        assert not backing[:, :3].any() and not backing[:, 15:].any()

    def test_empty_support_is_a_noop(self):
        scores = _random_scores(6)
        target = scores.copy()
        empty = np.zeros(0, dtype=np.int64)
        scatter_add(target, empty, np.arange(3), np.zeros((0, 3)))
        scatter_add(target, np.arange(3), empty, np.zeros((3, 0)))
        assert target.tobytes() == scores.tobytes()

    def test_apply_histogram_covers_the_whole_plan(self):
        telemetry = Telemetry()
        store = ScoreStore(
            _random_scores(40), shard_rows=8, telemetry=telemetry
        )
        plans = [
            _synthetic_plan([1, 9, 20, 33], [4, 9, 17, 38], seed=seed)
            for seed in range(4)
        ]
        for plan in plans:
            store.apply_plan(plan)
        hist = telemetry.registry.histogram("repro_executor_apply_plan_seconds")
        assert hist.count == store.apply_metrics.plans == 4
        # The histogram times panels + GEMM + scatter; the gauges only
        # the per-shard scatter inside it, so the histogram is strictly
        # larger (by far more than a microsecond over four plans).
        assert store.apply_metrics.seconds > 0.0
        assert hist.sum - store.apply_metrics.seconds > 1e-6


class TestGrowth:
    def test_add_node_grows_all_reads(self):
        scores = _random_scores(5)
        store = ScoreStore(scores, shard_rows=2)
        node = store.add_node()
        assert node == 5
        assert store.shape == (6, 6)
        grown = store.to_array()
        np.testing.assert_array_equal(grown[:5, :5], scores)
        assert not grown[5].any()
        assert not grown[:, 5].any()

    def test_node_stream_keeps_shard_invariant(self):
        store = ScoreStore(np.zeros((1, 1)), shard_rows=3)
        for _ in range(20):
            store.add_node()
        assert store.shape == (21, 21)
        assert store.num_shards == 7
        report = store.shard_report()
        assert [entry["rows"] for entry in report] == [3] * 6 + [3]
        store.set_entry(20, 20, 0.4)
        assert store.entry(20, 20) == 0.4


class TestCopyOnWrite:
    def test_snapshot_is_bit_stable_under_writes(self):
        scores = _random_scores(12)
        store = ScoreStore(scores, shard_rows=4)
        snap = store.snapshot()
        frozen = snap.to_array()
        store.add_dense(_random_scores(12, seed=9))
        store.set_entry(0, 0, 42.0)
        np.testing.assert_array_equal(snap.to_array(), frozen)
        np.testing.assert_array_equal(snap.to_array(), scores)
        assert snap.entry(0, 0) == scores[0, 0]
        np.testing.assert_array_equal(snap.row(3), scores[3])
        np.testing.assert_array_equal(snap.column(7), scores[:, 7])

    def test_only_touched_shards_are_copied(self, config):
        graph = erdos_renyi_digraph(60, 0.05, seed=2)
        tstore = TransitionStore.from_graph(graph)
        dense = matrix_simrank(tstore.csr_matrix(), config)
        store = ScoreStore(dense, shard_rows=8)
        store.snapshot()
        assert store.shared_shard_count() == store.num_shards
        store.set_entry(0, 0, 1.0)
        assert store.cow_copies == 1
        assert store.shared_shard_count() == store.num_shards - 1

    def test_snapshot_views_are_read_only(self):
        store = ScoreStore(_random_scores(6), shard_rows=2)
        snap = store.snapshot()
        with pytest.raises(ValueError):
            snap._views[0][0, 0] = 1.0

    def test_two_snapshots_without_writes_share_buffers(self):
        store = ScoreStore(_random_scores(6), shard_rows=2)
        first = store.snapshot()
        second = store.snapshot()
        assert first.version == second.version
        store.set_entry(1, 1, 9.0)
        np.testing.assert_array_equal(first.to_array(), second.to_array())

    def test_snapshot_versions_diverge(self):
        store = ScoreStore(_random_scores(6), shard_rows=2)
        old = store.snapshot()
        store.set_entry(2, 3, 7.0)
        new = store.snapshot()
        assert new.version > old.version
        assert old.entry(2, 3) != 7.0
        assert new.entry(2, 3) == 7.0


class TestAccounting:
    def test_bytes_and_report(self):
        store = ScoreStore(_random_scores(10), shard_rows=4)
        assert store.nbytes() == 10 * 10 * 8
        assert store.buffer_bytes() >= store.nbytes()
        report = store.shard_report()
        assert len(report) == store.num_shards == 3
        assert {entry["base"] for entry in report} == {0, 4, 8}
