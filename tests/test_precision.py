"""Score-store precision: one storage dtype per store.

Covers the dtype seam end to end: the :class:`ScoreStore`'s storage
dtype, dtype-aware memory accounting, the ranking-accuracy metrics
(NDCG@k / top-k overlap) the float32 bench gates are built on, and
``ServiceConfig(precision=...)`` on a live service.

The float64 default must stay bit-identical to the pre-dtype stack:
that invariant is asserted directly here and indirectly by every
pre-existing bit-equivalence suite running unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SimRankConfig
from repro.dtypes import DEFAULT_FLOAT_DTYPE, dtype_name, resolve_dtype
from repro.exceptions import ConfigError
from repro.executor.score_store import ScoreStore
from repro.graph.generators import preferential_attachment_digraph
from repro.graph.updates import UpdateBatch
from repro.incremental.engine import DynamicSimRank
from repro.incremental.plan import plan_unit_update
from repro.incremental.workspace import UpdateWorkspace
from repro.linalg.qstore import TransitionStore
from repro.metrics.memory import score_store_bytes, snapshot_overhead_bytes
from repro.metrics import ndcg_at_k, top_k_overlap
from repro.serving import SimRankService
from repro.simrank.matrix import matrix_simrank

from _streams import random_update_stream, service_config

CFG = SimRankConfig(damping=0.6, iterations=8)


@pytest.fixture(scope="module")
def workload():
    graph = preferential_attachment_digraph(48, out_degree=3, seed=9)
    scores = matrix_simrank(graph, CFG)
    updates = random_update_stream(graph, 12, seed=21)
    return graph, scores, updates


def _replay(graph, scores, updates, **engine_kwargs):
    engine = DynamicSimRank(
        graph, CFG, initial_scores=scores.copy(), **engine_kwargs
    )
    engine.apply(UpdateBatch(list(updates)))
    return engine.similarities()


# ------------------------------------------------------------------ #
# dtype plumbing: resolve, store, snapshots, save/load
# ------------------------------------------------------------------ #


class TestDtypePlumbing:
    def test_resolve_dtype_names_and_default(self):
        assert resolve_dtype(None) == np.dtype(DEFAULT_FLOAT_DTYPE)
        assert resolve_dtype("float32") == np.dtype(np.float32)
        assert resolve_dtype(np.float64) == np.dtype(np.float64)
        assert dtype_name(np.float32) == "float32"
        with pytest.raises(ConfigError):
            resolve_dtype("float16")

    def test_score_store_dtype_and_accounting(self, workload):
        _, scores, _ = workload
        f64 = ScoreStore(scores.copy(), shard_rows=16)
        f32 = ScoreStore(scores.copy(), shard_rows=16, dtype="float32")
        assert f64.dtype == np.float64
        assert f32.dtype == np.float32
        # float32 storage halves the score-store footprint exactly.
        assert f32.nbytes() * 2 == f64.nbytes()
        report = f32.dtype_report()
        assert report["score_dtype"] == "float32"
        assert report["score_dtype_bytes"] == scores.size * 4

    def test_snapshot_preserves_shard_dtypes(self, workload):
        _, scores, _ = workload
        store = ScoreStore(scores.copy(), shard_rows=16, dtype="float32")
        snap = store.snapshot()
        assert snap.dtype == np.float32
        assert snap.to_array().dtype == np.float32
        assert np.array_equal(snap.to_array(), store.to_array())

    def test_engine_save_load_round_trips_dtype(self, workload, tmp_path):
        graph, scores, updates = workload
        engine = DynamicSimRank(
            graph, CFG, initial_scores=scores.copy(), score_dtype="float32"
        )
        engine.apply(UpdateBatch(list(updates[:4])))
        path = tmp_path / "state.npz"
        engine.save(path)
        loaded = DynamicSimRank.load(path)
        assert loaded.score_dtype == np.dtype(np.float32)
        assert np.array_equal(loaded.similarities(), engine.similarities())

    def test_memory_model_tracks_dtype(self):
        assert score_store_bytes(100) == 100 * 100 * 8
        assert score_store_bytes(100, dtype="float32") == 100 * 100 * 4
        f64 = snapshot_overhead_bytes(2, 16, 64)
        f32 = snapshot_overhead_bytes(2, 16, 64, dtype="float32")
        assert f32 * 2 == f64

    def test_panels_and_workspace_dtype_seams(self, workload):
        graph, scores, updates = workload
        store = TransitionStore.from_graph(graph)
        plan = plan_unit_update(store, scores, updates[0], graph, CFG)
        left64, right64 = plan.panels()
        left32, right32 = plan.panels(dtype="float32")
        assert left64.dtype == np.float64
        assert left32.dtype == np.float32
        np.testing.assert_allclose(left32, left64, rtol=1e-6)
        np.testing.assert_allclose(right32, right64, rtol=1e-6)
        ws = UpdateWorkspace(8, dtype="float32")
        assert ws.dtype == np.float32
        assert ws.zeros("u", 8).dtype == np.float32
        assert UpdateWorkspace(8).dtype == np.float64


# ------------------------------------------------------------------ #
# float64 default stays bit-identical; float32 equivalence
# ------------------------------------------------------------------ #


class TestBitIdentity:
    def test_float64_default_is_bit_identical_to_explicit(self, workload):
        graph, scores, updates = workload
        default = _replay(graph, scores, updates)
        explicit = _replay(graph, scores, updates, score_dtype="float64")
        assert default.dtype == np.float64
        assert np.array_equal(default, explicit)

    def test_float32_storage_tracks_float64_closely(self, workload):
        graph, scores, updates = workload
        f64 = _replay(graph, scores, updates)
        f32 = _replay(graph, scores, updates, score_dtype="float32")
        assert f32.dtype == np.float32
        np.testing.assert_allclose(f32, f64, atol=1e-5)


# ------------------------------------------------------------------ #
# Accuracy metrics: determinism + stability under float32 epsilon
# ------------------------------------------------------------------ #


class TestAccuracyMetrics:
    def _scores(self, seed=3, n=40):
        rng = np.random.default_rng(seed)
        scores = rng.random((n, n))
        scores = (scores + scores.T) / 2
        np.fill_diagonal(scores, 1.0)
        return scores

    def test_identical_inputs_are_perfect(self):
        scores = self._scores()
        assert ndcg_at_k(scores, scores, 50) == pytest.approx(1.0)
        assert top_k_overlap(scores, scores, 50) == 1.0

    def test_metrics_are_deterministic(self):
        base = self._scores(seed=5)
        approx = base + 1e-3 * self._scores(seed=6)
        first = (ndcg_at_k(approx, base, 25), top_k_overlap(approx, base, 25))
        second = (
            ndcg_at_k(approx.copy(), base.copy(), 25),
            top_k_overlap(approx.copy(), base.copy(), 25),
        )
        assert first == second

    def test_stable_under_float32_epsilon(self):
        """Round-tripping through float32 must not crater the gates.

        This is the exact perturbation a float32 score store
        introduces: storage rounding at ~1e-7 relative error.
        """
        base = self._scores(seed=8)
        approx = base.astype(np.float32).astype(np.float64)
        assert ndcg_at_k(approx, base, 50) >= 0.999
        assert top_k_overlap(approx, base, 50) >= 0.98

    def test_tie_handling_does_not_punish_reordering(self):
        """Exactly tied baseline scores are interchangeable under NDCG."""
        base = np.zeros((6, 6))
        base[0, 1] = base[1, 0] = 0.5
        base[2, 3] = base[3, 2] = 0.5
        base[4, 5] = base[5, 4] = 0.1
        approx = base.copy()
        # Swap the two tied pairs' order with an epsilon nudge.
        approx[0, 1] = approx[1, 0] = 0.5 - 1e-12
        assert ndcg_at_k(approx, base, 3) == pytest.approx(1.0, abs=1e-9)

    def test_overlap_counts_pair_identity_not_order(self):
        base = self._scores(seed=12)
        perm = base + 1e-9 * self._scores(seed=13)
        # Tiny jitter reorders within the list but keeps the same set.
        assert top_k_overlap(perm, base, 10) >= 0.9


# ------------------------------------------------------------------ #
# Service precision
# ------------------------------------------------------------------ #


class TestServicePrecision:
    def test_rejects_unknown_mode(self, workload):
        graph, scores, _ = workload
        with pytest.raises(ConfigError):
            SimRankService(
                graph,
                service_config(CFG, precision="float16"),
                initial_scores=scores.copy(),
            )

    def test_float32_service_serves_and_reports(self, workload):
        graph, scores, updates = workload
        service = SimRankService(
            graph,
            service_config(CFG, shard_rows=16, precision="float32"),
            initial_scores=scores.copy(),
        )
        try:
            service.submit_many(list(updates[:4]))
            service.drain()
            report = service.metrics_report()
            assert report["executor"]["score_dtype"] == "float32"
            assert (
                report["executor"]["score_dtype_bytes"]
                == graph.num_nodes * graph.num_nodes * 4
            )
            assert report["precision"] == {"mode": "float32"}
            assert service.top_k(5)
        finally:
            service.close()
