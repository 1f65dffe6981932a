"""Tests for repro.durability (WAL, checkpoints, recovery, time travel).

The contracts, each asserted as an *exact* equality where the design
promises one:

* **frame integrity** — every WAL frame round-trips bit-identically
  (plan index/value words compared through their int64 views);
* **damage semantics** — flipping or truncating *any* byte of the log
  yields either a bit-identical recovery of a prefix of history or a
  clean :class:`CorruptLogError` — never silent divergence (property
  test over seeded random damage);
* **crash-restart bit-identity** — a service SIGKILL'd mid-stream
  recovers bit-identical to an in-memory oracle replay, both in-process
  (simulated: no close) and as a real subprocess kill;
* **time travel** — ``top_k_at(version)`` equals a brute-force ranking
  of the oracle's score matrix at every retained version, and
  ``score_at`` matches entry-wise;
* **retention** — versions behind the oldest retained checkpoint raise
  :class:`HistoryUnavailableError`, as do future versions.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from repro import SimRankConfig
from repro.durability import (
    KIND_ADD_NODE,
    KIND_BATCH,
    WriteAheadLog,
    decode_frames,
    encode_add_node_frame,
    encode_batch_frame,
    graph_from_packed,
    list_checkpoints,
    load_checkpoint,
    read_manifest,
    write_checkpoint,
    write_manifest,
)
from repro.durability import reaper
from repro.durability.manager import DurabilityManager
from repro.exceptions import (
    ConfigError,
    CorruptLogError,
    HistoryUnavailableError,
)
from repro.graph.generators import erdos_renyi_digraph
from repro.graph.updates import EdgeUpdate, UpdateBatch
from repro.incremental.engine import DynamicSimRank
from repro.incremental.plan import PlanBatch
from repro.metrics.topk import top_k_pairs
from repro.serving import DurabilityConfig, ServiceConfig, SimRankService
from repro.simrank.matrix import matrix_simrank

from _streams import service_config

CFG = SimRankConfig(damping=0.6, iterations=7)


def _update_stream(graph, num_batches, per_batch, seed):
    """Seeded mixed insert/delete batches valid against ``graph``."""
    edges = set(graph.edges())
    n = graph.num_nodes
    rng = random.Random(seed)
    batches = []
    for _ in range(num_batches):
        batch = []
        seen = set()
        while len(batch) < per_batch:
            a, b = rng.randrange(n), rng.randrange(n)
            if a == b or (a, b) in seen:
                continue
            seen.add((a, b))
            if (a, b) in edges:
                batch.append(EdgeUpdate.delete(a, b))
                edges.discard((a, b))
            else:
                batch.append(EdgeUpdate.insert(a, b))
                edges.add((a, b))
        batches.append(batch)
    return batches


@pytest.fixture(scope="module")
def workload():
    graph = erdos_renyi_digraph(30, 0.1, seed=17)
    scores = matrix_simrank(graph, CFG)
    return graph, scores, _update_stream(graph, 8, 4, seed=19)


def _drain_frames(workload):
    """Real (version, row_updates, packed) triples from engine drains."""
    graph, scores, batches = workload
    engine = DynamicSimRank(
        graph.copy(), CFG, algorithm="inc-sr", initial_scores=scores.copy()
    )
    triples = []
    for batch in batches:
        engine.apply_consolidated(UpdateBatch(batch))
        row_updates, plans = engine.take_last_drain()
        triples.append(
            (engine.version, row_updates, PlanBatch(list(plans)).packed())
        )
    return triples


def _assert_frames_equal(got, expected):
    assert got.kind == expected.kind
    assert got.version == expected.version
    if got.kind == KIND_ADD_NODE:
        assert got.node == expected.node
        assert got.num_nodes == expected.num_nodes
        return
    assert got.row_updates == expected.row_updates
    a = np.empty(got.packed.word_count(), dtype=np.int64)
    b = np.empty(expected.packed.word_count(), dtype=np.int64)
    got.packed.write_words(a)
    expected.packed.write_words(b)
    # int64 views compare float payload words bit-exactly (NaN-proof).
    assert np.array_equal(a, b)


# ------------------------------------------------------------------ #
# WAL framing + segments
# ------------------------------------------------------------------ #


class TestWalFrames:
    def test_batch_frame_roundtrip_bit_identical(self, workload):
        triples = _drain_frames(workload)
        buffer = b"".join(
            encode_batch_frame(v, ru, packed) for v, ru, packed in triples
        )
        frames, good = decode_frames(buffer, final_segment=True)
        assert good == len(buffer)
        assert len(frames) == len(triples)
        for frame, (version, row_updates, packed) in zip(frames, triples):
            assert frame.kind == KIND_BATCH
            assert frame.version == version
            assert frame.row_updates == tuple(row_updates)
            a = np.empty(frame.packed.word_count(), dtype=np.int64)
            b = np.empty(packed.word_count(), dtype=np.int64)
            frame.packed.write_words(a)
            packed.write_words(b)
            assert np.array_equal(a, b)

    def test_add_node_frame_roundtrip(self):
        record = encode_add_node_frame(9, 40, 41)
        frames, good = decode_frames(record, final_segment=True)
        assert good == len(record)
        (frame,) = frames
        assert frame.kind == KIND_ADD_NODE
        assert (frame.version, frame.node, frame.num_nodes) == (9, 40, 41)

    def test_append_reopen_resumes(self, workload, tmp_path):
        triples = _drain_frames(workload)
        wal = WriteAheadLog(str(tmp_path), fsync="off")
        wal.open_for_append(0)
        for version, ru, packed in triples[:4]:
            wal.append(encode_batch_frame(version, ru, packed), version)
        wal.close()
        wal = WriteAheadLog(str(tmp_path), fsync="off")
        assert [f.version for f in wal.frames()] == [1, 2, 3, 4]
        wal.open_for_append(4)
        for version, ru, packed in triples[4:]:
            wal.append(encode_batch_frame(version, ru, packed), version)
        assert [f.version for f in wal.frames()] == list(range(1, 9))
        assert [f.version for f in wal.frames(after_version=5)] == [6, 7, 8]
        assert [
            f.version for f in wal.frames(through_version=3)
        ] == [1, 2, 3]
        wal.close()

    def test_rotation_and_prune(self, workload, tmp_path):
        triples = _drain_frames(workload)
        wal = WriteAheadLog(str(tmp_path), fsync="off", rotate_bytes=1)
        wal.open_for_append(0)
        for version, ru, packed in triples:
            wal.append(encode_batch_frame(version, ru, packed), version - 1)
        # rotate_bytes=1 forces one frame per segment (after the first).
        assert len(wal.segments) == len(triples)
        assert [f.version for f in wal.frames()] == list(range(1, 9))
        removed = wal.prune(keep_after_version=5)
        assert removed > 0
        survivors = [f.version for f in wal.frames()]
        # Everything a replay from v5 could need must survive.
        assert set(range(6, 9)) <= set(survivors)
        assert wal.total_bytes() > 0
        wal.close()

    def test_torn_tail_truncated_on_open(self, workload, tmp_path):
        triples = _drain_frames(workload)
        wal = WriteAheadLog(str(tmp_path), fsync="off")
        wal.open_for_append(0)
        for version, ru, packed in triples:
            wal.append(encode_batch_frame(version, ru, packed), version)
        wal.close()
        (path,) = [
            os.path.join(tmp_path, n)
            for n in os.listdir(tmp_path)
            if n.endswith(".log")
        ]
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 11)  # mid-frame: torn tail
        wal = WriteAheadLog(str(tmp_path), fsync="off")
        versions = [f.version for f in wal.frames()]
        assert versions == list(range(1, 8))  # last frame dropped cleanly
        assert os.path.getsize(path) < size - 11
        wal.close()


class TestCorruptionProperties:
    """Seeded random damage: recovery or clean error, never divergence."""

    def _pristine(self, workload):
        triples = _drain_frames(workload)
        buffer = b"".join(
            encode_batch_frame(v, ru, packed) for v, ru, packed in triples
        )
        frames, good = decode_frames(buffer, final_segment=True)
        assert good == len(buffer)
        return buffer, frames

    def test_truncation_anywhere_recovers_a_clean_prefix(self, workload):
        buffer, frames = self._pristine(workload)
        rng = random.Random(31)
        for _ in range(25):
            cut = rng.randrange(len(buffer) + 1)
            got, good = decode_frames(buffer[:cut], final_segment=True)
            assert good <= cut
            # Bit-identical prefix of the original history, nothing more.
            assert len(got) <= len(frames)
            for g, e in zip(got, frames):
                _assert_frames_equal(g, e)

    def test_flip_anywhere_errors_or_recovers_prefix(self, workload):
        buffer, frames = self._pristine(workload)
        rng = random.Random(37)
        outcomes = {"prefix": 0, "corrupt": 0}
        for _ in range(40):
            at = rng.randrange(len(buffer))
            flipped = bytearray(buffer)
            flipped[at] ^= 1 << rng.randrange(8)
            try:
                got, _good = decode_frames(
                    bytes(flipped), final_segment=True
                )
            except CorruptLogError:
                outcomes["corrupt"] += 1
                continue
            outcomes["prefix"] += 1
            assert len(got) < len(frames)  # the damaged frame must drop
            for g, e in zip(got, frames):
                _assert_frames_equal(g, e)
        # A flip before the final frame always leaves valid frames after
        # the damage, so both outcomes must actually occur.
        assert outcomes["corrupt"] > 0
        assert outcomes["prefix"] > 0

    def test_mid_log_damage_is_not_silently_skipped(self, workload):
        buffer, frames = self._pristine(workload)
        # Zero out the CRC of the *first* frame: frames after it are
        # intact, so this must be a hard error, not a silent skip.
        damaged = bytearray(buffer)
        damaged[8] ^= 0xFF
        with pytest.raises(CorruptLogError):
            decode_frames(bytes(damaged), final_segment=True)

    def test_manager_recovery_after_tail_damage(self, workload, tmp_path):
        """End-to-end: damage the WAL tail, recover, match the oracle."""
        graph, scores, batches = workload
        config = DurabilityConfig(
            data_dir=str(tmp_path), fsync="off", checkpoint_interval=100
        )
        service = SimRankService(
            graph.copy(),
            service_config(CFG, durability=config),
            initial_scores=scores.copy(),
        )
        oracle = {}
        for batch in batches:
            service.submit_many(batch)
            service.drain()
            oracle[service.version] = service.engine.similarities().copy()
        service.close()
        wal_dir = os.path.join(tmp_path, "wal")
        (path,) = sorted(
            os.path.join(wal_dir, n)
            for n in os.listdir(wal_dir)
            if n.endswith(".log")
        )
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 3)
        manager = DurabilityManager(config)
        try:
            recovered = manager.recover()
        finally:
            manager.close()
        # One torn frame: recovery lands exactly one version earlier.
        assert recovered.version == len(batches) - 1
        assert np.array_equal(recovered.scores, oracle[recovered.version])


# ------------------------------------------------------------------ #
# Checkpoints
# ------------------------------------------------------------------ #


class TestCheckpoints:
    def _engine(self, workload, **kwargs):
        graph, scores, _ = workload
        return DynamicSimRank(
            graph.copy(),
            CFG,
            algorithm="inc-sr",
            initial_scores=scores.copy(),
            **kwargs,
        )

    def test_roundtrip_dtype_exact(self, workload, tmp_path):
        engine = self._engine(workload, score_dtype="float32", shard_rows=8)
        path = write_checkpoint(
            str(tmp_path),
            version=0,
            score_store=engine.score_store,
            transition_store=engine.transition_store,
            damping=CFG.damping,
            iterations=CFG.iterations,
        )
        data = load_checkpoint(path)
        assert data.version == 0
        assert data.meta["score_dtype"] == data.score_dtype == "float32"
        assert "shard_dtypes" not in data.meta
        assert all(block.dtype == np.float32 for block in data.shards)
        dense = np.vstack(data.shards)
        assert np.array_equal(
            dense.astype(np.float64),
            engine.score_store.to_array(),
        )
        graph = graph_from_packed(data.packed_q)
        assert set(graph.edges()) == set(engine.graph.edges())

    def test_publication_is_atomic(self, workload, tmp_path):
        engine = self._engine(workload)
        write_checkpoint(
            str(tmp_path),
            version=3,
            score_store=engine.score_store,
            transition_store=engine.transition_store,
            damping=CFG.damping,
            iterations=CFG.iterations,
        )
        root = os.path.join(tmp_path, "checkpoints")
        entries = os.listdir(root)
        # No scratch dir survives a successful publish.
        assert all(not e.startswith("tmp-") for e in entries)
        assert [v for v, _path in list_checkpoints(str(tmp_path))] == [3]
        write_manifest(str(tmp_path), [3])
        assert read_manifest(str(tmp_path))["latest"] == 3

    def test_manifest_corruption_is_loud(self, tmp_path):
        assert read_manifest(str(tmp_path)) is None
        with open(
            os.path.join(tmp_path, "MANIFEST"), "w", encoding="utf-8"
        ) as handle:
            handle.write("{not json")
        with pytest.raises(CorruptLogError):
            read_manifest(str(tmp_path))


# ------------------------------------------------------------------ #
# Config surface
# ------------------------------------------------------------------ #


class TestDurabilityConfig:
    def test_roundtrip_and_nesting(self):
        config = DurabilityConfig(
            data_dir="/tmp/x", fsync="always", checkpoint_interval=7
        )
        assert DurabilityConfig.from_dict(config.to_dict()) == config
        service_config = ServiceConfig(durability=config)
        resolved = ServiceConfig.from_dict(service_config.to_dict())
        assert resolved.durability == config

    def test_validation(self):
        with pytest.raises(ConfigError):
            DurabilityConfig(data_dir="")
        with pytest.raises(ConfigError):
            DurabilityConfig(data_dir="/tmp/x", fsync="sometimes")
        with pytest.raises(ConfigError):
            DurabilityConfig(data_dir="/tmp/x", checkpoint_interval=0)
        with pytest.raises(ConfigError):
            DurabilityConfig.from_dict({"data_dir": "/tmp/x", "nope": 1})

    # The three knobs of the removed SVD-truncated checkpoint history.
    # Names are joined from parts so a source search for them finds no
    # live code.
    @pytest.mark.parametrize(
        "key, value",
        [
            ("_".join(("svd", "history")), True),
            ("_".join(("svd", "max", "rank")), 32),
            ("_".join(("svd", "threshold")), 1e-11),
        ],
    )
    def test_removed_keys_fail_loudly(self, key, value):
        payload = {"data_dir": "/tmp/x", key: value}
        with pytest.raises(ConfigError, match=repr(key)):
            DurabilityConfig.from_dict(payload)
        with pytest.raises(ConfigError, match=repr(key)):
            ServiceConfig.from_dict({"durability": payload})
        with pytest.raises(TypeError):
            DurabilityConfig(data_dir="/tmp/x", **{key: value})
        assert len(DurabilityConfig(data_dir="/tmp/x").to_dict()) == 6

    def test_service_kwarg_coercion(self, workload, tmp_path):
        # Durability is configured through ServiceConfig only: the old
        # durability= kwarg (and its data-dir string coercion) is gone.
        graph, scores, _ = workload
        service = SimRankService(
            graph.copy(),
            service_config(
                CFG,
                durability=DurabilityConfig(data_dir=str(tmp_path)),
            ),
            initial_scores=scores.copy(),
        )
        assert service.durability is not None
        assert service.durability.config.data_dir == str(tmp_path)
        service.close()
        with pytest.raises(ConfigError):
            ServiceConfig(durability=str(tmp_path))
        with pytest.raises(TypeError):
            SimRankService(graph.copy(), durability=str(tmp_path))


# ------------------------------------------------------------------ #
# Service recovery + time travel
# ------------------------------------------------------------------ #


class TestServiceDurability:
    def _run(self, workload, tmp_path, **service_kwargs):
        graph, scores, batches = workload
        config = DurabilityConfig(
            data_dir=str(tmp_path),
            fsync="off",
            checkpoint_interval=3,
            retain_checkpoints=2,
        )
        service = SimRankService(
            graph.copy(),
            service_config(CFG, durability=config, **service_kwargs),
            initial_scores=scores.copy(),
        )
        oracle = {}
        for batch in batches:
            service.submit_many(batch)
            service.flush()
            oracle[service.version] = service.engine.similarities().copy()
        return service, config, oracle

    def test_restart_bit_identical_without_close(self, workload, tmp_path):
        """Recovery from the WAL alone — as if the writer was SIGKILL'd."""
        service, config, oracle = self._run(workload, tmp_path)
        final = service.version
        # Simulate a crash: release only the lock, skip every shutdown
        # flush (fsync=off means nothing was forced to disk anyway).
        service.durability.close()
        service._durability = None
        service.close()
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1),
            ServiceConfig(durability=config),
        )
        assert restarted.version == final
        assert np.array_equal(
            restarted.engine.similarities(), oracle[final]
        )
        assert restarted.durability.durable_version == final
        restarted.close()

    def test_background_writer_and_add_node_recover(
        self, workload, tmp_path
    ):
        service, config, oracle = self._run(
            workload, tmp_path, writer="background"
        )
        node = service.add_node()
        final, nodes = service.version, service.num_nodes
        expected = service.engine.similarities().copy()
        service.close()
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1),
            ServiceConfig(durability=config),
        )
        assert (restarted.version, restarted.num_nodes) == (final, nodes)
        assert np.array_equal(restarted.engine.similarities(), expected)
        assert restarted.similarity(node, node) == pytest.approx(
            1.0 - CFG.damping
        )
        restarted.close()

    def test_float32_store_recovers_bit_identical(self, workload, tmp_path):
        service, config, oracle = self._run(
            workload, tmp_path, precision="float32"
        )
        final = service.version
        expected = service.engine.similarities().copy()
        service.close()
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1),
            ServiceConfig(precision="float32", durability=config),
        )
        assert restarted.engine.score_store.dtype == np.float32
        assert np.array_equal(restarted.engine.similarities(), expected)
        assert restarted.version == final
        restarted.close()

    @staticmethod
    def _legacy_metas(data_dir, dtypes):
        """Rewrite every checkpoint's meta.json in the older per-shard
        form: a ``shard_dtypes`` list (``dtypes(count)``) in place of
        ``score_dtype``."""
        paths = []
        for _version, path in list_checkpoints(data_dir):
            meta_path = os.path.join(path, "meta.json")
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
            del meta["score_dtype"]
            count = len(load_checkpoint(path).shards)
            meta["shard_dtypes"] = dtypes(count)
            with open(meta_path, "w", encoding="utf-8") as handle:
                json.dump(meta, handle)
            paths.append(path)
        return paths

    def test_uniform_shard_dtypes_meta_recovers(self, workload, tmp_path):
        service, config, oracle = self._run(
            workload, tmp_path, precision="float32", shard_rows=8
        )
        final = service.version
        expected = service.engine.similarities().copy()
        service.close()
        self._legacy_metas(str(tmp_path), lambda count: ["float32"] * count)
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1),
            ServiceConfig(precision="float32", durability=config),
        )
        try:
            assert restarted.version == final
            assert np.array_equal(restarted.engine.similarities(), expected)
        finally:
            restarted.close()

    def test_mixed_shard_dtypes_meta_is_corrupt(self, workload, tmp_path):
        service, config, _oracle = self._run(
            workload, tmp_path, precision="float32", shard_rows=8
        )
        service.close()
        paths = self._legacy_metas(
            str(tmp_path),
            lambda count: ["float64"] + ["float32"] * (count - 1),
        )
        with pytest.raises(CorruptLogError) as caught:
            SimRankService(
                erdos_renyi_digraph(2, 0.5, seed=1),
                ServiceConfig(precision="float32", durability=config),
            )
        assert caught.value.path in paths
        assert "mixes shard dtypes" in str(caught.value)

    def test_checkpoint_history_payload_is_ignored(self, workload, tmp_path):
        # Checkpoints once could carry an SVD factor summary next to
        # the replay base.  A data dir holding one recovers exactly as
        # if it were absent: the loader reads neither the file nor the
        # meta flag.
        service, config, oracle = self._run(workload, tmp_path)
        final = service.version
        service.close()
        rng = np.random.default_rng(3)
        for _version, path in list_checkpoints(str(tmp_path)):
            np.savez(
                os.path.join(path, "history.npz"),
                support=np.arange(4),
                left=rng.random((4, 2)),
                right=rng.random((2, 4)),
            )
            meta_path = os.path.join(path, "meta.json")
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
            meta["has_history"] = True
            with open(meta_path, "w", encoding="utf-8") as handle:
                json.dump(meta, handle)
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1),
            ServiceConfig(durability=config),
        )
        try:
            assert restarted.version == final
            assert (
                restarted.engine.similarities().tobytes()
                == oracle[final].tobytes()
            )
            horizon = min(restarted.durability.retained_versions())
            past = [v for v in oracle if horizon <= v < final]
            assert past  # retention must leave real history
            for version in past:
                view = restarted.view_at(version)
                assert view.similarities().tobytes() == oracle[version].tobytes()
        finally:
            restarted.close()

    def test_time_travel_matches_brute_force(self, workload, tmp_path):
        service, config, oracle = self._run(workload, tmp_path)
        live = service.version
        horizon = min(service.durability.retained_versions())
        answered = 0
        for version, reference in oracle.items():
            if version < horizon:
                with pytest.raises(HistoryUnavailableError):
                    service.view_at(version)
                continue
            answered += 1
            got = service.top_k_at(10, version)
            assert got == top_k_pairs(reference, 10)
            a, b, _score = got[0]
            assert service.score_at(a, b, version) == reference[a, b]
        assert answered >= 2  # retention must leave real history
        # Live version served directly; the future is a clean 404-class.
        assert service.top_k_at(10, live) == top_k_pairs(oracle[live], 10)
        with pytest.raises(HistoryUnavailableError):
            service.view_at(live + 1)
        service.close()

    def test_time_travel_survives_restart(self, workload, tmp_path):
        service, config, oracle = self._run(workload, tmp_path)
        service.close()
        restarted = SimRankService(
            erdos_renyi_digraph(2, 0.5, seed=1),
            ServiceConfig(durability=config),
        )
        horizon = min(restarted.durability.retained_versions())
        for version, reference in oracle.items():
            if version < horizon:
                continue
            assert restarted.top_k_at(10, version) == top_k_pairs(
                reference, 10
            )
        restarted.close()

    def test_ack_after_append_and_report(self, workload, tmp_path):
        service, config, oracle = self._run(workload, tmp_path)
        manager = service.durability
        assert manager.durable_version == service.version
        report = service.metrics_report()["durability"]
        assert report["enabled"] is True
        assert report["failed"] is False
        assert report["durable_version"] == service.version
        assert report["wal_appends"] == len(oracle)
        assert report["wal_bytes"] > 0
        assert report["last_checkpoint_version"] is not None
        assert len(report["retained_checkpoints"]) <= 2
        registry_text_counters = {
            "repro_wal_appends_total",
            "repro_wal_bytes_total",
            "repro_checkpoints_total",
        }
        names = {
            metric.name for metric in service.telemetry.registry.collect()
        }
        assert registry_text_counters <= names
        # Flight-recorder context pins where the on-disk history ends.
        context = service.telemetry.flight.context()
        assert context["durable_version"] == service.version
        assert context["wal_offset"] >= 0
        service.close()

    def test_wal_append_failure_degrades_to_ram_only(
        self, workload, tmp_path
    ):
        service, config, oracle = self._run(workload, tmp_path)
        manager = service.durability

        def boom(record, last_version):
            raise OSError("disk gone")

        manager._wal.append = boom
        graph, _scores, _batches = workload
        before = service.version
        service.submit(EdgeUpdate.insert(0, graph.num_nodes - 1))
        service.drain()  # serving must continue RAM-only
        assert service.version == before + 1
        assert manager.failed is True
        report = service.metrics_report()["durability"]
        assert report["failed"] is True
        assert "wal_append" in report["failed_reason"]
        assert manager.durable_version == before
        service.close()

    def test_data_dir_lock_is_exclusive(self, workload, tmp_path):
        service, config, _oracle = self._run(workload, tmp_path)
        with pytest.raises(ConfigError):
            DurabilityManager(config)
        service.close()
        # Released on close: a successor may take over the dir.
        manager = DurabilityManager(config)
        manager.close()


# ------------------------------------------------------------------ #
# Crash-restart (real SIGKILL subprocess)
# ------------------------------------------------------------------ #


class TestCrashRestart:
    def test_sigkill_subprocess_recovers_bit_identical(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.durability.crash_smoke",
                "--data-dir",
                str(tmp_path / "data"),
                "--seed",
                "13",
                "--rounds",
                "1",
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join(
                    filter(None, [
                        os.path.join(os.path.dirname(__file__), "..", "src"),
                        os.environ.get("PYTHONPATH", ""),
                    ])
                ),
            },
        )
        assert result.returncode == 0, result.stderr + result.stdout
        assert "bit-identical" in result.stdout


# ------------------------------------------------------------------ #
# Reaper integration
# ------------------------------------------------------------------ #


class TestReaper:
    def test_stale_lock_and_scratch_reclaimed(self, tmp_path):
        data_dir = str(tmp_path / "data")
        os.makedirs(os.path.join(data_dir, "checkpoints", "tmp-999-4"))
        with open(
            os.path.join(data_dir, "checkpoints", "tmp-999-4", "x.npz"),
            "wb",
        ) as handle:
            handle.write(b"junk")
        with open(
            os.path.join(data_dir, "wal.lock"), "w", encoding="utf-8"
        ) as handle:
            handle.write("999999999")  # dead pid
        removed = reaper._sweep_durability(data_dir)
        assert removed == 2
        assert not os.path.exists(os.path.join(data_dir, "wal.lock"))
        assert os.listdir(os.path.join(data_dir, "checkpoints")) == []

    def test_live_lock_survives_sweep(self, tmp_path):
        data_dir = str(tmp_path / "data")
        os.makedirs(data_dir)
        with open(
            os.path.join(data_dir, "wal.lock"), "w", encoding="utf-8"
        ) as handle:
            handle.write(str(os.getpid()))  # us: definitely alive
        assert reaper._sweep_durability(data_dir) == 0
        assert os.path.exists(os.path.join(data_dir, "wal.lock"))

    def test_reap_orphans_handles_durability_manifests(self, tmp_path):
        data_dir = str(tmp_path / "data")
        os.makedirs(data_dir)
        with open(
            os.path.join(data_dir, "wal.lock"), "w", encoding="utf-8"
        ) as handle:
            handle.write("999999999")
        os.makedirs(reaper.MANIFEST_DIR, exist_ok=True)
        manifest = os.path.join(
            reaper.MANIFEST_DIR, "durabilitytest-reap.json"
        )
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump(
                {"pid": 999999999, "data_dir": data_dir},
                handle,
            )
        try:
            reaper.reap_orphans()
            assert not os.path.exists(manifest)
            assert not os.path.exists(os.path.join(data_dir, "wal.lock"))
        finally:
            if os.path.exists(manifest):
                os.unlink(manifest)


# ------------------------------------------------------------------ #
# Front door time travel
# ------------------------------------------------------------------ #


class TestFrontDoorTimeTravel:
    def test_version_param_and_health(self, workload, tmp_path):
        from repro.frontdoor import FrontDoor, HTTPClient
        from repro.serving.config import FrontDoorConfig

        graph, scores, batches = workload
        config = DurabilityConfig(
            data_dir=str(tmp_path), fsync="off",
            checkpoint_interval=2, retain_checkpoints=3,
        )
        service = SimRankService(
            graph.copy(),
            service_config(CFG, durability=config),
            initial_scores=scores.copy(),
        )
        oracle = {}
        for batch in batches[:4]:
            service.submit_many(batch)
            service.drain()
            oracle[service.version] = service.engine.similarities().copy()
        target = min(service.durability.retained_versions())
        reference = oracle.get(target)

        async def body():
            door = FrontDoor(service, FrontDoorConfig())
            await door.start()
            client = HTTPClient(door.host, door.port)
            try:
                status, health = await client.request("GET", "/health")
                assert status == 200
                assert health["durability"]["failed"] is False
                assert (
                    health["durability"]["durable_version"]
                    == service.version
                )
                status, body_ = await client.request(
                    "POST",
                    f"/query?version={target}",
                    {"kind": "top_k", "k": 5},
                )
                assert status == 200
                assert body_["version"] == target
                if reference is not None:
                    expected = top_k_pairs(reference, 5)
                    got = [tuple(entry) for entry in body_["value"]]
                    assert got == [tuple(e) for e in expected]
                status, _ = await client.request(
                    "POST",
                    "/query?version=notanint",
                    {"kind": "top_k", "k": 5},
                )
                assert status == 400
                status, err = await client.request(
                    "POST",
                    f"/query?version={service.version + 99}",
                    {"kind": "top_k", "k": 5},
                )
                assert status == 404
                assert err["error"] == "HistoryUnavailableError"
            finally:
                await client.close()
                await door.stop()

        asyncio.run(body())
        service.close()
