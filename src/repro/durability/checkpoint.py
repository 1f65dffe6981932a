"""Atomic factored checkpoints: base score shards + packed ``Q``.

A checkpoint is the replay base the WAL's delta frames build on: the
score shards exactly as the :class:`~repro.executor.score_store.ScoreStore`
holds them (in the store's one storage dtype, recorded as
``score_dtype`` in ``meta.json``, so a float32 store is saved as
float32 and restores bit-identically) plus the packed
:meth:`~repro.linalg.qstore.TransitionStore.export_packed` arrays of
``Q``, from which both ``Q`` *and* the graph are rebuilt (row ``i`` of the backward CSR
lists ``i``'s in-neighbors; ``TransitionStore.from_graph`` is
deterministic, so the rebuilt ``Q`` is bit-identical too).

Publication is atomic at two levels: each checkpoint is written into a
``checkpoints/tmp-*`` scratch directory, fsynced, and ``os.rename``d
to its final ``ckpt-<version>`` name; the data dir's ``MANIFEST`` is
then rewritten via the tmp + ``os.replace`` pattern.  A crash at any
byte offset leaves either the old manifest (pointing at complete
checkpoints) or the new one — never a half-written checkpoint that a
restart could load.

Loading reads ``meta.json``, ``scores.npz`` and ``transitions.npz``
only; any other file in a checkpoint directory is ignored.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import CorruptLogError
from ..graph import DynamicDiGraph

__all__ = [
    "CheckpointData",
    "checkpoint_path",
    "graph_from_packed",
    "list_checkpoints",
    "load_checkpoint",
    "read_manifest",
    "write_checkpoint",
    "write_manifest",
]

MANIFEST_NAME = "MANIFEST"
CHECKPOINT_DIRNAME = "checkpoints"
_CKPT_PREFIX = "ckpt-"
_TMP_PREFIX = "tmp-"
MANIFEST_FORMAT = 1


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def checkpoint_path(data_dir: str, version: int) -> str:
    return os.path.join(
        data_dir, CHECKPOINT_DIRNAME, f"{_CKPT_PREFIX}{version:016d}"
    )


def list_checkpoints(data_dir: str) -> List[Tuple[int, str]]:
    """``(version, path)`` of every published checkpoint, ascending."""
    root = os.path.join(data_dir, CHECKPOINT_DIRNAME)
    out: List[Tuple[int, str]] = []
    try:
        names = os.listdir(root)
    except OSError:
        return out
    for name in names:
        if not name.startswith(_CKPT_PREFIX):
            continue
        try:
            version = int(name[len(_CKPT_PREFIX) :])
        except ValueError:
            continue
        out.append((version, os.path.join(root, name)))
    out.sort()
    return out


# ------------------------------------------------------------------ #
# Manifest
# ------------------------------------------------------------------ #


def read_manifest(data_dir: str) -> Optional[dict]:
    """The published manifest, or None when the dir is fresh/unused."""
    path = os.path.join(data_dir, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        # The manifest is written atomically, so a damaged one is not
        # crash residue — refuse to guess, like a mid-log CRC failure.
        raise CorruptLogError(
            f"unreadable durability manifest {path}: {exc}", path=path
        ) from None
    if manifest.get("format") != MANIFEST_FORMAT:
        raise CorruptLogError(
            f"unsupported manifest format {manifest.get('format')!r} "
            f"in {path}",
            path=path,
        )
    return manifest


def write_manifest(data_dir: str, retained_versions: List[int]) -> None:
    """Atomically publish the retained-checkpoint list."""
    payload = {
        "format": MANIFEST_FORMAT,
        "latest": max(retained_versions),
        "retained": sorted(retained_versions),
        "written_at": time.time(),
    }
    path = os.path.join(data_dir, MANIFEST_NAME)
    tmp = path + f".tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(data_dir)


# ------------------------------------------------------------------ #
# Checkpoint write / load
# ------------------------------------------------------------------ #


@dataclass
class CheckpointData:
    """One loaded checkpoint, ready to seed a replay."""

    version: int
    meta: dict
    #: The store's storage dtype name (``float64``/``float32``).
    score_dtype: str
    #: Shard blocks in saved order, in ``score_dtype``.
    shards: List[np.ndarray] = field(default_factory=list)
    #: ``TransitionStore.export_packed()`` payload.
    packed_q: Dict[str, np.ndarray] = field(default_factory=dict)


def write_checkpoint(
    data_dir: str,
    *,
    version: int,
    score_store,
    transition_store,
    damping: float,
    iterations: int,
) -> str:
    """Write and atomically publish one checkpoint; returns its path.

    Caller must hold the apply lock (or otherwise guarantee the stores
    are quiescent) — the shard blocks are copied here, so the lock is
    only held for the copy + serialization, not for later reads.
    """
    root = os.path.join(data_dir, CHECKPOINT_DIRNAME)
    os.makedirs(root, exist_ok=True)
    final = checkpoint_path(data_dir, version)
    tmp = os.path.join(root, f"{_TMP_PREFIX}{os.getpid()}-{version:016d}")
    os.makedirs(tmp, exist_ok=True)

    shard_arrays = {}
    for index, (_base, block) in enumerate(score_store.iter_shard_blocks()):
        shard_arrays[f"shard_{index:05d}"] = np.ascontiguousarray(block)
    _savez(os.path.join(tmp, "scores.npz"), shard_arrays)

    packed = transition_store.export_packed()
    _savez(
        os.path.join(tmp, "transitions.npz"),
        {key: np.asarray(value) for key, value in packed.items()},
    )

    meta = {
        "version": int(version),
        "num_nodes": int(score_store.num_nodes),
        "shard_rows": int(score_store.shard_rows),
        "score_dtype": score_store.dtype.name,
        "damping": float(damping),
        "iterations": int(iterations),
        "created_at": time.time(),
    }
    meta_path = os.path.join(tmp, "meta.json")
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    _fsync_dir(tmp)

    # Publish: one rename flips the whole directory from scratch to
    # final.  A stale final dir (a retried version) is replaced.
    if os.path.isdir(final):
        _remove_tree(final)
    os.rename(tmp, final)
    _fsync_dir(root)
    return final


def _savez(path: str, arrays: Dict[str, np.ndarray]) -> None:
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)
        handle.flush()
        os.fsync(handle.fileno())


def _remove_tree(path: str) -> None:
    for dirpath, dirnames, filenames in os.walk(path, topdown=False):
        for name in filenames:
            try:
                os.unlink(os.path.join(dirpath, name))
            except OSError:
                pass
        for name in dirnames:
            try:
                os.rmdir(os.path.join(dirpath, name))
            except OSError:
                pass
    try:
        os.rmdir(path)
    except OSError:
        pass


def _score_dtype(meta: dict, path: str) -> str:
    """The one storage dtype a checkpoint's shards were saved in.

    Checkpoints record ``score_dtype``; older ones list one dtype per
    shard under ``shard_dtypes``, which must then all agree.
    """
    if "score_dtype" in meta:
        return str(meta["score_dtype"])
    names = set(meta.get("shard_dtypes", []))
    if len(names) > 1:
        raise CorruptLogError(
            f"checkpoint {path} mixes shard dtypes {sorted(names)}; a "
            "score store holds one dtype",
            path=path,
        )
    return names.pop() if names else "float64"


def load_checkpoint(path: str) -> CheckpointData:
    """Load one published checkpoint directory."""
    try:
        with open(os.path.join(path, "meta.json"), "r", encoding="utf-8") as f:
            meta = json.load(f)
    except (OSError, ValueError) as exc:
        raise CorruptLogError(
            f"unreadable checkpoint meta in {path}: {exc}", path=path
        ) from None
    try:
        with np.load(os.path.join(path, "scores.npz")) as archive:
            shards = [
                archive[name] for name in sorted(archive.files)
            ]
        with np.load(os.path.join(path, "transitions.npz")) as archive:
            packed_q = {name: archive[name] for name in archive.files}
    except (OSError, ValueError) as exc:
        raise CorruptLogError(
            f"unreadable checkpoint arrays in {path}: {exc}", path=path
        ) from None
    return CheckpointData(
        version=int(meta["version"]),
        meta=meta,
        score_dtype=_score_dtype(meta, path),
        shards=shards,
        packed_q=packed_q,
    )


def graph_from_packed(packed_q: Dict[str, np.ndarray]) -> DynamicDiGraph:
    """Rebuild the graph from the packed backward-CSR structure.

    Row ``i`` of ``Q`` lists the in-neighbors of ``i``: every column
    ``j`` in row ``i`` is an edge ``j → i``.  The edge *weights* are
    redundant (``1/indegree``, re-derived by
    :meth:`~repro.linalg.qstore.TransitionStore.from_graph`), so
    structure alone reproduces the store.
    """
    num_nodes = int(np.asarray(packed_q["num_nodes"]))
    indptr = np.asarray(packed_q["indptr"])
    indices = np.asarray(packed_q["indices"])
    graph = DynamicDiGraph(num_nodes)
    for target in range(num_nodes):
        for source in indices[indptr[target] : indptr[target + 1]]:
            graph.add_edge(int(source), target)
    return graph
