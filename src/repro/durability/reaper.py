"""Orphan reaper: reclaim what a SIGKILL'd durability owner left behind.

A durable service holds a ``wal.lock`` naming its pid in the data dir,
and a checkpoint in progress writes into a ``checkpoints/tmp-*`` scratch
dir before its atomic rename.  A process killed mid-flight leaves both
behind.  Each live :class:`~repro.durability.manager.DurabilityManager`
therefore registers a tiny manifest file recording ``{pid, data_dir}``;
the next manager construction scans the manifests, probes each recorded
pid, and sweeps the residue of dead owners.
"""

from __future__ import annotations

import json
import os
import tempfile

#: Per-session manifest files live here: one tiny JSON per live
#: durability session.
MANIFEST_DIR = os.path.join(tempfile.gettempdir(), "repro-durability")


def register_durability(data_dir: str) -> str:
    """Record a live durability session's data dir; returns the path."""
    os.makedirs(MANIFEST_DIR, exist_ok=True)
    token = f"durability{os.getpid():x}x{os.urandom(4).hex()}"
    path = os.path.join(MANIFEST_DIR, f"{token}.json")
    payload = {"pid": os.getpid(), "data_dir": os.path.abspath(data_dir)}
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)
    return path


def unregister_durability(manifest_path: str) -> None:
    """Remove a session's manifest at orderly close."""
    try:
        os.unlink(manifest_path)
    except OSError:
        pass


def pid_alive(pid: int) -> bool:
    """Whether a process with ``pid`` exists (signal-0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


def _sweep_durability(data_dir: str) -> int:
    """Reclaim a dead durability owner's lock + checkpoint scratch dirs.

    Only removes the ``wal.lock`` when it still names a dead pid (the
    dead owner's, or a successor's that also died) — a live successor
    process may already hold a fresh lock in the same data dir, and
    that one must survive the sweep.  Returns the number of filesystem
    entries reclaimed.
    """
    removed = 0
    lock_path = os.path.join(data_dir, "wal.lock")
    try:
        with open(lock_path, "r", encoding="utf-8") as fh:
            lock_pid = int(fh.read().strip() or -1)
    except (OSError, ValueError):
        lock_pid = None
    if lock_pid is not None and not pid_alive(lock_pid):
        try:
            os.unlink(lock_path)
            removed += 1
        except OSError:
            pass
    tmp_root = os.path.join(data_dir, "checkpoints")
    try:
        entries = os.listdir(tmp_root)
    except OSError:
        entries = []
    for entry in entries:
        if not entry.startswith("tmp-"):
            continue
        scratch = os.path.join(tmp_root, entry)
        for dirpath, dirnames, filenames in os.walk(scratch, topdown=False):
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
            os.rmdir(scratch)
            removed += 1
        except OSError:
            pass
    return removed


def reap_orphans() -> int:
    """Sweep the residue of every durability session whose owner died.

    Scans every manifest in :data:`MANIFEST_DIR`; for each one whose
    recorded pid no longer exists, reclaims the stale ``wal.lock`` and
    orphaned ``checkpoints/tmp-*`` scratch dirs of its data dir and
    removes the manifest.  Returns the number of entries removed.
    Called at durability startup, so residue from SIGKILL'd sessions is
    cleaned by the next session rather than by chance.
    """
    removed = 0
    if not os.path.isdir(MANIFEST_DIR):
        return removed
    for entry in os.listdir(MANIFEST_DIR):
        if not entry.endswith(".json"):
            continue
        path = os.path.join(MANIFEST_DIR, entry)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            pid = int(payload["pid"])
            data_dir = str(payload["data_dir"])
        except (OSError, ValueError, KeyError):
            # Unreadable manifest: drop it, but never guess a data dir.
            unregister_durability(path)
            continue
        if pid_alive(pid):
            continue
        removed += _sweep_durability(data_dir)
        unregister_durability(path)
    return removed
