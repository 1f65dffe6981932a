"""Shared helpers for the serving/writer/top-k suites: a random update
stream and a :class:`ServiceConfig` built from a ``SimRankConfig``."""

from __future__ import annotations

import numpy as np

from repro.graph.updates import EdgeUpdate
from repro.serving import ServiceConfig


def random_update_stream(graph, num_updates, seed):
    """A valid randomized mixed insert/delete stream for ``graph``.

    Each step picks a random ordered pair and emits the update that is
    legal against the stream applied so far (delete if the edge exists,
    insert otherwise), so the whole stream can be applied sequentially
    without tripping the duplicate/missing-edge guards.
    """
    rng = np.random.default_rng(seed)
    live = graph.copy()
    updates = []
    nodes = live.num_nodes
    while len(updates) < num_updates:
        source = int(rng.integers(nodes))
        target = int(rng.integers(nodes))
        if source == target:
            continue
        if live.has_edge(source, target):
            update = EdgeUpdate.delete(source, target)
        else:
            update = EdgeUpdate.insert(source, target)
        update.apply_to(live)
        updates.append(update)
    return updates


def service_config(simrank_config, **fields):
    """A :class:`ServiceConfig` carrying ``simrank_config``'s damping and
    iterations plus the given service fields."""
    return ServiceConfig(
        damping=simrank_config.damping,
        iterations=simrank_config.iterations,
        **fields,
    )
