"""Reader-side pins: :class:`SnapshotView` over one frozen ``S``.

A view wraps a copy-on-write
:class:`~repro.executor.score_store.ScoreSnapshot` of the score matrix
and serves every read at that version from it: point lookups, whole
rows (``single_source``), full-matrix export and top-k ranking.  The
incremental engine maintains ``S`` under link updates (Theorems 3–4 of
the paper), so every query is a lookup into the one frozen ``S`` —
there is no second read source, and ``similarity(a, b)`` equals
``single_source(a)[b]`` bit for bit.

Pinning is cheap — O(#shards) bookkeeping, no score copying — and the
bit-stability guarantee is structural: the writer clones any shard it
touches before writing, so the arrays this view references are never
mutated again.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..config import SimRankConfig
from ..exceptions import NodeNotFoundError
from ..executor.score_store import ScoreSnapshot


class SnapshotView:
    """All reads of one frozen ``S`` version."""

    def __init__(
        self,
        scores: ScoreSnapshot,
        config: SimRankConfig,
        version: int,
    ) -> None:
        self._scores = scores
        self._config = config
        self._version = int(version)

    # -------------------------------------------------------------- #
    # Identity
    # -------------------------------------------------------------- #

    @property
    def version(self) -> int:
        """The engine version this view is pinned at."""
        return self._version

    @property
    def num_nodes(self) -> int:
        return self._scores.num_nodes

    @property
    def config(self) -> SimRankConfig:
        return self._config

    @property
    def scores(self) -> ScoreSnapshot:
        """The underlying frozen score shards."""
        return self._scores

    # -------------------------------------------------------------- #
    # Score reads (frozen S)
    # -------------------------------------------------------------- #

    def similarity(self, node_a: int, node_b: int) -> float:
        """The frozen SimRank score of one node pair."""
        self._require_node(node_a)
        self._require_node(node_b)
        return self._scores.entry(node_a, node_b)

    def similarities(self) -> np.ndarray:
        """The full frozen score matrix (a fresh copy)."""
        return self._scores.to_array()

    def similarity_row(self, node: int) -> np.ndarray:
        """Frozen row ``[S]_{node,:}`` (a copy)."""
        return self._scores.row(node)

    def single_source(self, node: int) -> np.ndarray:
        """Scores of ``node`` against every node: frozen row ``[S]_{node,:}``.

        A copy in the store's dtype, like :meth:`similarity_row`, but
        an out-of-range ``node`` raises :class:`NodeNotFoundError`.
        """
        self._require_node(node)
        return self._scores.row(node)

    def single_pair(self, node_a: int, node_b: int) -> float:
        """The frozen score of one pair: :meth:`similarity`."""
        return self.similarity(node_a, node_b)

    def top_k(self, k: int, include_self: bool = False) -> List[Tuple[int, int, float]]:
        """Top-``k`` most similar node pairs at the frozen version.

        Served by the shard-merge path: candidates are selected one
        frozen row block at a time and k-way merged, so the ranking is
        bit-identical to a dense :func:`~repro.metrics.topk.top_k_pairs`
        scan without ever materializing the O(n²) matrix.
        """
        from ..executor.topk_index import top_k_from_blocks

        return top_k_from_blocks(
            self._scores.iter_blocks(), k, include_self=include_self
        )

    def _require_node(self, node: int) -> None:
        if not (0 <= node < self._scores.num_nodes):
            raise NodeNotFoundError(node)

    # -------------------------------------------------------------- #
    # Accounting
    # -------------------------------------------------------------- #

    def nbytes(self) -> int:
        """Bytes pinned by this view (the frozen score shards)."""
        return self._scores.nbytes()

    def __repr__(self) -> str:
        return (
            f"SnapshotView(version={self._version}, "
            f"n={self.num_nodes})"
        )
