"""Single-source and single-pair SimRank queries.

Full all-pairs computation is overkill when only one node's similarity
profile (or one pair) is needed.  The matrix-form series (Eq. (34) of
the paper)

    [S]_{a,b} = (1−C) · Σ_k C^k · [Q^k·(Qᵀ)^k]_{a,b}
              = (1−C) · Σ_k C^k · ⟨(Qᵀ)^k e_a, (Qᵀ)^k e_b⟩

needs only the iterated vectors ``(Qᵀ)^k e_a`` — the weighted symmetric
in-link path interpretation of Corollary 1.  A single-source query is
``K`` sparse mat-vecs plus ``K`` dense mat-vecs: ``O(K·(m + n·d))``
versus ``O(K·n²·d)`` for the full matrix.

These are the library/paper API and the independent oracle for the
serving layer, whose views answer from the materialized ``S`` instead
(see :mod:`repro.serving.snapshot`).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..config import SimRankConfig
from ..exceptions import NodeNotFoundError
from .base import default_config, resolve_q


def _resolve_operator(graph_or_q):
    """Accept a graph, a scipy ``Q``, or a transition store.

    Objects exposing ``rmatvec`` (a
    :class:`~repro.linalg.qstore.TransitionStore`) are used directly —
    their transpose products are served from the CSC slabs with no
    conversion at all; anything else goes through :func:`resolve_q`.
    """
    if hasattr(graph_or_q, "rmatvec") and hasattr(graph_or_q, "shape"):
        return graph_or_q
    return resolve_q(graph_or_q)


def _walk_vectors(q_matrix, node: int, iterations: int) -> List[np.ndarray]:
    """The stack ``[(Qᵀ)^k e_node]`` for k = 0..iterations.

    The transpose products never build a transposed matrix: a store
    serves ``Qᵀ·x`` straight from its column layout, and for a
    scipy CSR input ``q_matrix.T`` is an O(1) CSC view whose mat-vec is
    native — the old implementation paid an O(nnz) ``.tocsr()``
    conversion on *every* query.
    """
    n = q_matrix.shape[0]
    vector = np.zeros(n)
    vector[node] = 1.0
    stack = [vector]
    if hasattr(q_matrix, "rmatvec"):
        for _ in range(iterations):
            vector = q_matrix.rmatvec(vector)
            stack.append(vector)
        return stack
    qt = q_matrix.T
    for _ in range(iterations):
        vector = qt @ vector
        stack.append(vector)
    return stack


def single_source_simrank(
    graph_or_q, node: int, config: SimRankConfig = None
) -> np.ndarray:
    """SimRank scores of ``node`` against every other node.

    Returns the length-``n`` vector ``[S]_{node,:}`` of the matrix-form
    truncated series (same convention and truncation as
    :func:`repro.simrank.matrix.matrix_simrank`).
    """
    cfg = default_config(config)
    q_matrix = _resolve_operator(graph_or_q)
    n = q_matrix.shape[0]
    if not (0 <= node < n):
        raise NodeNotFoundError(node)
    walk_stack = _walk_vectors(q_matrix, node, cfg.iterations)

    # scores = (1-C)·Σ_k C^k·Q^k·t_k with t_k = (Qᵀ)^k·e_node.  Horner
    # from the tail: R_K = t_K; R_k = t_k + C·Q·R_{k+1}; answer (1-C)·R_0.
    # Total cost: 2K sparse mat-vecs.
    result = walk_stack[-1].copy()
    for t_vector in reversed(walk_stack[:-1]):
        result = t_vector + cfg.damping * (q_matrix @ result)
    return (1.0 - cfg.damping) * result


def single_pair_simrank(
    graph_or_q, node_a: int, node_b: int, config: SimRankConfig = None
) -> float:
    """SimRank score of one node pair via the inner-product series.

    ``[S]_{a,b} = (1−C)·Σ_k C^k·⟨(Qᵀ)^k e_a, (Qᵀ)^k e_b⟩`` truncated at
    ``K = config.iterations``; cost ``O(K·m)`` with two walk stacks.
    """
    cfg = default_config(config)
    q_matrix = _resolve_operator(graph_or_q)
    n = q_matrix.shape[0]
    for node in (node_a, node_b):
        if not (0 <= node < n):
            raise NodeNotFoundError(node)
    stack_a = _walk_vectors(q_matrix, node_a, cfg.iterations)
    stack_b = (
        stack_a
        if node_b == node_a
        else _walk_vectors(q_matrix, node_b, cfg.iterations)
    )
    score = 0.0
    weight = 1.0
    for vec_a, vec_b in zip(stack_a, stack_b):
        score += weight * float(vec_a @ vec_b)
        weight *= cfg.damping
    return (1.0 - cfg.damping) * score


def top_k_similar_nodes(
    graph_or_q, node: int, k: int, config: SimRankConfig = None
) -> List[tuple]:
    """The ``k`` nodes most similar to ``node`` (excluding itself).

    Returns ``[(other, score), ...]`` sorted by descending score with
    deterministic index tie-breaks.
    """
    scores = single_source_simrank(graph_or_q, node, config)
    order = np.lexsort((np.arange(scores.size), -scores))
    result = []
    for candidate in order:
        if int(candidate) == node:
            continue
        result.append((int(candidate), float(scores[candidate])))
        if len(result) == k:
            break
    return result
