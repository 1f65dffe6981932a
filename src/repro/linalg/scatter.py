"""The one scatter-add kernel behind every update-plan apply.

Both apply paths — the dense reference :func:`~repro.incremental.plan.
apply_plan_dense` and the row-sharded
:class:`~repro.executor.score_store.ScoreStore` — write a plan's
union-support block into ``S`` through :func:`scatter_add`, so the house invariant "bit-identical across
execution paths" rests on this single implementation.

The kernel turns ``target[rows × cols] += values`` into one add over a
1-D flat index into the target's memory.  That skips the ``np.ix_``
gather / add / scatter round trip, which was 70–80% of a unit update's
wall time (the GEMM that produces the block is a few percent).  It is
bit-identical to the ``np.ix_`` form because:

* ``rows`` and ``cols`` are duplicate-free (sorted support unions), so
  each entry receives exactly one add per call — the order of the adds
  within a call cannot matter;
* a plan scatters its block and then its transpose as two calls, so an
  entry in ``rows ∩ cols`` still gets both adds, in the same order;
* ``values`` (float64 from the plan's GEMM) are never cast before the
  add: each entry is widened to float64, added, and rounded once into
  the target's dtype, exactly as ``target[ix] += values`` does.
  Casting ``values`` to a float32 target first would round twice.

Same-dtype targets use ``np.add.at``, numpy's fastest path for this.
A float32 target uses the flat ``flat[index] += values`` form instead:
``np.add.at`` loses its fast path when it has to cast, and ran about
10x slower than ``np.ix_`` there.
"""

from __future__ import annotations

import numpy as np


def scatter_add(
    target: np.ndarray, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
) -> None:
    """``target[rows × cols] += values`` in place, one add per entry.

    ``rows``/``cols`` are duplicate-free integer index arrays and
    ``values`` is ``len(rows) × len(cols)``.  A C-contiguous target
    (every shard buffer) takes the flat-index path, with the buffer's
    full width as the row stride.  Any other layout (an F-ordered BLAS
    output, a strided view) falls back to 2-D fancy indexing, which is
    slower but writes through in place: ``reshape(-1)`` of such an array
    may silently return a copy and drop the update.
    """
    if rows.size == 0 or cols.size == 0:
        return
    if not target.flags.c_contiguous:
        target[rows[:, None], cols] += values
        return
    flat = target.reshape(-1)
    index = (rows[:, None] * target.shape[1] + cols).ravel()
    if values.dtype == flat.dtype:
        np.add.at(flat, index, values.ravel())
    else:
        flat[index] += values.ravel()
