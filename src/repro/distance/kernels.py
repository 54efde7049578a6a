"""Selection and bookkeeping helpers shared by every distance consumer.

The distances themselves come from :class:`~repro.distance.DistanceEngine`;
this module holds what sits around them:

* ``stable_smallest(block, count)`` selects from any distance block: each
  row's ``count`` smallest columns, ties kept in column order.
* :class:`DistanceCounter` accumulates the number of distance evaluations an
  algorithm spends, the hardware-independent cost the experiments report.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stable_smallest", "DistanceCounter"]

#: Blocks of at most this many entries are selected from by a whole-row
#: sort: below it the sort costs less than the partition path's extra calls.
SORT_WHOLE = 1024


def stable_smallest(block: np.ndarray, count: int) -> np.ndarray:
    """Columns of each row's ``count`` smallest entries, ascending, the
    earlier column first among equals.

    Equals ``np.argsort(block, axis=1, kind="stable")[:, :count]`` on every
    input, without sorting whole rows: partition for the ``count``-th value,
    then order only the columns at or below it.  A row whose boundary value
    is tied (or NaN) falls back to its full stable sort, and so does a block
    too small for the partition's fixed cost to pay.  The graph walk's seed
    and pool selections and the insert join's neighbour selection use it.
    """
    n_rows, width = block.shape
    if count >= width or block.size <= SORT_WHOLE:
        return block.argsort(axis=1, kind="stable")[:, :count]
    kth = np.partition(block, count - 1, axis=1)[:, count - 1:count]
    below = block <= kth
    tied = below.sum(axis=1) != count
    any_tied = tied.any()
    if any_tied:
        below[tied] = False
    # The untied rows' survivors, as flat positions in column order.
    flat = np.flatnonzero(below).reshape(-1, count)
    order = block.ravel()[flat].argsort(axis=1, kind="stable")
    cols = flat[np.arange(flat.shape[0])[:, None], order] % width
    if not any_tied:
        return cols
    picked = np.empty((n_rows, count), dtype=np.intp)
    picked[~tied] = cols
    picked[tied] = block[tied].argsort(axis=1, kind="stable")[:, :count]
    return picked


class DistanceCounter:
    """Accumulates the number of distance evaluations performed.

    The paper reports speed-ups that come from *fewer sample-to-centroid
    comparisons*; counting them gives a hardware-independent view of the same
    effect, which the scalability benchmarks report alongside wall-clock time.
    """

    def __init__(self) -> None:
        self.count = 0

    def add(self, amount: int) -> None:
        """Record ``amount`` additional distance evaluations."""
        self.count += int(amount)

    def reset(self) -> None:
        """Zero the counter (e.g. between benchmark iterations)."""
        self.count = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DistanceCounter(count={self.count})"
