"""Average precision from the rank positions of relevant items.

Retrieval scoring and affinity quality both rank a row of candidates and
average the precision at each relevant position.  Both find their
relevant pairs by grouping identities (identity_pairs) and the
positions by counting, and this module turns positions into APs.
"""

from __future__ import annotations

import numpy as np

# Pairwise temporaries are processed in blocks of about this many
# elements (128 KB per float64 array), so that the few a block holds at
# once stay a small part of any quadratic array they come from.
BLOCK_ELEMENTS = 1 << 14

# evaluation ranks each product block in row sub-blocks of at most this
# many elements (2 MB per float64 array), so the near values it sorts and
# its masks stay a quarter of the block they come from.
RANK_ELEMENTS = 1 << 18


def hit_aps(rows: np.ndarray, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows with a hit, AP of each) from the 0-based positions of relevant items.

    rows must be nondecreasing and positions increasing within a row.  The
    i-th hit of a row has precision (i + 1) / (position + 1); each row's
    precisions are averaged as one contiguous array, so every AP has the
    bits of mean(arange(1, h + 1) / (hits + 1)) over that row alone.
    """
    row_ids, start, count = np.unique(rows, return_index=True, return_counts=True)
    rank = np.arange(rows.size) - np.repeat(start, count)
    precision = (rank + 1) / (positions + 1)
    aps = np.empty(row_ids.size)
    for h in np.unique(count):  # a block of equal-length rows, never zero padding
        same = count == h
        aps[same] = precision[start[same, None] + np.arange(h)].mean(axis=1)
    return row_ids, aps


def identity_pairs(query_truth: np.ndarray, gallery_truth: np.ndarray) -> tuple[np.ndarray, ...]:
    """(query row, gallery column) of each pair with one identity, in np.nonzero order."""
    by_id = np.argsort(gallery_truth, kind="stable")
    lo, hi = (np.searchsorted(gallery_truth[by_id], query_truth, side=s) for s in ("left", "right"))
    q = np.repeat(np.arange(query_truth.size), hi - lo)
    return q, by_id[np.arange(q.size) - np.repeat(np.cumsum(hi - lo) - hi, hi - lo)]
