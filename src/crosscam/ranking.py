"""Average precision from the rank positions of relevant items.

Retrieval scoring and affinity quality both rank a row of candidates and
average the precision at each relevant position.  They find the
positions by counting, and this module turns positions into APs.
"""

from __future__ import annotations

import numpy as np

# Pairwise temporaries are processed in blocks of about this many
# elements (512 KB per float64 array) so that they leave peak RSS alone.
BLOCK_ELEMENTS = 1 << 16


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

