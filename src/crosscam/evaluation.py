"""Single-query retrieval scoring.

Each query is embedded and ranked against the whole gallery by ascending
Euclidean distance.  Gallery samples that share both the query's hidden
identity and its camera are excluded from the ranking (they would be
trivially easy matches); a query with no remaining true match is skipped
and counted.  mAP averages per-query average precision; Rank-k is the
fraction of queries with a true match in the top k.

Ranks are found without a full-row sort: relevant items come from the
gallery grouped by identity, and only each row's items up to its farthest
relevant item are sorted and binary-searched; items whose distance ties
another item's get their earlier ties counted from the unsorted row.
The distances come in blocks of query rows (squared_distance_blocks),
each ranked and dropped before the next, so no query x gallery matrix
is held.  Non-finite embeddings or distances are refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affinity import squared_distance_blocks
from .data import Dataset
from .errors import ContractError, EvaluationError
from .model import EmbeddingModel, forward_batch
from .ranking import BLOCK_ELEMENTS, hit_aps, identity_pairs

CMC_KS = (1, 5, 10, 20)


@dataclass
class RetrievalResult:
    map: float
    cmc: dict[int, float]  # rank-k accuracy at k in CMC_KS
    n_evaluated: int
    n_skipped: int


def _prefix_counts(ranked: np.ndarray, rows: np.ndarray, t: np.ndarray,
                   op: np.ufunc) -> np.ndarray:
    """Per pair, the number of leading items x of ranked[rows] with op(x, t).

    Rows are sorted ascending (NaN or +inf last), so op = np.less or np.less_equal
    holds on a prefix of each row; one vectorised binary search over all
    pairs, a power of two per step, finds its length.
    """
    n = ranked.shape[1]
    count = np.zeros(rows.size, dtype=np.int64)
    step = 1 << (n.bit_length() - 1) if n else 0
    while step:
        at = count + step
        count += step * ((at <= n) & op(ranked[rows, np.minimum(at, n) - 1], t))
        step >>= 1
    return count


def rank_positions(d2: np.ndarray, q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Place of item g[i] in the stable ascending sort of row q[i] of d2.

    The place is counted: the items of the row below d2[q, g], plus those
    equal to it at a lower column (an item at NaN has place 0, and no item
    is ever below NaN).  Only the items at or below a row's farthest
    non-NaN pair value are sorted, packed in a block padded with +inf, and
    searched; the earlier equal items are counted only for pairs whose
    value ties another item of its row, in blocks of pairs.
    """
    t = d2[q, g]
    far = np.full(d2.shape[0], -np.inf)
    np.fmax.at(far, q, t)
    near = d2 <= far[:, None]
    width = np.count_nonzero(near, axis=1)
    ranked = np.full((d2.shape[0], width.max(initial=0)), np.inf)
    ranked[np.arange(ranked.shape[1]) < width[:, None]] = d2[near]
    ranked.sort(axis=1)
    pos = _prefix_counts(ranked, q, t, np.less)
    tied = np.flatnonzero(_prefix_counts(ranked, q, t, np.less_equal) - pos > 1)
    column = np.arange(d2.shape[1])
    step = max(1, BLOCK_ELEMENTS // d2.shape[1])
    for lo in range(0, tied.size, step):
        p = tied[lo:lo + step]
        pos[p] += np.count_nonzero((d2[q[p]] == t[p, None]) & (column < g[p, None]), axis=1)
    return pos


def evaluate(model: EmbeddingModel, query: Dataset, gallery: Dataset) -> RetrievalResult:
    """Score a model on a query/gallery pair; read-only on all inputs.

    A relevant item's rank is its place in the stable ascending sort of
    the query's non-junk gallery: the items nearer to the query, or as
    near and earlier in gallery file order (rank_positions).  Junk items
    count as infinitely far, which matches the sort because every
    distance is refused unless finite.
    """
    if query.d_in != gallery.d_in:
        raise ContractError(
            f"query d_in {query.d_in} != gallery d_in {gallery.d_in}"
        )
    if len(query) == 0 or len(gallery) == 0:
        raise ContractError("query and gallery must be nonempty")
    if not query.has_full_truth() or not gallery.has_full_truth():
        raise ContractError("retrieval evaluation requires truth identities on both splits")

    Vq = forward_batch(model, query.features)
    Vg = forward_batch(model, gallery.features)
    bad_q, bad_g = (int(np.count_nonzero(~np.isfinite(V).all(axis=1))) for V in (Vq, Vg))
    if bad_q or bad_g:
        raise EvaluationError(
            f"{bad_q} of {len(query)} query and {bad_g} of {len(gallery)} gallery embeddings "
            "are not finite; the model's parameters are non-finite or too large"
        )
    # Each product block of query rows is ranked against the whole gallery
    # with its slice of the pairs (q ascends), and dropped before the next.
    q, g = identity_pairs(query.truth, gallery.truth)
    overflow, ranked = 0, []
    for lo, d2 in squared_distance_blocks(Vq, Vg):
        overflow += int(np.count_nonzero(~np.isfinite(d2)))
        if not overflow:  # after the first overflow, the rest is only counted
            a, b = np.searchsorted(q, (lo, lo + d2.shape[0]))
            qb, gb = q[a:b], g[a:b]
            junk = query.camera_ids[qb] == gallery.camera_ids[gb]
            # Junk is unranked: never before a relevant item at a finite distance.
            d2[qb[junk] - lo, gb[junk]] = np.inf
            qb, gb = qb[~junk], gb[~junk]
            ranked.append((qb, rank_positions(d2, qb - lo, gb)))
        del d2
    if overflow:
        raise EvaluationError(f"{overflow} query-gallery squared distances overflow")
    q = np.concatenate([qb for qb, _ in ranked])
    pos = np.concatenate([p for _, p in ranked])
    order = np.lexsort((pos, q))
    q, pos = q[order], pos[order]
    hit_rows, aps = hit_aps(q, pos)
    if not hit_rows.size:
        raise EvaluationError("every query was skipped: no query has an eligible true match")
    first_hit = pos[np.searchsorted(q, hit_rows)]
    n = hit_rows.size
    return RetrievalResult(
        map=float(np.mean(aps)),
        cmc={k: int(np.count_nonzero(first_hit < k)) / n for k in CMC_KS},
        n_evaluated=n,
        n_skipped=len(query) - n,
    )

