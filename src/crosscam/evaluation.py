"""Single-query retrieval scoring.

Each query is embedded and ranked against the whole gallery by ascending
Euclidean distance.  Gallery samples that share both the query's hidden
identity and its camera are excluded from the ranking (they would be
trivially easy matches); a query with no remaining true match is skipped
and counted.  mAP averages per-query average precision; Rank-k is the
fraction of queries with a true match in the top k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affinity import squared_distances
from .data import Dataset
from .errors import ContractError, EvaluationError
from .model import EmbeddingModel, forward_batch
from .ranking import BLOCK_ELEMENTS, hit_aps

CMC_KS = (1, 5, 10, 20)


@dataclass
class RetrievalResult:
    map: float
    cmc: dict[int, float]  # rank-k accuracy at k in CMC_KS
    n_evaluated: int
    n_skipped: int


def average_precision(relevant_in_rank_order: np.ndarray) -> float:
    """AP of one ranked list: mean of precision at each relevant position."""
    hits = np.flatnonzero(relevant_in_rank_order)
    if hits.size == 0:
        raise ContractError("average precision undefined without a relevant item")
    return float(hit_aps(np.zeros_like(hits), hits)[1][0])


def evaluate(model: EmbeddingModel, query: Dataset, gallery: Dataset) -> RetrievalResult:
    """Score a model on a query/gallery pair; read-only on all inputs.

    A relevant item's rank is its place in the stable ascending sort of
    the query's non-junk gallery: the items nearer to the query, or as
    near and earlier in gallery file order.  It is found by counting
    those items, in blocks of pairs, instead of sorting each row; junk
    items count as infinitely far, which matches the sort as long as the
    embedding distances are finite.
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
    d2 = squared_distances(Vq, Vg)

    same_person = query.truth[:, None] == gallery.truth
    junk = same_person & (query.camera_ids[:, None] == gallery.camera_ids)
    q, g = np.nonzero(same_person & ~junk)
    d2[junk] = np.inf  # unranked: never before a relevant item at a finite distance
    pos = np.empty(q.size, dtype=np.int64)
    column = np.arange(len(gallery))
    step = max(1, BLOCK_ELEMENTS // len(gallery))
    for lo in range(0, q.size, step):
        qb, gb = q[lo:lo + step], g[lo:lo + step]
        row = d2[qb]
        t = row[np.arange(qb.size), gb][:, None]
        pos[lo:lo + step] = np.count_nonzero(row < t, axis=1)
        tied = row == t
        if np.count_nonzero(tied) > qb.size:  # beyond each item itself: count those earlier
            pos[lo:lo + step] += np.count_nonzero(tied & (column < gb[:, None]), axis=1)
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

