"""Single-query retrieval scoring and the ablation harness.

Each query is embedded and ranked against the whole gallery by ascending
Euclidean distance.  Gallery samples that share both the query's hidden
identity and its camera are excluded from the ranking (they would be
trivially easy matches); a query with no remaining true match is skipped
and counted.  mAP averages per-query average precision; Rank-k is the
fraction of queries with a true match in the top k.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .affinity import squared_distances
from .data import Dataset
from .errors import ContractError, EvaluationError
from .model import EmbeddingModel, forward_batch
from .ranking import BLOCK_ELEMENTS, hit_aps
from .trainer import TrainConfig, TrainLog

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


ABLATION_AXES = (
    "inter_mode",
    "mining_mode",
    "mask_same_camera",
    "positive_sampling",
    "weighting_mode",
    "lambda_sweep",
    "k_sweep",
)

LAMBDA_SWEEP_VALUES = (0.0, 0.5, 1.0, 2.0, 5.0)
K_SWEEP_VALUES = (2, 4, 6, 8, 10)


@dataclass
class AblationRun:
    seed: int
    map: float
    rank1: float


@dataclass
class AblationRow:
    label: str
    overrides: dict
    runs: list[AblationRun]

    @property
    def median_map(self) -> float:
        return statistics.median(r.map for r in self.runs)

    @property
    def median_rank1(self) -> float:
        return statistics.median(r.rank1 for r in self.runs)


@dataclass
class AblationResult:
    axis: str
    rows: list[AblationRow]
    logs: dict[tuple[str, int], TrainLog]  # (row label, seed) -> per-epoch log

    def table_text(self) -> str:
        width = max(len(r.label) for r in self.rows)
        lines = [f"{'setting'.ljust(width)}  median_mAP  median_rank1  per-seed mAP"]
        for r in self.rows:
            per_seed = " ".join(f"{run.map:.4f}" for run in r.runs)
            lines.append(
                f"{r.label.ljust(width)}  {r.median_map:10.4f}  {r.median_rank1:12.4f}  {per_seed}"
            )
        return "\n".join(lines) + "\n"

    def to_jsonable(self) -> dict:
        return {
            "axis": self.axis,
            "rows": [
                {
                    "label": r.label,
                    "overrides": r.overrides,
                    "median_map": r.median_map,
                    "median_rank1": r.median_rank1,
                    "runs": [
                        {"seed": run.seed, "map": run.map, "rank1": run.rank1} for run in r.runs
                    ],
                }
                for r in self.rows
            ],
        }


def _axis_settings(axis: str, base: TrainConfig) -> list[tuple[str, dict]]:
    if axis == "inter_mode":
        return [
            ("baseline_intra_only", {"lam": 0.0}),
            ("C", {"inter_mode": "C"}),
            ("D", {"inter_mode": "D"}),
        ]
    if axis == "mining_mode":
        # Mining is an intra-loss property; compared with the cross-camera
        # objective switched off so nothing masks the difference.
        return [
            ("hard", {"mining_mode": "hard", "lam": 0.0}),
            ("random", {"mining_mode": "random", "lam": 0.0}),
        ]
    if axis == "mask_same_camera":
        return [
            ("masked", {"mask_same_camera": True}),
            ("unmasked", {"mask_same_camera": False}),
        ]
    if axis == "positive_sampling":
        return [
            ("random", {"positive_sampling": "random"}),
            ("nearest", {"positive_sampling": "nearest"}),
        ]
    if axis == "weighting_mode":
        return [
            ("AW", {"weighting_mode": "AW"}),
            ("W", {"weighting_mode": "W"}),
        ]
    if axis == "lambda_sweep":
        return [(f"lambda={v:g}", {"lam": v}) for v in LAMBDA_SWEEP_VALUES]
    if axis == "k_sweep":
        return [(f"k={v}", {"k": v}) for v in K_SWEEP_VALUES]
    raise ContractError(f"unknown ablation axis {axis!r}; expected one of {ABLATION_AXES}")


def run_ablation(
    dataset: Dataset,
    base_config: TrainConfig,
    axis: str,
    query: Dataset,
    gallery: Dataset,
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5),
) -> AblationResult:
    """Train every setting of one axis on shared seeds and score each run.

    All settings share the same seed list, so each seed gives a paired
    comparison; rows report per-seed and median retrieval quality.
    """
    from .trainer import train  # imported here to avoid a module cycle

    settings = _axis_settings(axis, base_config)
    rows = []
    logs: dict[tuple[str, int], TrainLog] = {}
    for label, overrides in settings:
        runs = []
        for seed in seeds:
            cfg = dc_replace(base_config, seed=seed, **overrides)
            result = train(dataset, cfg, query=query, gallery=gallery)
            scored = evaluate(result.model, query, gallery)
            runs.append(AblationRun(seed=seed, map=scored.map, rank1=scored.cmc[1]))
            logs[(label, seed)] = result.log
        rows.append(AblationRow(label=label, overrides=dict(overrides), runs=runs))
    return AblationResult(axis=axis, rows=rows, logs=logs)
