"""Objective functions and their hand-derived gradients.

Three losses live here: the within-camera triplet loss with hardest
positive/negative mining, cross-entropy against a soft-label
distribution, and the weighted triplet loss that pulls an anchor toward
several soft positives at once.  All distances are raw Euclidean; no
embedding normalization happens anywhere.

Gradient conventions: the hinge subgradient at exactly zero is zero, and
the gradient of a distance at coinciding points is the zero vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .affinity import (
    AffinityMatrix, SoftLabelRow, SoftLabelTable, soft_label_table, squared_distances,
)
from .data import Dataset
from .errors import ContractError, SelectionError

LOG_FLOOR = 1e-12
# Anchors per block of hardest-negative distances: (16, n, d) temporaries
# beat both one anchor person at a time and one (A, n, d) tensor.
NEGATIVE_BLOCK = 16


@dataclass
class TripletBatch:
    """Single-camera block of embeddings: n_persons x n_images x d."""

    embeddings: np.ndarray  # (n_persons, n_images, d)
    classes: np.ndarray  # (n_persons,) class index per row
    camera_id: int

    def __post_init__(self) -> None:
        if self.embeddings.ndim != 3:
            raise ContractError(f"embeddings must be 3-d, got shape {self.embeddings.shape}")
        if self.classes.shape != (self.embeddings.shape[0],):
            raise ContractError("one class index per person row is required")

    @property
    def n_persons(self) -> int:
        return self.embeddings.shape[0]

    @property
    def n_images(self) -> int:
        return self.embeddings.shape[1]

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """(n_persons * n_images, d) embeddings and per-sample class labels."""
        n_p, n_k, d = self.embeddings.shape
        return self.embeddings.reshape(n_p * n_k, d), np.repeat(self.classes, n_k)


@dataclass
class LossValue:
    """A scalar loss, gradients for each input group, and skip/clamp counters."""

    loss: float
    grads: dict[str, np.ndarray]
    counters: dict[str, int] = field(default_factory=dict)


def _unit_rows(diff: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Row-wise diff/dist with zero rows where dist is zero."""
    out = np.zeros_like(diff)
    np.divide(diff, dist[:, None], out=out, where=dist[:, None] > 0.0)
    return out


def _batch_triplet(
    batch: TripletBatch,
    margin: float,
    pos_pick: np.ndarray,
    neg_pick: np.ndarray,
    D: np.ndarray,
) -> LossValue:
    """Shared hinge accumulation once positives/negatives are chosen per anchor."""
    E, _ = batch.flat()
    n = E.shape[0]
    idx = np.arange(n)
    pos_d = D[idx, pos_pick]
    neg_d = D[idx, neg_pick]
    hinge = margin + pos_d - neg_d
    active = ~(hinge <= 0.0)  # a NaN hinge counts as active, so the loss shows it
    grad = np.zeros_like(E)
    if active.any():
        a_idx = idx[active]
        p_idx = pos_pick[active]
        n_idx = neg_pick[active]
        u_p = _unit_rows(E[a_idx] - E[p_idx], pos_d[active])
        u_n = _unit_rows(E[a_idx] - E[n_idx], neg_d[active])
        np.add.at(grad, a_idx, u_p - u_n)
        np.add.at(grad, p_idx, -u_p)
        np.add.at(grad, n_idx, u_n)
    return LossValue(
        loss=float(hinge[active].sum()) if active.any() else 0.0,
        grads={"embeddings": grad.reshape(batch.embeddings.shape)},
        counters={"active_triplets": int(active.sum()), "anchors": n},
    )


def _validate_triplet_batch(batch: TripletBatch) -> tuple[np.ndarray, np.ndarray]:
    if batch.n_persons < 2 or batch.n_images < 2:
        raise ContractError(
            f"triplet batch needs >= 2 persons and >= 2 images each, "
            f"got {batch.n_persons} x {batch.n_images}"
        )
    E, labels = batch.flat()
    if np.unique(labels).size < 2:
        raise ContractError("triplet batch contains a single distinct person")
    return E, labels


def intra_triplet_loss(batch: TripletBatch, margin: float) -> LossValue:
    """Sum over anchors of [margin + hardest_pos - hardest_neg]_+.

    Every embedding in the batch is an anchor.  The hardest positive is
    the farthest same-person embedding (the anchor itself included, which
    can never win unless all positives coincide); the hardest negative is
    the nearest different-person embedding.  Index ties resolve to the
    first occurrence in batch order.
    """
    E, labels = _validate_triplet_batch(batch)
    D = np.sqrt(squared_distances(E, E))
    same = labels[:, None] == labels[None, :]
    pos_d = np.where(same, D, -np.inf)
    neg_d = np.where(same, np.inf, D)
    pos_pick = np.argmax(pos_d, axis=1)
    neg_pick = np.argmin(neg_d, axis=1)
    return _batch_triplet(batch, margin, pos_pick, neg_pick, D)


def random_triplet_loss(batch: TripletBatch, margin: float, rng: np.random.Generator) -> LossValue:
    """Triplet hinge with uniformly random positive and negative per anchor.

    The positive is drawn among the anchor's other same-person
    embeddings, the negative among all different-person embeddings.
    Exists as the mining-strategy control; same gradient structure as the
    hard-mined loss.
    """
    E, labels = _validate_triplet_batch(batch)
    D = np.sqrt(squared_distances(E, E))
    n = E.shape[0]
    pos_pick = np.zeros(n, dtype=np.int64)
    neg_pick = np.zeros(n, dtype=np.int64)
    for a in range(n):
        pos = np.flatnonzero((labels == labels[a]))
        pos = pos[pos != a]
        neg = np.flatnonzero(labels != labels[a])
        pos_pick[a] = pos[rng.integers(pos.size)]
        neg_pick[a] = neg[rng.integers(neg.size)]
    return _batch_triplet(batch, margin, pos_pick, neg_pick, D)


def softmax_probs(scores: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, computed with max subtraction."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ContractError("softmax requires finite scores")
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def weighted_cross_entropy(probs: np.ndarray, labels: SoftLabelTable | SoftLabelRow) -> LossValue:
    """Sum over samples of -sum_c w(c) log p(c), with score gradients.

    probs is (B, C) with one table row per sample, or (C,) with one row
    (a SoftLabelRow counts as a one-row table).  As weights sum to one,
    the score gradient is the softmax identity probs - w.  Probabilities
    are clamped at LOG_FLOOR inside the log only; each clamp is counted.
    The masked affinity gives a row's own class zero weight, so no mass
    ever lands on the sample's true class; own_class_zero_weight counts
    how often.  Per-sample losses are summed in sample order.
    """
    if isinstance(labels, SoftLabelRow):
        labels = soft_label_table([labels])
    if labels.degenerate.any():
        raise ContractError("weighted cross-entropy is undefined for a degenerate row")
    probs = np.asarray(probs, dtype=np.float64)
    P = np.atleast_2d(probs)
    if P.shape != (labels.count.size, labels.n_classes):
        raise ContractError(f"probs shape {probs.shape} != {labels.count.size} rows of {labels.n_classes}")
    real = np.arange(labels.index.shape[1]) < labels.count[:, None]
    p = np.take_along_axis(P, labels.index, axis=1)
    terms = labels.weights * np.log(np.maximum(p, LOG_FLOOR))
    sums = np.zeros(P.shape[0])
    for m in np.unique(labels.count):  # padding never enters a row's sum and its order
        sums[labels.count == m] = terms[labels.count == m, :m].sum(axis=1)
    loss = 0.0
    for s in sums.tolist():
        loss -= s
    grad = P.copy()
    r, c = np.nonzero(real)
    grad[r, labels.index[r, c]] -= labels.weights[r, c]
    own = ((labels.index == labels.class_index[:, None]) & real).any(axis=1)
    return LossValue(
        loss=loss,
        grads={"scores": grad.reshape(probs.shape)},
        counters={
            "clamped_logs": int(np.count_nonzero((p < LOG_FLOOR) & real)),
            "own_class_zero_weight": int(np.count_nonzero(~own)),
        },
    )


def select_positives(
    anchor_classes: np.ndarray,
    aff: AffinityMatrix,
    dataset: Dataset,
    n_k: int,
    rng: np.random.Generator,
    weighting_mode: str = "AW",
    positive_sampling: str = "random",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Choose n_k cross-camera positive samples and their weights per anchor.

    Persons come from the nonzero entries of each anchor's affinity row:
    either a uniform draw without replacement ("random", falling back to
    replacement when fewer than n_k candidates exist) or the top
    affinities ("nearest", padded cyclically).  One uniformly random
    sample of each drawn person is used.  Weights are 1/n_k in mode
    "AW", or the drawn affinities renormalized to sum 1 in mode "W".
    Anchors draw in order, persons first; only the draws run per anchor.

    anchor_classes is (A,).  Returns (A, n_k) dataset sample indices,
    (A, n_k) weights and an (A,) mask, False where the anchor's row is
    degenerate: such an anchor draws nothing and gets zero picks.
    """
    if n_k < 1:
        raise ContractError("n_k must be >= 1")
    if weighting_mode not in ("AW", "W"):
        raise ContractError(f"unknown weighting_mode {weighting_mode!r}")
    if positive_sampling not in ("random", "nearest"):
        raise ContractError(f"unknown positive_sampling {positive_sampling!r}")
    if aff.n_classes != dataset.index.total:
        raise ContractError(f"affinity over {aff.n_classes} classes, dataset has {dataset.index.total}")
    anchor_classes = np.asarray(anchor_classes, dtype=np.int64)
    cand = aff.candidates.take(anchor_classes)
    valid = cand.count > 0
    drawn = np.zeros((anchor_classes.size, n_k), dtype=np.int64)
    if positive_sampling == "nearest":
        real = np.arange(cand.index.shape[1]) < cand.count[:, None]
        order = np.argsort(np.where(real, -cand.weights, np.inf), axis=1, kind="stable")
        cyclic = np.take_along_axis(order, np.arange(n_k) % np.maximum(cand.count, 1)[:, None], 1)
        drawn = np.take_along_axis(cand.index, cyclic, axis=1)
    members, starts = dataset.class_members()
    sizes = np.diff(starts)
    slot = np.zeros_like(drawn)
    for a in np.flatnonzero(valid).tolist():
        if positive_sampling == "random":
            m = int(cand.count[a])
            drawn[a] = rng.choice(cand.index[a, :m], size=n_k, replace=m < n_k)
        slot[a] = [rng.integers(size) for size in sizes[drawn[a]].tolist()]
    weights = np.full(drawn.shape, 1.0 / n_k)
    if weighting_mode == "W":
        weights = aff.A[anchor_classes[:, None], drawn]
        weights[valid] /= weights[valid].sum(axis=1, keepdims=True)
    weights[~valid] = 0.0
    return np.where(valid[:, None], members[starts[drawn] + slot], 0), weights, valid


def select_hardest_negative(
    anchor_embedding: np.ndarray,
    batch_embeddings: np.ndarray,
    batch_classes: np.ndarray,
    anchor_class: int | np.ndarray,
) -> int | np.ndarray:
    """Index of the nearest embedding whose person differs from the anchor's.

    anchor_embedding (A, d) with an (A,) anchor_class gives an (A,)
    result; (d,) with a scalar class gives an int.  The batch is expected
    to be single-camera, so this is the hardest same-camera negative.
    Distances are sqrt(sum((E[j] - a)**2)) over the last axis, for
    NEGATIVE_BLOCK anchors at a time; the anchor's own person is masked
    with +inf and ties resolve to the lowest index.  Raises
    SelectionError when an anchor has no negative.
    """
    batch_embeddings = np.asarray(batch_embeddings, dtype=np.float64)
    batch_classes = np.asarray(batch_classes)
    anchors, classes = np.atleast_2d(anchor_embedding), np.atleast_1d(anchor_class)
    if batch_embeddings.ndim != 2 or batch_classes.shape != (batch_embeddings.shape[0],):
        raise ContractError("batch embeddings and classes are inconsistent")
    if classes.shape != anchors.shape[:1]:
        raise ContractError("one anchor class per anchor embedding is required")
    same = classes[:, None] == batch_classes
    lonely = same.all(axis=1)
    if lonely.any():
        raise SelectionError(f"no same-camera negative available for class {classes[lonely].min()}")
    picks = np.zeros(classes.size, dtype=np.int64)
    for lo in range(0, classes.size, NEGATIVE_BLOCK):
        diffs = batch_embeddings[None, :, :] - anchors[lo:lo + NEGATIVE_BLOCK, None, :]
        dist = np.sqrt(np.sum(diffs * diffs, axis=2))
        dist[same[lo:lo + NEGATIVE_BLOCK]] = np.inf
        picks[lo:lo + NEGATIVE_BLOCK] = np.argmin(dist, axis=1)
    return int(picks[0]) if np.ndim(anchor_embedding) == 1 else picks


def weighted_triplet_loss(
    anchor: np.ndarray,
    positives: np.ndarray,
    weights: np.ndarray,
    negative: np.ndarray,
    margin: float,
) -> LossValue:
    """Sum over anchors of [sum_i w_i ||a - p_i|| - ||a - n|| + margin]_+.

    anchor (A, d), positives (A, n_k, d), weights (A, n_k), negative
    (A, d); without the leading axis, one anchor.  Each anchor's weights
    must sum to 1 (tolerance 1e-9).  Gradients, in the input shapes,
    cover the anchor, every positive (scaled by its weight) and the
    negative; all are zero where the hinge is inactive.  Per-anchor
    losses are summed in anchor order; counters["active"] counts hinges.
    """
    single = np.ndim(anchor) == 1
    anchor, positives, weights, negative = (
        np.asarray(x, dtype=np.float64)[None] if single else np.asarray(x, dtype=np.float64)
        for x in (anchor, positives, weights, negative)
    )
    if anchor.ndim != 2 or positives.ndim != 3 or positives.shape[::2] != anchor.shape:
        raise ContractError(f"positives shape {positives.shape} incompatible with anchor")
    if weights.shape != positives.shape[:2]:
        raise ContractError("one weight per positive is required")
    if np.any(np.abs(weights.sum(axis=1) - 1.0) > 1e-9):
        raise ContractError(f"positive weights must sum to 1, got {weights.sum(axis=1)!r}")
    if negative.shape != anchor.shape:
        raise ContractError("negative embedding has wrong shape")

    to_pos = anchor[:, None, :] - positives
    pos_d = np.sqrt(np.sum(to_pos * to_pos, axis=2))
    to_neg = anchor - negative
    neg_d = np.sqrt([row.dot(row) for row in to_neg])  # a dot per row, as 1-d np.linalg.norm
    hinge = np.sum(weights * pos_d, axis=1) - neg_d + margin
    active = hinge > 0.0
    grads = {name: np.zeros_like(x) for name, x in
             (("anchor", anchor), ("positives", positives), ("negative", negative))}
    if active.any():
        w = weights[active]
        u_n = _unit_rows(to_neg[active], neg_d[active])
        u_p = _unit_rows(to_pos[active].reshape(-1, anchor.shape[1]), pos_d[active].ravel())
        u_p = u_p.reshape(w.shape + (-1,))
        g = np.zeros_like(u_n)
        for i in range(w.shape[1]):
            g += w[:, i, None] * u_p[:, i]
        grads["anchor"][active] = g - u_n
        grads["positives"][active] = -w[:, :, None] * u_p
        grads["negative"][active] = u_n
    loss = 0.0
    for h in hinge.tolist():
        loss += max(h, 0.0)
    return LossValue(
        loss=loss,
        grads={name: g[0] for name, g in grads.items()} if single else grads,
        counters={"active": int(np.count_nonzero(active))},
    )
