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
    AffinityMatrix, SoftLabelTable, squared_distances, squared_distances_and_norms,
)
from .data import Dataset
from .draws import choice_rows
from .errors import ContractError, SelectionError

LOG_FLOOR = 1e-12
# Safety factor on the hardest-negative screen's rounding bound (>= 4).
SCREEN_SAFETY = 4.0


@dataclass
class TripletBatch:
    """Single-camera block of embeddings: n_persons x n_images x d."""

    embeddings: np.ndarray  # (n_persons, n_images, d)
    classes: np.ndarray  # (n_persons,) class index per row

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
    """Row-wise diff/dist with zero rows where dist is not above zero."""
    with np.errstate(divide="ignore", invalid="ignore"):  # those rows are zeroed
        out = diff / dist[:, None]
    out[~(dist > 0.0)] = 0.0
    return out


def _row_lengths(x: np.ndarray) -> np.ndarray:
    """Each row's Euclidean length, the square root of one batched dot of
    the row with itself: the bits of a 1-d row.dot(row) (np.linalg.norm of
    a vector), without a Python call per row."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None]).reshape(-1))


def add_rows(out: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """np.add.at(out, rows, values) on a C-contiguous (n, d) out, as one 1-D
    add.at over its flat view (numpy's fast path); each element still
    gains its terms in the order of rows, so the bits are the same."""
    if not out.flags.c_contiguous:  # reshape would scatter into a copy
        raise ContractError("add_rows needs a C-contiguous output array")
    cells = np.arange(out.size).reshape(out.shape)  # each element's flat index
    np.add.at(out.reshape(-1), cells.take(rows, axis=0).reshape(-1), values.reshape(-1))


def _triplet_terms(
    batch: TripletBatch,
    E: np.ndarray,
    margin: float,
    pos_pick: np.ndarray,
    neg_pick: np.ndarray,
    pos_d: np.ndarray,
    neg_d: np.ndarray,
) -> LossValue:
    """Hinge sum and gradient of one triplet per anchor row of the flat
    batch E: positive pos_pick at distance pos_d, negative neg_pick at
    neg_d.  The unit vectors of both ends come from one division, and the
    terms go through one scatter, the anchors' first, then the
    positives', then the negatives', as three scatters in that order
    would add them."""
    hinge = margin + pos_d - neg_d
    a_idx = np.flatnonzero(~(hinge <= 0.0))  # a NaN hinge counts as active, so the loss shows it
    grad = np.zeros(E.shape, E.dtype)  # C-contiguous for add_rows, whatever E's layout
    if a_idx.size:
        ends = np.concatenate([pos_pick[a_idx], neg_pick[a_idx]])
        diffs = (E[a_idx] - E[ends].reshape(2, a_idx.size, -1)).reshape(ends.size, -1)
        u = _unit_rows(diffs, np.concatenate([pos_d[a_idx], neg_d[a_idx]]))
        u_p, u_n = u[:a_idx.size], u[a_idx.size:]
        add_rows(grad, np.concatenate([a_idx, ends]), np.concatenate([u_p - u_n, -u_p, u_n]))
    return LossValue(
        loss=float(hinge[a_idx].sum()),
        grads={"embeddings": grad.reshape(batch.embeddings.shape)},
        counters={"active_triplets": a_idx.size, "anchors": E.shape[0]},
    )


def _validate_triplet_batch(batch: TripletBatch) -> tuple[np.ndarray, np.ndarray]:
    if batch.n_persons < 2 or batch.n_images < 2:
        raise ContractError(
            f"triplet batch needs >= 2 persons and >= 2 images each, "
            f"got {batch.n_persons} x {batch.n_images}"
        )
    if not (batch.classes != batch.classes[0]).any():
        raise ContractError("triplet batch contains a single distinct person")
    return batch.flat()


def intra_triplet_loss(batch: TripletBatch, margin: float) -> LossValue:
    """Sum over anchors of [margin + hardest_pos - hardest_neg]_+.

    Every embedding in the batch is an anchor.  The hardest positive is
    the farthest same-person embedding (the anchor itself included, which
    can never win unless all positives coincide); the hardest negative is
    the nearest different-person embedding.  Index ties resolve to the
    first occurrence in batch order.

    One (n, n) distance array is made and its square root taken in
    place; the negatives are picked from one masked copy, the positives
    from the array itself once the other persons' entries are set to
    -inf.  Each negative's distance is read before that: when every
    other person is at +inf, the argmin can land on a same-person entry.
    """
    E, labels = _validate_triplet_batch(batch)
    D = squared_distances(E, E)
    np.sqrt(D, out=D)
    other = labels[:, None] != labels
    neg_pick = np.argmin(np.where(other, D, np.inf), axis=1)
    rows = np.arange(E.shape[0])
    neg_d = D[rows, neg_pick]
    np.putmask(D, other, -np.inf)  # the anchor's own entry (>= 0 or NaN) always beats -inf
    pos_pick = np.argmax(D, axis=1)
    return _triplet_terms(batch, E, margin, pos_pick, neg_pick, D[rows, pos_pick], neg_d)


def random_triplet_loss(batch: TripletBatch, margin: float, rng: np.random.Generator,
                        drawn: np.ndarray | None = None) -> LossValue:
    """Triplet hinge with uniformly random positive and negative per anchor.

    The positive is drawn among the anchor's other same-person
    embeddings, the negative among all different-person embeddings.
    Exists as the mining-strategy control; same gradient structure as the
    hard-mined loss.  drawn, when given, holds the (anchors, 2) draws
    (of an epoch plan) in place of rng's.
    """
    E, labels = _validate_triplet_batch(batch)
    D = squared_distances(E, E)
    np.sqrt(D, out=D)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    other = labels[:, None] != labels[None, :]
    # One draw per anchor among its other same-person indices, then one
    # among the different-person ones, interleaved in anchor order; the
    # k-th (0-based) True of a row is where its running count passes k.
    k = drawn if drawn is not None else rng.integers(
        np.stack([same.sum(axis=1), other.sum(axis=1)], axis=1))
    pos_pick = np.argmax(np.cumsum(same, axis=1) > k[:, :1], axis=1)
    neg_pick = np.argmax(np.cumsum(other, axis=1) > k[:, 1:], axis=1)
    rows = np.arange(E.shape[0])
    return _triplet_terms(batch, E, margin, pos_pick, neg_pick, D[rows, pos_pick], D[rows, neg_pick])


def softmax_probs(scores: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, computed with max subtraction.

    Only the result is allocated: the shifted scores, exponentiated and
    divided by their sums in place.  Non-finite scores are refused from
    the row maxima (a NaN or +inf shows there) and the minimum (a -inf);
    scores is left untouched.
    """
    scores = np.asarray(scores, dtype=np.float64)
    top = scores.max(axis=-1, keepdims=True)
    if not (np.isfinite(top).all() and scores.min(initial=np.inf) > -np.inf):
        raise ContractError("softmax requires finite scores")
    probs = scores - top
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def weighted_cross_entropy(probs: np.ndarray, labels: SoftLabelTable) -> LossValue:
    """Sum over samples of -sum_c w(c) log p(c), with score gradients.

    probs is (B, C) with one table row per sample.  As weights sum to
    one, the score gradient is the softmax identity probs - w, returned as
    a fresh (B, C) array (probs is not modified) that the caller may scale
    in place.  A degenerate row (no weights) adds no loss term and gets a
    zero gradient row, so a batch with such rows gives the bits of its
    other rows alone.  Probabilities
    are clamped at LOG_FLOOR inside the log only; each clamp is counted.
    The masked affinity gives a row's own class zero weight, so no mass
    ever lands on the sample's true class; own_class_zero_weight counts
    how often among the rows that are not degenerate.  Per-sample losses
    are summed in sample order.
    """
    P = np.asarray(probs, dtype=np.float64)
    if P.shape != (labels.count.size, labels.n_classes):
        raise ContractError(f"probs shape {P.shape} != {labels.count.size} rows of {labels.n_classes}")
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
    grad[labels.degenerate] = 0.0  # its sum above is 0.0, which leaves the loss as it was
    r, c = np.nonzero(real)
    grad[r, labels.index[r, c]] -= labels.weights[r, c]
    own = ((labels.index == labels.class_index[:, None]) & real).any(axis=1)
    return LossValue(
        loss=loss,
        grads={"scores": grad},
        counters={
            "clamped_logs": int(np.count_nonzero((p < LOG_FLOOR) & real)),
            "own_class_zero_weight": int(np.count_nonzero(~(own | labels.degenerate))),
        },
    )


def nearest_positions(table: SoftLabelTable, classes: np.ndarray, n_k: int) -> np.ndarray:
    """(len(classes), n_k) places in each class's candidate row of its n_k
    top affinities, in descending order (ties to the lower place), padded
    cyclically; every class must have a candidate."""
    pops = table.count[classes]
    real = np.arange(table.index.shape[1]) < pops[:, None]
    order = np.argsort(np.where(real, -table.weights[classes], np.inf), axis=1, kind="stable")
    return np.take_along_axis(order, np.arange(n_k) % pops[:, None], axis=1)


def draw_positives(
    drawing: np.ndarray, table: SoftLabelTable, dataset: Dataset, n_k: int,
    rng: np.random.Generator, positive_sampling: str,
) -> tuple[np.ndarray, np.ndarray]:
    """(at, slot): the draws of select_positives for the anchor classes
    drawing, none of them degenerate, anchor after anchor: each anchor's
    n_k places in its candidate row ("random": a choice without
    replacement, with replacement when fewer than n_k candidates exist,
    through draws.choice_rows; "nearest": nearest_positions, no draw),
    and then, per place, a uniform slot among that person's samples."""
    index, pops = table.index[drawing], table.count[drawing]
    starts = dataset.class_members()[1]
    if positive_sampling == "random":
        def sample_counts(rows, at):
            person = index[rows[:, None], at]
            return starts[person + 1] - starts[person]
        return choice_rows(rng, pops, n_k, then=sample_counts)
    at = nearest_positions(table, drawing, n_k)
    drawn = np.take_along_axis(index, at, axis=1)
    return at, rng.integers(starts[drawn + 1] - starts[drawn])


def select_positives(
    anchor_classes: np.ndarray,
    aff: AffinityMatrix,
    dataset: Dataset,
    n_k: int,
    rng: np.random.Generator,
    weighting_mode: str = "AW",
    positive_sampling: str = "random",
    drawn: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Choose n_k cross-camera positive samples and their weights per anchor.

    Persons come from the nonzero entries of each anchor's affinity row:
    either a uniform draw without replacement ("random", falling back to
    replacement when fewer than n_k candidates exist) or the top
    affinities ("nearest", padded cyclically).  One uniformly random
    sample of each drawn person is used.  Weights are 1/n_k in mode
    "AW", or the drawn affinities renormalized to sum 1 in mode "W".
    The draws are draw_positives'; drawn, when given, holds them (an
    epoch plan's (at, slot)) in place of rng's.

    anchor_classes is (A,).  Returns the (V, n_k) dataset sample indices
    and (V, n_k) weights of the V anchors that draw, in anchor order, and
    an (A,) mask, False where the anchor's row is degenerate: such an
    anchor draws nothing.
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
    table = aff.candidates
    valid = table.count[anchor_classes] > 0
    drawing = anchor_classes[valid]
    at, slot = drawn if drawn is not None else draw_positives(drawing, table, dataset, n_k, rng,
                                                              positive_sampling)
    picks = dataset.class_samples(table.index[drawing[:, None], at], slot)
    if weighting_mode == "W":
        w = table.weights[drawing[:, None], at]
        w /= w.sum(axis=1, keepdims=True)
    else:
        w = np.full(picks.shape, 1.0 / n_k)
    return picks, w, valid


def select_hardest_negative(
    anchors: np.ndarray,
    batch_embeddings: np.ndarray,
    batch_classes: np.ndarray,
    anchor_classes: np.ndarray,
) -> np.ndarray:
    """Per anchor, the index of the nearest embedding whose person differs.

    anchors is (A, d) with (A,) anchor_classes.  The batch is expected to
    be single-camera, so this is the hardest same-camera negative.
    Distances are t_ij = sqrt(sum((b_j - a_i)**2)), each summed over its
    own d values; the anchor's own person is masked and ties resolve to
    the lowest index (the lowest negative when every distance
    overflows).  Raises SelectionError when an anchor has no negative.

    Only the pairs that can win are summed.  The screen g_ij, the
    expanded form of squared_distances, is within E_ij = c (d+3) u
    ((|a_i| + |b_j|)**2 + 2**-1021) of the exact squared distance D_ij,
    u = 2**-53, c = SCREEN_SAFETY: the two squared norms and the dot
    product each err by at most d u times their magnitude, the two
    additions by u each, and the 2**-1021 term covers underflow.  The
    direct s_ij = t_ij**2 before its sqrt is within (d+2) u of D_ij
    relatively, and the rounded sqrt keeps order up to u.  So any j with
    t_ij <= t_im, m the screen's argmin, has g_ij <= (g_im + E_im) F + E_ij
    with F = 1 + (2d+8) u to first order, and F = 1 + 3 gamma, gamma =
    c (d+3) u, is larger.  One bound per row serves all its pairs:
    e_i = gamma ((|a_i| + max_j |b_j|)**2 + 2**-1021), rounded, is at
    least every rounded E_ij, as each rounding step is monotone.  The
    screen keeps every j with g_ij <= (g_im + e_i) F + e_i, which holds
    wherever g_ij <= (g_im + E_im) F + E_ij does, and sums the kept pairs
    directly.  Every pair that the per-pair bound E_ij alone would not
    keep is farther than some pair it keeps, so the lowest-index minimum
    of the kept direct distances is the same under either bound whenever
    it is finite.  A row whose screen can overflow (max_j g_ij + e_i not
    finite, a superset of the rows where some g_ij + E_ij is not:
    squared norms above about 1e154) keeps every pair.  Where every kept
    direct distance of a row is +inf, the pick is the first pair under
    the per-pair bound E_ij, worked out for those rows alone.
    """
    batch_embeddings = np.asarray(batch_embeddings, dtype=np.float64)
    batch_classes = np.asarray(batch_classes)
    anchors = np.asarray(anchors, dtype=np.float64)
    classes = np.asarray(anchor_classes)
    if batch_embeddings.ndim != 2 or batch_classes.shape != (batch_embeddings.shape[0],):
        raise ContractError("batch embeddings and classes are inconsistent")
    if anchors.ndim != 2 or classes.shape != anchors.shape[:1]:
        raise ContractError("anchors must be (A, d) with one anchor class each")
    other = classes[:, None] != batch_classes
    lonely = ~other.any(axis=1)
    if lonely.any():
        raise SelectionError(f"no same-camera negative available for class {classes[lonely].min()}")
    rows = np.arange(classes.size)
    gamma = SCREEN_SAFETY * (anchors.shape[1] + 3) * 2.0**-53
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite screen is handled below
        g, sq_a, sq_b = squared_distances_and_norms(anchors, batch_embeddings)
        norm_a, norm_b = np.sqrt(sq_a), np.sqrt(sq_b)
        err = norm_a + norm_b.max()
        err *= err
        err += 2.0**-1021
        err *= gamma
        wild = ~np.isfinite(g.max(axis=1) + err)
    screen = np.where(other, g, np.inf)
    m = np.argmin(screen, axis=1)
    low = screen[rows, m]
    keep = screen <= ((low + err) * (1.0 + 3.0 * gamma) + err)[:, None]
    if wild.any():
        keep[wild] = True
    keep &= other
    ii, jj = np.divmod(np.flatnonzero(keep), keep.shape[1])  # row-major, as np.nonzero
    diffs = batch_embeddings[jj] - anchors[ii]
    dist = np.full(keep.shape, np.inf)
    with np.errstate(over="ignore"):  # an overflowing pair is +inf, handled below
        dist[ii, jj] = np.sqrt(np.sum(diffs * diffs, axis=1))
    picks = np.argmin(dist, axis=1)
    far = np.flatnonzero(dist[rows, picks] == np.inf)
    if far.size:  # the first pair under the per-pair bound E_ij
        with np.errstate(over="ignore", invalid="ignore"):
            norms = norm_a[far, None] + norm_b
            pair_err = gamma * (norms * norms + 2.0**-1021)
            bound = (low[far] + pair_err[np.arange(far.size), m[far]]) * (1.0 + 3.0 * gamma)
            first = (screen[far] <= bound[:, None] + pair_err) | ~np.isfinite(
                g[far] + pair_err).all(axis=1, keepdims=True)
        first &= other[far]
        picks[far] = np.argmax(first, axis=1)
    return picks


def weighted_triplet_loss(
    anchor: np.ndarray,
    positives: np.ndarray,
    weights: np.ndarray,
    negative: np.ndarray,
    margin: float,
) -> LossValue:
    """Sum over anchors of [sum_i w_i ||a - p_i|| - ||a - n|| + margin]_+.

    anchor (A, d), positives (A, n_k, d), weights (A, n_k), negative
    (A, d).  Each anchor's weights must sum to 1 (tolerance 1e-9).
    Gradients, in the input shapes, cover the anchor, every positive
    (scaled by its weight) and the negative; all are zero where the hinge
    is inactive.  Per-anchor losses are summed in anchor order;
    counters["active"] counts hinges.
    """
    anchor, positives, weights, negative = (np.asarray(x, dtype=np.float64)
                                            for x in (anchor, positives, weights, negative))
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
    neg_d = _row_lengths(to_neg)
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN hinge, which the loss shows
        hinge = np.sum(weights * pos_d, axis=1) - neg_d + margin
    active = hinge > 0.0
    # Every row is computed, row by row as an active row alone would be,
    # and the inactive rows, whose values may overflow, are then zeroed.
    with np.errstate(all="ignore"):
        u_n = _unit_rows(to_neg, neg_d)
        u_p = _unit_rows(to_pos.reshape(-1, anchor.shape[1]), pos_d.reshape(-1))
        u_p = u_p.reshape(positives.shape)
        pulls = weights[:, :, None] * u_p
        g = pulls[:, 0] + 0.0  # as added to a zero array
        for i in range(1, weights.shape[1]):
            g += pulls[:, i]
        g -= u_n
        np.multiply(-weights[:, :, None], u_p, out=u_p)
    grads = {"anchor": g, "positives": u_p, "negative": u_n}
    idle = ~active
    if idle.any():
        for x in grads.values():
            x[idle] = 0.0
    # The terms max(h, 0.0) added one by one from 0.0, in anchor order.
    terms = np.zeros(hinge.size + 1)
    np.copyto(terms[1:], hinge, where=~(hinge < 0.0))
    loss = float(np.add.accumulate(terms)[-1])
    return LossValue(
        loss=loss,
        grads=grads,
        counters={"active": int(np.count_nonzero(active))},
    )
