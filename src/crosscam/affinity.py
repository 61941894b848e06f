"""Cross-camera affinity graph over person-level features.

Given the buffer of per-person feature averages, keep each row's k
nearest candidates among the persons of other cameras, weigh them by a
Gaussian of their squared distance, and normalize rows into soft-label
weight vectors.  The bandwidth sigma^2 is the mean squared distance over
the candidate pairs, computed before exponentiation.  The affinity is
held as k-sparse tables.  A build streams its distances in row blocks of
about PRODUCT_ELEMENTS (squared_distance_blocks), so it never holds a
C x C array; evaluation streams query x gallery distances the same way.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .buffer import PersonBuffer
from .data import PersonIndex
from .errors import AffinityError, ContractError
from .ranking import BLOCK_ELEMENTS, hit_aps, identity_pairs


# Distances are computed in row blocks of about this many elements (8 MB
# of float64), one matrix product per block, so no caller holds a whole
# C x C or query x gallery matrix; each block is finished in sub-blocks
# of BLOCK_ELEMENTS.
PRODUCT_ELEMENTS = 1 << 20


def _finish(d2: np.ndarray, na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """d2 = x @ b.T, finished in place in row blocks of BLOCK_ELEMENTS into
    (|x|^2 + |b|^2) - 2 x.b clipped at 0, each step elementwise in that order."""
    step = max(1, BLOCK_ELEMENTS // max(d2.shape[1], 1))
    for lo in range(0, d2.shape[0], step):
        block = d2[lo:lo + step]
        block *= 2.0
        np.subtract(na[lo:lo + step, None] + nb, block, out=block)
        np.maximum(block, 0.0, out=block)
    return d2


def squared_distance_blocks(a: np.ndarray, b: np.ndarray):
    """Yield (lo, block): rows lo:lo + len(block) of the (len(a), len(b))
    squared Euclidean distances, in blocks of about PRODUCT_ELEMENTS.

    Each block is one product a[lo:lo + rows] @ b.T.  A row block of a
    product can differ from the same rows of the whole product in the last
    bit, so the blocks are part of the result, and a matrix that fits one
    block has the bits of squared_distances (the slice a[0:len(a)] keeps
    the buffer, so F @ F.T stays a symmetric update).  The generator keeps
    no block, so a caller that drops each one before the next holds one.
    """
    rows = max(1, PRODUCT_ELEMENTS // max(b.shape[0], 1))
    nb = np.sum(b * b, axis=1)
    for lo in range(0, a.shape[0], rows):
        x = a[lo:lo + rows]
        yield lo, _finish(x @ b.T, np.sum(x * x, axis=1), nb)


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances as one product block, for
    batch-sized inputs; the result is the only (len(a), len(b)) array allocated."""
    return _finish(a @ b.T, np.sum(a * a, axis=1), np.sum(b * b, axis=1))


@dataclass
class AffinityMatrix:
    """A row-sparse affinity as two k-sparse tables over the same rows.

    candidates holds each row's nonzero affinities, soft_labels those
    entries divided by the row total (the soft-label distributions the
    losses read).  The dense matrix is only ever a view built on demand
    (A, soft_label_rows).
    """

    candidates: SoftLabelTable
    soft_labels: SoftLabelTable
    sigma_sq: float
    camera_of_class: np.ndarray  # (C,), camera id per class index
    masked: bool  # whether same-camera pairs were excluded

    @property
    def n_classes(self) -> int:
        return self.candidates.n_classes

    @property
    def A(self) -> np.ndarray:
        """The dense (C, C) affinity, built anew on each access."""
        return self.candidates.dense()


@dataclass
class SoftLabelRow:
    """One dense row of soft_label_rows: weights summing to 1, or all zero and degenerate."""

    class_index: int
    weights: np.ndarray  # (C,), sums to 1 unless degenerate
    degenerate: bool


@dataclass
class SoftLabelTable:
    """Rows of length n_classes in k-sparse form, row r for class class_index[r].

    Row r's nonzero values sit at columns index[r, :count[r]] in increasing
    order, then zero padding; a degenerate row has count 0.
    """

    class_index: np.ndarray  # (R,)
    index: np.ndarray  # (R, m)
    weights: np.ndarray  # (R, m)
    count: np.ndarray  # (R,)
    n_classes: int

    @property
    def degenerate(self) -> np.ndarray:
        return self.count == 0

    def take(self, rows) -> SoftLabelTable:
        return SoftLabelTable(self.class_index[rows], self.index[rows], self.weights[rows],
                              self.count[rows], self.n_classes)

    def dense(self) -> np.ndarray:
        """The rows as one dense (R, n_classes) array."""
        out = np.zeros((self.count.size, self.n_classes))
        r, s = np.nonzero(np.arange(self.index.shape[1]) < self.count[:, None])
        out[r, self.index[r, s]] = self.weights[r, s]
        return out


def _pack(class_index: np.ndarray, rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
          n_classes: int) -> SoftLabelTable:
    """Entries (row r of class_index[r], column, value), rows nondecreasing and
    columns increasing within a row, as one zero-padded table."""
    count = np.bincount(rows, minlength=class_index.size)
    slot = np.arange(rows.size) - (np.cumsum(count) - count)[rows]
    index = np.zeros((class_index.size, int(count.max(initial=1))), dtype=np.int64)
    weights = np.zeros(index.shape)
    index[rows, slot], weights[rows, slot] = cols, values
    return SoftLabelTable(np.asarray(class_index, dtype=np.int64), index, weights, count, n_classes)


def _soft_labels(entries: SoftLabelTable) -> SoftLabelTable:
    """Each row's entries divided by the row's total, zero quotients dropped;
    a row whose total is 0 or less is degenerate.

    Each total is summed over a dense row (in blocks of rows), so it has
    the bits of the dense matrix's own row sum; a sum over the compact
    entries can differ in the last bit.
    """
    total = np.empty(entries.count.size)
    step = max(1, BLOCK_ELEMENTS // max(entries.n_classes, 1))
    for lo in range(0, total.size, step):
        total[lo:lo + step] = entries.take(slice(lo, lo + step)).dense().sum(axis=1)
    real = np.arange(entries.index.shape[1]) < entries.count[:, None]
    quotient = np.zeros(entries.weights.shape)
    # A NaN total is not degenerate: its quotients are NaN.
    np.divide(entries.weights, total[:, None], out=quotient, where=real & ~(total[:, None] <= 0.0))
    r, s = np.nonzero(quotient)
    return _pack(entries.class_index, r, entries.index[r, s], quotient[r, s], entries.n_classes)


def build_affinity(
    buf: PersonBuffer,
    index: PersonIndex,
    k: int,
    mask_same_camera: bool = True,
) -> AffinityMatrix:
    """Masked k-NN Gaussian affinity over buffer columns.

    Candidates of row i are persons from other cameras (with
    mask_same_camera=False: all persons except i itself).  Each row keeps
    its k smallest-distance candidates, ties broken toward the lower
    class index, and maps them through exp(-dist^2 / sigma^2).  The
    distances are streamed in product blocks (squared_distance_blocks),
    so a build holds one block and the O(C k) tables, never a C x C array.
    """
    if k < 1:
        raise ContractError("k must be >= 1")
    if index.total != buf.n_classes:
        raise ContractError(
            f"index covers {index.total} classes but buffer has {buf.n_classes} columns"
        )
    missing = buf.uninitialized_classes()
    if missing:
        raise AffinityError(
            f"cannot build affinity: {len(missing)} uninitialized buffer columns "
            f"(class indices {missing[:10]}{'...' if len(missing) > 10 else ''})"
        )
    cameras = index.camera_of_class_array()
    C = index.total
    if index.n_cameras < 2 or np.unique(cameras).size < 2:
        raise AffinityError(
            "cross-camera affinity undefined: all persons belong to a single camera"
        )

    feats = buf.P.T  # (C, d)
    # One pass over the distances in row blocks.  Each row keeps what a
    # stable argsort of its candidates would put first: every candidate
    # nearer than the row's k-th smallest candidate distance t, then
    # candidates at exactly t in class-index order; a row with no candidate
    # keeps nothing.  Once a block's kept distances are read, its candidate
    # distances are packed forward into the front of its product block, so
    # each product block sums a prefix that holds its d2[candidate] in
    # row-major order, and sigma^2 is those sums, added in block order,
    # over their count: with one product block, d2[candidate].mean().
    kth = min(k, C) - 1
    step = max(1, BLOCK_ELEMENTS // C)
    kept: list[tuple[np.ndarray, np.ndarray]] = []  # (flat position, distance) per block
    total, count = 0.0, 0
    # Each temporary goes once read, so a block holds about one float array
    # beside its product block, and each product block goes before the next.
    for lo, d2 in squared_distance_blocks(feats, feats):
        flat = d2.reshape(-1)
        packed = 0
        for s in range(0, d2.shape[0], step):
            block = d2[s:s + step]
            first, last = lo + s, lo + s + block.shape[0]
            if mask_same_camera:
                cand = cameras[first:last, None] != cameras
            else:
                cand = np.arange(first, last)[:, None] != np.arange(C)
            dist = np.where(cand, block, np.inf)
            dist.partition(kth, axis=1)
            t = dist[:, [kth]]
            del dist
            sel = (block <= t) & cand
            at = np.flatnonzero(sel)
            if (np.bincount(at // C, minlength=block.shape[0]) > k).any():  # too many tied at t
                nearer = (block < t) & cand
                tied = sel & ~nearer
                tied &= np.cumsum(tied, axis=1) <= k - np.count_nonzero(nearer, axis=1)[:, None]
                at = np.flatnonzero(nearer | tied)
            del sel
            kept.append((at + first * C, block.reshape(-1)[at]))
            moved = block[cand]
            flat[packed:packed + moved.size] = moved
            packed += moved.size
        total += flat[:packed].sum()
        count += packed
        del d2, flat, block
    if not count:
        raise AffinityError("no candidate pairs: every person shares a camera with every other")
    sigma_sq = float(total / count)

    rows, cols = np.divmod(np.concatenate([at for at, _ in kept]), C)
    near = np.concatenate([d for _, d in kept])
    if sigma_sq == 0.0:
        warnings.warn(
            "all candidate pairs are identical (sigma^2 = 0); affinity entries set to 1",
            RuntimeWarning,
            stacklevel=2,
        )
        values = np.ones(near.size)
    else:
        values = np.exp(-near / sigma_sq)
    nonzero = values != 0.0
    entries = _pack(np.arange(C), rows[nonzero], cols[nonzero], values[nonzero], C)
    return AffinityMatrix(
        candidates=entries, soft_labels=_soft_labels(entries), sigma_sq=sigma_sq,
        camera_of_class=cameras, masked=bool(mask_same_camera),
    )


def soft_label_rows(aff: AffinityMatrix) -> list[SoftLabelRow]:
    """Normalize each dense affinity row to sum 1; zero-sum rows become degenerate.

    A dense view for checks and tests, built from aff.A on each call: all
    rows are one (C, C) block and each row's weights are a view of it.  A
    C-contiguous row sum has the bits of the row's own sum.
    """
    A = aff.A
    total = A.sum(axis=1)[:, None]
    degenerate = total <= 0.0  # a NaN total is not degenerate: its weights are NaN
    weights = np.zeros(A.shape)
    np.divide(A, total, out=weights, where=~degenerate)
    return [SoftLabelRow(i, weights[i], degenerate=bool(degenerate[i, 0]))
            for i in range(aff.n_classes)]


def affinity_quality_map(aff: AffinityMatrix, truth_of_class: np.ndarray) -> float:
    """How well affinity rows rank true cross-camera matches, as mean AP.

    Each row of the nonnegative affinity ranks the persons of other
    cameras by descending affinity (ties broken by class index); a
    candidate is relevant when it shares the row person's hidden
    identity.  Rows with a negative truth or without any cross-camera
    true match are excluded from the mean.  Ranks are counted, not
    sorted: a relevant candidate's rank is the number of candidates that
    a stable sort would put before it.
    """
    truth = np.asarray(truth_of_class, dtype=np.int64)
    if truth.shape != (aff.n_classes,):
        raise ContractError(
            f"truth mapping has shape {truth.shape}, expected ({aff.n_classes},)"
        )
    cameras, C = aff.camera_of_class, aff.n_classes
    known = np.flatnonzero(truth >= 0)
    rows, cols = (known[i] for i in identity_pairs(truth[known], truth[known]))
    cross = cameras[rows] != cameras[cols]
    rows, cols = rows[cross], cols[cross]
    if not rows.size:
        raise AffinityError("affinity quality undefined: no row has a cross-camera true match")
    # A row is zero outside its few nonzero entries (aff.candidates), and a
    # relevant pair outside them has affinity 0.  A relevant entry of value
    # v is preceded by the positive cross-camera entries above v or equal
    # to it at a lower index, and, when v is 0, by the zero candidates at a
    # lower index: the candidates below col minus the positive cross-camera
    # entries below col.
    table = aff.candidates
    idx, vals = table.index[rows], table.weights[rows]
    real = np.arange(idx.shape[1]) < table.count[rows, None]
    v = np.where(real & (idx == cols[:, None]), vals, 0.0).sum(axis=1)[:, None]
    real &= cameras[idx] != cameras[rows, None]
    lower = real & (idx < cols[:, None])
    pos = np.count_nonzero((real & (vals > v)) | ((vals == v) & lower), axis=1)
    cam_ids, cam = np.unique(cameras, return_inverse=True)
    below = np.zeros((cam_ids.size, C + 1), dtype=np.int64)  # [m, c]: classes of camera m below c
    np.cumsum(cam[None, :] == np.arange(cam_ids.size)[:, None], axis=1, out=below[:, 1:])
    zero_lower = cols - below[cam[rows], cols] - np.count_nonzero(lower, axis=1)
    pos += np.where(v[:, 0] == 0.0, zero_lower, 0)
    order = np.lexsort((pos, rows))
    return float(np.mean(hit_aps(rows[order], pos[order])[1]))
