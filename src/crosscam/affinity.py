"""Cross-camera affinity graph over person-level features.

Given the buffer of per-person feature averages, build a C x C matrix of
Gaussian similarities restricted to pairs from different cameras, keep
only each row's k nearest candidates, and normalize rows into soft-label
weight vectors.  The bandwidth sigma^2 is the mean squared distance over
the candidate pairs, computed before exponentiation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .buffer import PersonBuffer
from .data import PersonIndex
from .errors import AffinityError, ContractError
from .ranking import BLOCK_ELEMENTS, hit_aps


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances in expanded form, clipped at 0."""
    d2 = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0, out=d2)


@dataclass
class AffinityMatrix:
    A: np.ndarray  # (C, C), nonnegative, row-sparse
    sigma_sq: float
    k: int
    epoch_built: int
    camera_of_class: np.ndarray  # (C,), camera id per class index
    masked: bool  # whether same-camera pairs were excluded

    @property
    def n_classes(self) -> int:
        return self.A.shape[0]

    @cached_property
    def candidates(self) -> SoftLabelTable:
        """Each row's positive entries with their raw affinities."""
        # Row-major, so each row's columns ascend; a 2-D np.nonzero is several times slower.
        rows, cols = np.divmod(np.flatnonzero(self.A > 0.0), self.n_classes)
        count = np.bincount(rows, minlength=self.n_classes)
        slot = np.arange(rows.size) - (np.cumsum(count) - count)[rows]
        index = np.zeros((self.n_classes, int(count.max(initial=1))), dtype=np.int64)
        weights = np.zeros(index.shape)
        index[rows, slot], weights[rows, slot] = cols, self.A[rows, cols]
        return SoftLabelTable(np.arange(self.n_classes), index, weights, count, self.n_classes)


@dataclass
class SoftLabelRow:
    """Normalized affinity row: a distribution over candidate persons.

    A row is degenerate when its affinity mass is zero; degenerate rows
    carry no weights and must be skipped by consumers.
    """

    class_index: int
    weights: np.ndarray  # (C,), sums to 1 unless degenerate
    degenerate: bool

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        idx = np.flatnonzero(self.weights)
        return idx, self.weights[idx]


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

    def take(self, rows: np.ndarray) -> SoftLabelTable:
        return SoftLabelTable(self.class_index[rows], self.index[rows], self.weights[rows],
                              self.count[rows], self.n_classes)


def _sparse_table(class_index, entries: list[tuple[np.ndarray, np.ndarray]],
                  n_classes: int) -> SoftLabelTable:
    """Pack (columns, values) per row into a zero-padded SoftLabelTable."""
    count = np.array([cols.size for cols, _ in entries], dtype=np.int64)
    index = np.zeros((count.size, int(count.max(initial=1))), dtype=np.int64)
    weights = np.zeros(index.shape)
    for r, (cols, vals) in enumerate(entries):
        index[r, :cols.size], weights[r, :cols.size] = cols, vals
    return SoftLabelTable(np.array(class_index, dtype=np.int64), index, weights, count, n_classes)


def build_affinity(
    buf: PersonBuffer,
    index: PersonIndex,
    k: int,
    epoch: int = 0,
    mask_same_camera: bool = True,
) -> AffinityMatrix:
    """Masked k-NN Gaussian affinity over buffer columns.

    Candidates of row i are persons from other cameras (with
    mask_same_camera=False: all persons except i itself).  Each row keeps
    its k smallest-distance candidates, ties broken toward the lower
    class index, and maps them through exp(-dist^2 / sigma^2).
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
    d2 = squared_distances(feats, feats)

    if mask_same_camera:
        candidate = cameras[:, None] != cameras[None, :]
    else:
        candidate = ~np.eye(C, dtype=bool)
    if not candidate.any():
        raise AffinityError("no candidate pairs: every person shares a camera with every other")

    sigma_sq = float(d2[candidate].mean())

    A = np.zeros((C, C))
    if sigma_sq == 0.0:
        warnings.warn(
            "all candidate pairs are identical (sigma^2 = 0); affinity entries set to 1",
            RuntimeWarning,
            stacklevel=2,
        )
    # Each row keeps what a stable argsort of its candidates would put
    # first: every candidate nearer than the row's k-th smallest candidate
    # distance t, then candidates at exactly t in class-index order.  A row
    # with no candidate keeps nothing; soft_label_rows marks it degenerate.
    kth = min(k, C) - 1
    step = max(1, BLOCK_ELEMENTS // C)
    for lo in range(0, C, step):
        cand = candidate[lo:lo + step]
        dist = np.where(cand, d2[lo:lo + step], np.inf)
        t = np.partition(dist, kth, axis=1)[:, kth, None]
        nearer = dist < t
        tied = (dist == t) & cand
        room = k - np.count_nonzero(nearer, axis=1)[:, None]
        if (np.count_nonzero(tied, axis=1)[:, None] > room).any():
            tied &= np.cumsum(tied, axis=1) <= room
        r, c = np.divmod(np.flatnonzero(nearer | tied), C)
        r += lo
        A[r, c] = 1.0 if sigma_sq == 0.0 else np.exp(-d2[r, c] / sigma_sq)
    return AffinityMatrix(
        A=A, sigma_sq=sigma_sq, k=int(k), epoch_built=int(epoch),
        camera_of_class=cameras, masked=bool(mask_same_camera),
    )


def soft_label_rows(aff: AffinityMatrix) -> list[SoftLabelRow]:
    """Normalize each affinity row to sum 1; zero-sum rows become degenerate."""
    rows = []
    for i in range(aff.n_classes):
        row = aff.A[i]
        total = row.sum()
        if total <= 0.0:
            rows.append(SoftLabelRow(i, np.zeros_like(row), degenerate=True))
        else:
            rows.append(SoftLabelRow(i, row / total, degenerate=False))
    return rows


def soft_label_table(rows: list[SoftLabelRow]) -> SoftLabelTable:
    """The nonzero weights of soft-label rows as one table, row r for rows[r]."""
    n_classes = rows[0].weights.size if rows else 0
    return _sparse_table([r.class_index for r in rows], [r.nonzero() for r in rows], n_classes)


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
    persons: dict[int, list[int]] = {}
    for c, t in enumerate(truth.tolist()):
        if t >= 0:
            persons.setdefault(t, []).append(c)
    cams = cameras.tolist()
    pairs = [(i, j) for same in persons.values() for i in same for j in same if cams[i] != cams[j]]
    if not pairs:
        raise AffinityError("affinity quality undefined: no row has a cross-camera true match")
    rows, cols = np.array(pairs, dtype=np.int64).T
    # A row is zero outside its few positive entries (aff.candidates).  A
    # relevant entry of value v is preceded by the positive cross-camera
    # entries above v or equal to it at a lower index, and, when v is 0, by
    # the zero candidates at a lower index: the candidates below col minus
    # the positive cross-camera entries below col.
    table = aff.candidates
    idx, vals, v = table.index[rows], table.weights[rows], aff.A[rows, cols][:, None]
    real = (np.arange(idx.shape[1]) < table.count[rows, None]) & (cameras[idx] != cameras[rows, None])
    lower = real & (idx < cols[:, None])
    pos = np.count_nonzero((real & (vals > v)) | ((vals == v) & lower), axis=1)
    cam_ids, cam = np.unique(cameras, return_inverse=True)
    below = np.zeros((cam_ids.size, C + 1), dtype=np.int64)  # [m, c]: classes of camera m below c
    np.cumsum(cam[None, :] == np.arange(cam_ids.size)[:, None], axis=1, out=below[:, 1:])
    zero_lower = cols - below[cam[rows], cols] - np.count_nonzero(lower, axis=1)
    pos += np.where(v[:, 0] == 0.0, zero_lower, 0)
    order = np.lexsort((pos, rows))
    return float(np.mean(hit_aps(rows[order], pos[order])[1]))
