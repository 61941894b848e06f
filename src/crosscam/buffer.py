"""Per-person running averages of embedding vectors.

Column i of P is the current feature of person (class) i.  The first
batch that contains a person seeds its column with the batch mean; every
later batch pulls the column halfway toward the new batch mean.  Columns
of persons absent from a batch are never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass
class PersonBuffer:
    P: np.ndarray  # (d, n_classes), column per person
    initialized: np.ndarray  # (n_classes,) bool
    t: int = 0  # update-round counter, ticked by the trainer once per iteration

    @property
    def d(self) -> int:
        return self.P.shape[0]

    @property
    def n_classes(self) -> int:
        return self.P.shape[1]

    def uninitialized_classes(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(~self.initialized)]


def new_buffer(d: int, n_classes: int) -> PersonBuffer:
    if d < 1 or n_classes < 1:
        raise ContractError("buffer needs d >= 1 and n_classes >= 1")
    return PersonBuffer(P=np.zeros((d, n_classes)), initialized=np.zeros(n_classes, dtype=bool))


def update_person(buf: PersonBuffer, classes: np.ndarray, batch_features: np.ndarray) -> None:
    """Pull R distinct persons' columns toward the means of their batch features.

    classes is (R,) and batch_features (R, m, d); each mean sums its m
    rows in order.  First touch sets a column to the batch mean outright;
    afterwards p <- (p + mean) / 2.
    """
    classes = np.asarray(classes)
    feats = np.asarray(batch_features, dtype=np.float64)
    if classes.ndim != 1 or feats.ndim != 3 or feats.shape[0] != classes.size:
        raise ContractError(f"{classes.size} class indices for features of shape {feats.shape}")
    bad = (classes < 0) | (classes >= buf.n_classes)
    if bad.any():
        raise ContractError(f"class index {classes[bad][0]} out of range [0, {buf.n_classes})")
    ordered = np.sort(classes)
    if (ordered[1:] == ordered[:-1]).any():
        raise ContractError("a batch update needs distinct class indices")
    if feats.shape[1] == 0:
        raise ContractError("batch_features must be nonempty")
    if feats.shape[2] != buf.d:
        raise ContractError(f"feature length {feats.shape[2]} != buffer dimension {buf.d}")
    mean = feats.mean(axis=1).T
    seen = buf.initialized[classes]
    buf.P[:, classes] = np.where(seen, 0.5 * (buf.P[:, classes] + mean), mean)
    buf.initialized[classes] = True
