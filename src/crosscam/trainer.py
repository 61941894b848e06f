"""Two-phase training loop and its batch samplers.

Phase one (warmup) trains the embedding with the within-camera triplet
loss alone while the person buffer accumulates per-class features.
Phase two rebuilds the cross-camera affinity once per epoch and adds the
soft-label objectives: cross-entropy against soft labels through the
classifier head (mode "C"), the weighted triplet loss over soft
positives (mode "D"), or both ("C+D"), traded off by lam.

Everything is driven by two seeded generators (one for initialization,
one for batch draws) in a fixed consumption order, so a run is bitwise
reproducible from its config.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import evaluation
# soft_label_rows is not called here; it stays bound for perfbench's tracer.
from .affinity import (  # noqa: F401
    AffinityMatrix, affinity_quality_map, build_affinity, soft_label_rows,
)
from .buffer import PersonBuffer, new_buffer, update_person
from .data import Dataset, field_accepts
from .errors import ConfigError, ContractError, TrainingError
from .losses import (
    TripletBatch,
    add_rows,
    intra_triplet_loss,
    random_triplet_loss,
    select_hardest_negative,
    select_positives,
    softmax_probs,
    weighted_cross_entropy,
    weighted_triplet_loss,
)
# forward_batch is not called here; it stays bound for perfbench's tracer.
from .model import (  # noqa: F401
    ClassifierHead,
    EmbeddingModel,
    Optimizer,
    OptimizerState,
    backward,
    forward_batch,
    forward_with_hidden,
    head_backward,
    head_forward,
    init_head,
    init_model,
    sgd_step,
)
from .plan import plan_epoch

INTER_MODES = ("C", "D", "C+D")
WEIGHTING_MODES = ("AW", "W")
MINING_MODES = ("hard", "random")
POSITIVE_SAMPLING_MODES = ("random", "nearest")

TRAINLOG_FORMAT = "crosscam-trainlog"
TRAINLOG_VERSION = "v1"

# Canonical per-epoch columns; wall time is kept out on purpose so the
# serialized log is bitwise reproducible across machines.
TRAINLOG_COLUMNS = (
    "epoch",
    "intra_loss",
    "inter_loss",
    "affinity_map",
    "val_map",
    "val_rank1",
    "skipped_anchors",
    "degenerate_rows",
)


@dataclass(frozen=True)
class TrainConfig:
    """All training hyperparameters, with the defaults used throughout.

    n_p persons x n_k images form one single-camera triplet batch.
    epochs is the total schedule length, warmup_epochs the intra-only
    prefix; both learning rates drop by decay_factor at decay_epoch.
    lam weighs the cross-camera objective selected by inter_mode.
    """

    n_p: int = 32
    n_k: int = 4
    margin: float = 0.3
    lam: float = 1.0
    k: int = 6
    epochs: int = 300
    warmup_epochs: int = 100
    decay_epoch: int = 200
    decay_factor: float = 0.1
    learning_rate_pretrained: float = 0.1
    learning_rate_new: float = 0.01
    momentum: float = 0.9
    class_batch_total: int = 64
    inter_mode: str = "C+D"
    weighting_mode: str = "AW"
    mining_mode: str = "hard"
    mask_same_camera: bool = True
    positive_sampling: str = "random"
    hidden_dim: int = 64
    embed_dim: int = 32
    seed: int = 0

    def validate(self) -> None:
        if min(self.n_p, self.n_k) < 2:
            raise ConfigError("n_p and n_k must be >= 2 for triplet batches")
        if self.margin < 0:
            raise ConfigError("margin must be >= 0")
        if self.lam < 0:
            raise ConfigError("lam must be >= 0")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.epochs < 0 or self.warmup_epochs < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.warmup_epochs > self.epochs:
            raise ConfigError(
                f"warmup_epochs ({self.warmup_epochs}) must not exceed epochs ({self.epochs})"
            )
        if self.warmup_epochs == 0 < self.epochs:
            raise ConfigError(
                "warmup_epochs must be >= 1 when epochs > 0: the first joint epoch builds the "
                "affinity from the person buffer, which only warmup epochs fill; "
                "set warmup_epochs to at least 1"
            )
        for name, modes in (("inter_mode", INTER_MODES), ("weighting_mode", WEIGHTING_MODES),
                            ("mining_mode", MINING_MODES),
                            ("positive_sampling", POSITIVE_SAMPLING_MODES)):
            if getattr(self, name) not in modes:
                raise ConfigError(f"{name} must be one of {modes}, got {getattr(self, name)!r}")
        if self.class_batch_total < 1:
            raise ConfigError("class_batch_total must be >= 1")
        if min(self.hidden_dim, self.embed_dim) < 1:
            raise ConfigError("model dimensions must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        bad = self.optimizer().invalid()
        if bad:
            raise ConfigError(bad[1])

    def optimizer(self) -> Optimizer:
        return Optimizer(**{f.name: getattr(self, f.name) for f in fields(Optimizer)})


@dataclass
class EpochRecord:
    epoch: int
    intra_loss: float
    inter_loss: float
    affinity_map: float | None
    val_map: float | None
    val_rank1: float | None
    skipped_anchors: int
    degenerate_rows: int
    wall_time: float = 0.0  # informational only, not serialized canonically


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    @staticmethod
    def _cell(value: float | int | None) -> str:
        if value is None:
            return ""
        if isinstance(value, int):
            return str(value)
        return repr(float(value))

    def to_csv(self) -> str:
        lines = [",".join(TRAINLOG_COLUMNS)]
        for r in self.records:
            lines.append(",".join(self._cell(getattr(r, c)) for c in TRAINLOG_COLUMNS))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "format": TRAINLOG_FORMAT,
            "version": TRAINLOG_VERSION,
            "columns": list(TRAINLOG_COLUMNS),
            "records": [{c: getattr(r, c) for c in TRAINLOG_COLUMNS} for r in self.records],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "TrainLog":
        """The log of a to_json payload; a cell that does not fit its column is refused."""
        payload = json.loads(text)
        if not isinstance(payload, dict) or payload.get("format") != TRAINLOG_FORMAT:
            raise ContractError("not a training log payload")
        if payload.get("version") != TRAINLOG_VERSION:
            raise ContractError(f"unsupported training log version {payload.get('version')!r}")
        records = payload.get("records")
        if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
            raise ContractError("training log 'records' must be a list of objects")
        types = {f.name: f.type for f in fields(EpochRecord)}
        for i, rec in enumerate(records):
            for c in TRAINLOG_COLUMNS:
                if c not in rec or not field_accepts(types[c], rec[c]):
                    got = repr(rec[c]) if c in rec else "nothing"
                    raise ContractError(f"record {i}: column {c!r} takes {types[c]}, got {got}")
        return TrainLog([EpochRecord(**{c: rec[c] for c in TRAINLOG_COLUMNS}) for rec in records])

    def timing_csv(self) -> str:
        lines = ["epoch,wall_time_s"]
        for r in self.records:
            lines.append(f"{r.epoch},{repr(float(r.wall_time))}")
        return "\n".join(lines) + "\n"


@dataclass
class PKBatch:
    """Indices of one single-camera batch: n_p persons x n_k sample slots."""

    sample_indices: np.ndarray  # (n_p, n_k) into the dataset
    classes: np.ndarray  # (n_p,)


def _camera_persons(dataset: Dataset, camera_id: int) -> tuple[int, int]:
    """(first class, person count) of a camera that can make a PK batch."""
    if not (0 <= camera_id < dataset.n_cameras):
        raise ContractError(f"camera_id {camera_id} out of range")
    first, stop = dataset.index.offsets[camera_id:camera_id + 2]
    if stop - first < 2:
        raise ContractError(
            f"camera {camera_id} has {stop - first} persons; intra-camera triplets need >= 2"
        )
    return first, stop - first


def pk_sampler(dataset: Dataset, camera_id: int, classes: np.ndarray,
               samples: np.ndarray) -> PKBatch:
    """One camera's PK batch from an epoch plan's draws: classes, its n_p
    persons (every person once and the rest with replacement when the
    camera has fewer than n_p), and samples, the (n_p, n_k) sample
    indices of each person's n_k draws among its samples (with
    replacement when it has fewer than n_k).  The camera is checked.
    """
    _camera_persons(dataset, camera_id)
    return PKBatch(sample_indices=samples, classes=classes)


def camera_shares(dataset: Dataset, batch_total: int) -> tuple[int, tuple[np.ndarray, ...]]:
    """Per-camera quota floor(batch_total / n_cameras) of a camera-balanced
    batch, and each camera's sample indices.

    Rejected when the quota floors to zero or a camera is empty.
    """
    quota = batch_total // dataset.n_cameras
    if quota < 1:
        raise ConfigError(
            f"classification batch of {batch_total} across {dataset.n_cameras} cameras "
            "leaves zero samples per camera"
        )
    cameras = dataset.camera_members()
    for cam, idx in enumerate(cameras):
        if idx.size == 0:
            raise ContractError(f"camera {cam} has no samples; camera-balanced batch impossible")
    return quota, cameras


def classification_sampler(dataset: Dataset, batch_total: int, places: np.ndarray) -> np.ndarray:
    """Camera-balanced batch: camera_shares' quota from each camera, at
    its row of places in its sample list (an epoch plan's draws: one
    choice per camera, with replacement when the camera has fewer
    samples).

    Returns dataset sample indices in camera order.
    """
    _, cameras = camera_shares(dataset, batch_total)
    return np.concatenate([idx[p] for idx, p in zip(cameras, places)])


@dataclass
class TrainState:
    """Everything a run carries between iterations; train mutates one, the
    epoch callback sees it live.  rng draws the batches, one epoch plan
    per epoch, the epoch is len(log.records) and final_affinity is the
    latest joint epoch's; it is None while the next one is built, so the
    two are never held at once."""

    model: EmbeddingModel
    head: ClassifierHead
    optimizer: Optimizer
    opt_state: OptimizerState
    buffer: PersonBuffer
    rng: np.random.Generator
    log: TrainLog = field(default_factory=TrainLog)
    final_affinity: AffinityMatrix | None = None


def _epoch_start(state: TrainState, dataset: Dataset, config: TrainConfig) -> tuple:
    """Rebuild the affinity from the buffer into state.final_affinity,
    refusing columns no warmup batch filled: (degenerate row count,
    affinity-quality mAP or None without full truth).

    The last epoch's affinity goes before the build, and the build streams
    its distances one product block at a time, so no C x C array is ever
    alive; what stays is the new affinity's k-sparse tables."""
    index = dataset.index
    cams, missed = np.unique(index.camera_of_class_array()[~state.buffer.initialized],
                             return_counts=True)
    if cams.size:
        raise ConfigError(
            f"{config.warmup_epochs} warmup epoch(s) never drew " + ", ".join(
                f"{m} of the {index.counts[c]} persons of camera {c}" for c, m in zip(cams, missed)
            ) + " into an intra-camera batch; raise warmup_epochs, or n_p to the camera's person "
            f"count ({max(index.counts[c] for c in cams)})"
        )
    state.final_affinity = None
    state.final_affinity = aff = build_affinity(state.buffer, index, config.k,
                                                mask_same_camera=config.mask_same_camera)
    truth = dataset.truth_of_class_array() if dataset.has_full_truth() else None
    quality = affinity_quality_map(aff, truth) if truth is not None else None
    return int(np.count_nonzero(aff.soft_labels.degenerate)), quality


# The loss steps return (loss, terms, skipped anchors, gradient dicts in
# merge order); a step without terms returns loss 0.0 and no gradients.
# Each backward takes the hidden activations of its batch's forward in the
# same iteration, before sgd_step changes the parameters.  The soft-label
# steps read the epoch's affinity from state.final_affinity.  Each step
# takes its iteration's planned draws (plan.Draws).

def _intra_step(state: TrainState, dataset: Dataset, config: TrainConfig, pk: PKBatch,
                mining: np.ndarray | None = None) -> tuple:
    """Within-camera triplet on one PK batch, with random mining at the
    planned mining places: (X, its hidden activations, its TripletBatch,
    step result); the D step reuses the first three."""
    X = dataset.features[pk.sample_indices.reshape(-1)]
    E, H = forward_with_hidden(state.model, X)
    tb = TripletBatch(E.reshape(config.n_p, config.n_k, -1), pk.classes)
    if config.mining_mode == "hard":
        lv = intra_triplet_loss(tb, config.margin)
    else:
        lv = random_triplet_loss(tb, config.margin, mining)
    n = E.shape[0]
    dE = lv.grads["embeddings"].reshape(n, -1)
    dE /= n
    return X, H, tb, (lv.loss, n, 0, [backward(state.model, X, dE, H)])


def _soft_ce_step(state: TrainState, dataset: Dataset, config: TrainConfig,
                  places: np.ndarray) -> tuple:
    """Soft cross-entropy ("C") on the camera-balanced batch at the planned
    places; samples whose soft-label row is degenerate add no term and
    get a zero score gradient row.  The head's scores become the
    probabilities and then the score gradient in place, scaled in place,
    so the step holds one batch x C array; the batch's forward
    activations go to its backward."""
    cls_idx = classification_sampler(dataset, config.class_batch_total, places)
    Xc = dataset.features[cls_idx]
    Vc, Hc = forward_with_hidden(state.model, Xc)
    scores = head_forward(state.head, Vc)
    probs = softmax_probs(scores, out=scores)
    labels = state.final_affinity.soft_labels.take(dataset.class_ids[cls_idx])
    n = int(np.count_nonzero(labels.count))  # the rows that are not degenerate
    if not n:
        return 0.0, 0, cls_idx.size, []
    wce = weighted_cross_entropy(probs, labels, out=probs)
    dS = wce.grads["scores"]
    dS *= config.lam / n
    head_grads, dVc = head_backward(state.head, Vc, dS)
    return wce.loss, n, cls_idx.size - n, [backward(state.model, Xc, dVc, Hc), head_grads]


def _d_step(state: TrainState, dataset: Dataset, config: TrainConfig, X: np.ndarray,
            H: np.ndarray, tb: TripletBatch, positives: tuple[np.ndarray, np.ndarray]) -> tuple:
    """Weighted soft triplet ("D") with every row of the intra batch an
    anchor: X, its hidden activations H and tb are the intra step's, and
    the positives' activations come from their own forward, at the
    planned (places, slots) of the positives.  An anchor
    whose affinity row has no candidate is skipped; the gradients on the
    batch and on the positives are scaled by lam / anchors used."""
    E, labels = tb.flat()
    picks, weights, valid = select_positives(
        labels, state.final_affinity, dataset, *positives, weighting_mode=config.weighting_mode)
    anchors = np.flatnonzero(valid)
    if not anchors.size:
        return 0.0, 0, valid.size, []
    Ea = E[anchors]
    # intra_triplet_loss has checked that the batch holds two persons.
    neg = select_hardest_negative(Ea, E, labels, labels[anchors])
    Xp = dataset.features[picks.reshape(-1)]
    Vp, Hp = forward_with_hidden(state.model, Xp)
    wtl = weighted_triplet_loss(Ea, Vp.reshape(anchors.size, config.n_k, -1), weights, E[neg],
                                config.margin)
    # Each row gains its anchor and negative terms in anchor order.
    dE = np.zeros(E.shape, E.dtype)
    add_rows(dE, np.stack([anchors, neg], axis=1).ravel(),
             np.stack([wtl.grads["anchor"], wtl.grads["negative"]], axis=1).reshape(-1, E.shape[1]))
    dVp = wtl.grads["positives"].reshape(Vp.shape)
    dVp += 0.0  # a -0.0 gradient becomes +0.0, as when added to zeros
    scale = config.lam / anchors.size
    dE *= scale
    dVp *= scale
    return (wtl.loss, anchors.size, valid.size - anchors.size,
            [backward(state.model, X, dE, H), backward(state.model, Xp, dVp, Hp)])


def _update_buffer(buf: PersonBuffer, tb: TripletBatch) -> None:
    """Fold a batch's pre-update embeddings into the buffer, one call per
    distinct count of rows per person (one call when the persons are
    distinct), each person's rows in batch order, and tick the round."""
    rows_of: dict[int, list[int]] = {}
    for r, c in enumerate(tb.classes.tolist()):
        rows_of.setdefault(c, []).append(r)
    by_count: dict[int, tuple[list[int], list[int]]] = {}  # persons and their rows, in turn
    for c, rows in rows_of.items():
        classes, members = by_count.setdefault(len(rows), ([], []))
        classes.append(c)
        members.extend(rows)
    for classes, members in by_count.values():
        update_person(buf, np.array(classes),
                      tb.embeddings[members].reshape(len(classes), -1, tb.embeddings.shape[2]))
    buf.t += 1


EpochCallback = Callable[[int, TrainState], None]


def _soft_terms(config: TrainConfig) -> tuple[bool, bool]:
    """Whether the joint epochs take the C term and the D term."""
    active = config.epochs > config.warmup_epochs and config.lam > 0.0
    return active and config.inter_mode in ("C", "C+D"), active and config.inter_mode in ("D", "C+D")


def check_corpus(dataset: Dataset, config: TrainConfig) -> list[int]:
    """The camera of each iteration of an epoch (the cameras of at least
    two persons in turn, from the first), once config and dataset are
    known to train together: refused with a ConfigError or ContractError
    are an invalid config, a split other than train, an empty dataset, a
    C term whose camera-balanced batch cannot be drawn (camera_shares),
    no camera of two persons and, with joint epochs, a one-person camera
    or fewer batches per epoch than such cameras.  train calls it before
    anything is drawn, and benchmark.run_settings for every setting
    before the first one trains.  (Whether the warmup epochs reached
    every person is known only once they have drawn; the first joint
    epoch checks it.)"""
    config.validate()
    if dataset.split != "train":
        raise ContractError(f"training expects the train split, got {dataset.split!r}")
    if len(dataset) == 0:
        raise ContractError("cannot train on an empty dataset")
    if _soft_terms(config)[0]:
        camera_shares(dataset, config.class_batch_total)
    joint_epochs = config.epochs > config.warmup_epochs
    counts = dataset.index.counts
    eligible_cams = [c for c in range(dataset.n_cameras) if counts[c] >= 2]
    if not eligible_cams:
        raise ContractError("no camera has >= 2 persons; intra-camera triplets impossible")
    iters_per_epoch = math.ceil(len(dataset) / (config.n_p * config.n_k))
    lone = [c for c in range(dataset.n_cameras) if counts[c] == 1]
    if joint_epochs and lone:
        raise ConfigError(
            f"camera {lone[0]} has a single person, whom intra-camera batches never draw, so the "
            "first joint epoch would find its buffer column empty; give every camera at least "
            "2 persons or drop that camera, or set epochs equal to warmup_epochs (warmup only)"
        )
    if joint_epochs and iters_per_epoch < len(eligible_cams):
        raise ConfigError(
            f"an epoch makes {iters_per_epoch} intra-camera batch(es) of n_p * n_k samples, one "
            f"camera each in turn from the first, so camera {eligible_cams[iters_per_epoch]} never "
            "gets one and its buffer columns stay empty; lower n_p or n_k"
        )
    return [eligible_cams[it % len(eligible_cams)] for it in range(iters_per_epoch)]


def train(
    dataset: Dataset,
    config: TrainConfig,
    query: Dataset | None = None,
    gallery: Dataset | None = None,
    epoch_callback: EpochCallback | None = None,
) -> TrainState:
    """Run the full schedule on a training dataset.

    When query and gallery are given, retrieval metrics are computed
    after every epoch and logged.  epoch_callback, when given, observes
    the live state after each epoch (used for checkpointing).

    Every epoch draws its batches through one epoch plan
    (plan.plan_epoch), made after the epoch's affinity and before its
    first iteration; each iteration hands its planned draws to
    pk_sampler, random_triplet_loss, classification_sampler and
    select_positives, one call each, which map them to samples and
    picks.  The generator's state at each epoch boundary is the one
    numpy's per-iteration calls would leave, and a TrainingError leaves
    the generator past all of the epoch's planned draws.
    """
    cams = check_corpus(dataset, config)
    use_c, use_d = _soft_terms(config)
    init_seed, train_seed = np.random.SeedSequence(config.seed).spawn(2)
    rng_init = np.random.default_rng(init_seed)
    state = TrainState(
        model=init_model(dataset.d_in, config.hidden_dim, config.embed_dim, rng_init),
        head=init_head(config.embed_dim, dataset.index.total, rng_init),
        optimizer=config.optimizer(), opt_state=OptimizerState(),
        buffer=new_buffer(config.embed_dim, dataset.index.total),
        rng=np.random.default_rng(train_seed),
    )

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        joint = epoch > config.warmup_epochs
        degenerate_rows, affinity_map = _epoch_start(state, dataset, config) if joint else (0, None)
        intra, inter = [0.0, 0], [0.0, 0]  # loss sum and terms of each phase
        skipped = 0
        plan = plan_epoch(
            state.rng, dataset, cams, config.n_p, config.n_k,
            random_mining=config.mining_mode == "random",
            shares=camera_shares(dataset, config.class_batch_total) if joint and use_c else None,
            candidates=state.final_affinity.candidates if joint and use_d else None,
            nearest=config.positive_sampling == "nearest",
        )
        for it, (cam, drawn) in enumerate(zip(cams, plan)):
            pk = pk_sampler(dataset, cam, *drawn.pk)
            X, H, tb, out = _intra_step(state, dataset, config, pk, drawn.mining)
            # In merge order; a step runs only once the one before it passed the check.
            steps = [(intra, "intra loss", lambda: out)]
            if joint and use_c:
                steps.append((inter, "soft cross-entropy",
                              lambda: _soft_ce_step(state, dataset, config, drawn.cls)))
            if joint and use_d:
                steps.append((inter, "weighted triplet loss",
                              lambda: _d_step(state, dataset, config, X, H, tb, drawn.positives)))
            grads: dict[str, np.ndarray] = {}
            for sums, what, step in steps:
                loss, terms, skip, step_grads = step()
                skipped += skip
                if not terms:
                    continue
                if not math.isfinite(loss):
                    raise TrainingError(f"non-finite {what} at epoch {epoch}, iteration {it}")
                for part in step_grads:
                    for name, g in part.items():
                        grads[name] = grads[name] + g if name in grads else g
                sums[0] += loss
                sums[1] += terms
            sgd_step(state.model, state.head, grads, state.optimizer, state.opt_state, epoch)
            _update_buffer(state.buffer, tb)

        val_map = val_rank1 = None
        if query is not None and gallery is not None:
            res = evaluation.evaluate(state.model, query, gallery)
            val_map, val_rank1 = res.map, res.cmc[1]
        state.log.records.append(EpochRecord(
            epoch, intra[0] / max(intra[1], 1), inter[0] / inter[1] if inter[1] else 0.0,
            affinity_map, val_map, val_rank1, skipped, degenerate_rows, time.perf_counter() - t0,
        ))
        if epoch_callback is not None:
            epoch_callback(epoch, state)
    return state
