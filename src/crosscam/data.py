"""Multi-camera datasets with intra-camera labels.

A dataset is a collection of feature vectors, each tagged with the camera
that produced it and a person label that is only unique within that
camera.  A hidden global identity is carried alongside for evaluation of
synthetic data; the trainer never reads it.

The synthetic generator produces clusters in a latent space and pushes
them through per-camera affine distortions, so the same person looks
systematically different under different cameras.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, ContractError, FormatError, NonFiniteFeatureError, VersionError

DATASET_FORMAT = "crosscam-dataset"
DATASET_VERSION = "v1"

SPLITS = ("train", "query", "gallery")
# The most cameras a dataset may declare (public re-identification corpora
# have at most 15), so that a corrupt header cannot size the person index.
MAX_CAMERAS = 1024


def first_non_finite(features: np.ndarray) -> int | None:
    """Index of the first row holding NaN or infinity, or None."""
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    return int(bad[0]) if bad.size else None


class PersonIndex:
    """Bijection between (camera_id, local_person_id) pairs and flat class indices.

    Camera i's persons occupy the contiguous index block
    [sum(counts[:i]), sum(counts[:i+1])), in local-id order, so the whole
    table is determined by the per-camera person counts.
    """

    def __init__(self, counts: tuple[int, ...]):
        if any(c < 0 for c in counts):
            raise ContractError(f"negative person count in {counts}")
        self.counts = tuple(int(c) for c in counts)
        self.offsets = tuple(int(x) for x in np.concatenate([[0], np.cumsum(self.counts)]))
        self.total = self.offsets[-1]

    @property
    def n_cameras(self) -> int:
        return len(self.counts)

    def camera_of_class_array(self) -> np.ndarray:
        """Camera id of every class index, shape (total,)."""
        return np.repeat(np.arange(len(self.counts), dtype=np.int64), self.counts)

    def __repr__(self) -> str:
        return f"PersonIndex(counts={self.counts})"


class Dataset:
    """Immutable container of samples plus the person index resolving them.

    Storage is columnar: one array per field, one entry per sample.
    """

    def __init__(
        self,
        features: np.ndarray,
        camera_ids: np.ndarray,
        local_ids: np.ndarray,
        truth: np.ndarray,
        n_cameras: int,
        split: str,
    ):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ContractError(f"features must be 2-d, got shape {features.shape}")
        n = features.shape[0]
        camera_ids = np.asarray(camera_ids, dtype=np.int64)
        local_ids = np.asarray(local_ids, dtype=np.int64)
        truth = np.asarray(truth, dtype=np.int64)
        if camera_ids.shape != (n,) or local_ids.shape != (n,) or truth.shape != (n,):
            raise ContractError("per-sample arrays must all have one entry per sample")
        if split not in SPLITS:
            raise ContractError(f"split must be one of {SPLITS}, got {split!r}")
        if n_cameras > MAX_CAMERAS:
            raise ContractError(f"n_cameras {n_cameras} is above MAX_CAMERAS = {MAX_CAMERAS}")
        off = np.flatnonzero((camera_ids < 0) | (camera_ids >= n_cameras))
        if off.size:
            raise ContractError(f"sample {off[0]}: camera_id out of range", sample=int(off[0]))
        bad = first_non_finite(features)
        if bad is not None:
            raise NonFiniteFeatureError(f"sample {bad}: non-finite feature value", sample=bad)

        self.features = features
        self.camera_ids = camera_ids
        self.local_ids = local_ids
        self.truth = truth  # -1 encodes "unknown"
        self.n_cameras = int(n_cameras)
        self.d_in = int(features.shape[1])
        self.split = split
        self.index = self._build_index()
        self.class_ids = self._resolve_classes()
        self._by_class: tuple[np.ndarray, np.ndarray] | None = None
        self._by_camera: tuple[np.ndarray, ...] | None = None
        self._check_truth_purity()
        self.features.setflags(write=False)
        self.camera_ids.setflags(write=False)
        self.local_ids.setflags(write=False)
        self.truth.setflags(write=False)

    def _build_index(self) -> PersonIndex:
        # Each camera's local ids must be exactly 0..k-1, so an id outside [0, n)
        # is wrong; clipped, each (camera, id) is one int64 key, sorted once.
        n = len(self)
        key = self.camera_ids * (n + 2) + np.clip(self.local_ids, -1, n) + 1
        cams, locs = np.divmod(np.unique(key), n + 2)
        counts = np.bincount(cams, minlength=self.n_cameras)
        wrong = cams[locs - 1 != np.arange(cams.size) - (np.cumsum(counts) - counts)[cams]]
        if wrong.size:  # the first sample of the lowest wrong camera whose id is out of range
            here = np.flatnonzero(self.camera_ids == wrong[0])
            uniq = np.unique(self.local_ids[here])
            bad = int(here[(self.local_ids[here] < 0) | (self.local_ids[here] >= uniq.size)][0])
            raise ContractError(f"camera {wrong[0]}: local person ids must be exactly "
                                f"0..{uniq.size - 1}, got {uniq.tolist()[:8]}...", sample=bad)
        return PersonIndex(tuple(counts.tolist()))

    def _check_truth_purity(self) -> None:
        # Known truths grouped by person, in file order within a person: each
        # must equal its person's first.
        order = self.class_members()[0]
        order = order[self.truth[order] != -1]
        truth = self.truth[order]
        head = np.flatnonzero(np.diff(self.class_ids[order], prepend=-1))
        lead = np.repeat(truth[head], np.diff(head, append=order.size))
        bad = np.flatnonzero(truth != lead)
        if bad.size:  # the first such sample in file order
            at = bad[np.argmin(order[bad])]
            i = int(order[at])
            raise ContractError(
                f"person {(int(self.camera_ids[i]), int(self.local_ids[i]))} has inconsistent "
                f"truth identities {int(lead[at])} and {int(truth[at])}", sample=i)

    def _resolve_classes(self) -> np.ndarray:
        return np.asarray(self.index.offsets[:-1], dtype=np.int64)[self.camera_ids] + self.local_ids

    def __len__(self) -> int:
        return self.features.shape[0]

    def class_members(self) -> tuple[np.ndarray, np.ndarray]:
        """Sample indices grouped by class, in file order within a class,
        and the (C + 1,) offsets of each class's group."""
        if self._by_class is None:
            order = np.argsort(self.class_ids, kind="stable")
            starts = np.searchsorted(self.class_ids[order], np.arange(self.index.total + 1))
            order.setflags(write=False)
            self._by_class = (order, starts)
        return self._by_class

    def camera_members(self) -> tuple[np.ndarray, ...]:
        """Each camera's sample indices in file order, read-only, one
        array per camera."""
        if self._by_camera is None:
            order = np.argsort(self.camera_ids, kind="stable")
            order.setflags(write=False)
            starts = np.searchsorted(self.camera_ids[order], np.arange(self.n_cameras + 1))
            self._by_camera = tuple(order[a:b] for a, b in zip(starts[:-1], starts[1:]))
        return self._by_camera

    def has_full_truth(self) -> bool:
        return bool(np.all(self.truth >= 0)) if len(self) else True

    def truth_of_class_array(self) -> np.ndarray:
        """Truth identity per class index (-1 where unknown), shape (C,)."""
        out = np.full(self.index.total, -1, dtype=np.int64)
        out[self.class_ids] = self.truth
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.split == other.split
            and self.n_cameras == other.n_cameras
            and self.d_in == other.d_in
            and self.features.shape == other.features.shape
            and bool(np.all(self.features == other.features))
            and bool(np.all(self.camera_ids == other.camera_ids))
            and bool(np.all(self.local_ids == other.local_ids))
            and bool(np.all(self.truth == other.truth))
        )

    def __repr__(self) -> str:
        return (
            f"Dataset(split={self.split!r}, n={len(self)}, d_in={self.d_in}, "
            f"n_cameras={self.n_cameras}, C={self.index.total})"
        )


@dataclass(frozen=True)
class SynthSpec:
    """Knobs of the synthetic corpus generator.

    n_identities counts training identities; a disjoint held-out pool of
    max(10, n_identities // 4) identities is generated for query/gallery.
    camera_transform_scale controls how far each camera's affine map
    deviates from a shared base projection (0 means all cameras agree),
    noise_sigma is per-sample isotropic noise.
    """

    n_identities: int = 200
    n_cameras: int = 4
    d_latent: int = 4
    d_in: int = 32
    images_per_person: int = 6
    camera_appearance_prob: float = 0.6
    camera_transform_scale: float = 0.4
    noise_sigma: float = 0.35
    seed: int = 0

    def validate(self) -> None:
        if self.n_identities < 1:
            raise ContractError("n_identities must be >= 1")
        if self.n_cameras < 2:
            raise ContractError("n_cameras must be >= 2: cross-camera learning is undefined")
        if self.n_cameras > MAX_CAMERAS:
            raise ContractError(f"n_cameras {self.n_cameras} is above MAX_CAMERAS = {MAX_CAMERAS}")
        if self.images_per_person < 2:
            raise ContractError("images_per_person must be >= 2: no positive pairs otherwise")
        if self.d_latent < 1 or self.d_in < 1:
            raise ContractError("d_latent and d_in must be >= 1")
        if not (0.0 <= self.camera_appearance_prob <= 1.0):
            raise ContractError("camera_appearance_prob must be in [0, 1]")
        if self.camera_transform_scale < 0 or self.noise_sigma < 0:
            raise ContractError("camera_transform_scale and noise_sigma must be >= 0")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")


# The JSON values each annotated field type accepts.
_FIELD_VALUES = {"int": int, "float": (int, float), "float | None": (int, float, type(None)),
                 "bool": bool, "str": str}


def field_accepts(want: str, value) -> bool:
    """Whether a JSON value fits a dataclass field annotated want; a bool is not an int."""
    return isinstance(value, bool) == (want == "bool") and isinstance(value, _FIELD_VALUES[want])


def dataclass_from_dict(cls, values: dict, base=None):
    """A validated settings object (TrainConfig, SynthSpec): base, by default
    cls(), with the given fields replaced.

    A key that is not a field, or a value whose type does not fit its
    field, is refused with a ConfigError naming the key.  An int is
    accepted for a float field and stored as a float; a bool is not an int.
    """
    types = {f.name: f.type for f in fields(cls)}
    for key, value in values.items():
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        want = types[key]
        if not field_accepts(want, value):
            raise ConfigError(
                f"config key {key!r} must be a {want}, got {type(value).__name__} {value!r}"
            )
    obj = replace(base or cls(), **{k: float(v) if types[k] == "float" else v
                                    for k, v in values.items()})
    obj.validate()
    return obj


def _draw_cameras(rng: np.random.Generator, n_cameras: int, prob: float, minimum: int) -> np.ndarray:
    """Bernoulli camera subset with at least `minimum` members, resampling as needed."""
    for _ in range(200):
        mask = rng.random(n_cameras) < prob
        if mask.sum() >= minimum:
            return mask
    # Probability too small to hit the minimum by chance: force a uniform choice.
    forced = rng.choice(n_cameras, size=minimum, replace=False)
    mask = np.zeros(n_cameras, dtype=bool)
    mask[forced] = True
    return mask


def generate_synthetic(spec: SynthSpec) -> dict[str, Dataset]:
    """Generate {train, query, gallery} datasets with hidden cross-camera truth.

    Each identity g gets a latent vector z_g; a sample of g under camera j
    is A_j @ z_g + b_j + noise, where A_j and b_j deviate from a shared
    base projection by camera_transform_scale.  Held-out identities (the
    query/gallery pool) are forced to appear under at least two cameras so
    every query has a cross-camera match.
    """
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))

    base = rng.standard_normal((spec.d_in, spec.d_latent)) / np.sqrt(spec.d_latent)
    cam_A = []
    cam_b = []
    for _ in range(spec.n_cameras):
        d_a = rng.standard_normal((spec.d_in, spec.d_latent)) / np.sqrt(spec.d_latent)
        d_b = rng.standard_normal(spec.d_in)
        cam_A.append(base + spec.camera_transform_scale * d_a)
        cam_b.append(spec.camera_transform_scale * d_b)

    n_eval = max(10, spec.n_identities // 4)
    latents = rng.standard_normal((spec.n_identities + n_eval, spec.d_latent))

    def emit(identity: int, cam: int) -> np.ndarray:
        mean = cam_A[cam] @ latents[identity] + cam_b[cam]
        noise = rng.standard_normal((spec.images_per_person, spec.d_in))
        return mean[None, :] + spec.noise_sigma * noise

    # Each (identity, camera) appearance is one block of rows: (rows, camera, identity).
    # Train identities: 0..G-1, each under >= 1 camera.
    train = []
    for g in range(spec.n_identities):
        mask = _draw_cameras(rng, spec.n_cameras, spec.camera_appearance_prob, minimum=1)
        train.extend((emit(g, cam), cam, g) for cam in np.flatnonzero(mask).tolist())

    # Held-out identities: G..G+n_eval-1, each under >= 2 cameras so that
    # one query per (identity, camera) always has a cross-camera match in
    # the gallery remainder.
    held_out = []
    for g in range(spec.n_identities, spec.n_identities + n_eval):
        mask = _draw_cameras(rng, spec.n_cameras, spec.camera_appearance_prob, minimum=2)
        held_out.extend((emit(g, cam), cam, g) for cam in np.flatnonzero(mask).tolist())

    return {
        "train": _dataset_of_blocks(train, spec.n_cameras, "train"),
        "query": _dataset_of_blocks([(rows[:1], c, g) for rows, c, g in held_out],
                                    spec.n_cameras, "query"),
        "gallery": _dataset_of_blocks([(rows[1:], c, g) for rows, c, g in held_out],
                                      spec.n_cameras, "gallery"),
    }


def _dataset_of_blocks(blocks: list, n_cameras: int, split: str) -> Dataset:
    """A Dataset of (rows, camera, identity) blocks, one person each: each
    camera's local ids count its blocks in order."""
    rows, cams, ids = zip(*blocks)
    cams = np.array(cams, dtype=np.int64)
    order = np.argsort(cams, kind="stable")
    local = np.empty_like(cams)
    local[order] = np.arange(cams.size) - np.searchsorted(cams[order], cams[order])
    sizes = [len(r) for r in rows]
    return Dataset(np.concatenate(rows), np.repeat(cams, sizes), np.repeat(local, sizes),
                   np.repeat(np.array(ids, dtype=np.int64), sizes), n_cameras, split)


def save_dataset(ds: Dataset, path: str | os.PathLike) -> None:
    """Write a dataset as self-describing text, atomically."""
    lines = [
        f"{DATASET_FORMAT} {DATASET_VERSION}",
        f"split {ds.split}",
        f"n_cameras {ds.n_cameras}",
        f"d_in {ds.d_in}",
        f"n_samples {len(ds)}",
    ]
    columns = zip(ds.camera_ids.tolist(), ds.local_ids.tolist(), ds.truth.tolist(), ds.features)
    lines.extend(" ".join([str(cam), str(loc), "-" if t == -1 else str(t), *map(repr, row.tolist())])
                 for cam, loc, t, row in columns)
    lines.append("end")
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_text_atomic(path: str | os.PathLike, content: str) -> None:
    """Write to a temp file in the same directory, then rename into place."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_lines(path: str, fmt: str, version: str) -> list[str]:
    """The lines of a text file whose first line is 'fmt version'; an
    unreadable or empty file, another format or another version is refused."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise FormatError(path, None, f"cannot read file: {e}") from e
    if not lines:
        raise FormatError(path, 1, "empty file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != fmt:
        raise FormatError(path, 1, f"not a {fmt} file: {lines[0]!r}")
    if head[1] != version:
        raise VersionError(path, 1, f"unsupported version {head[1]!r}, expected {version}")
    return lines


def _expect_header(path: str, lines: list[str], lineno: int, key: str, count: bool = False):
    """The value of header line lineno, 'key value'; with count, an int >= 0."""
    if lineno >= len(lines):
        raise FormatError(path, lineno + 1, f"missing '{key}' header line")
    parts = lines[lineno].split(maxsplit=1)
    if len(parts) != 2 or parts[0] != key:
        raise FormatError(path, lineno + 1, f"expected '{key} <value>', got {lines[lineno]!r}")
    if count and not (parts[1].isascii() and parts[1].isdigit()):
        raise FormatError(path, lineno + 1, f"'{key}' must be an integer >= 0, got {parts[1]!r}")
    return int(parts[1]) if count else parts[1]


def load_dataset(path: str | os.PathLike) -> Dataset:
    path = os.fspath(path)
    lines = read_lines(path, DATASET_FORMAT, DATASET_VERSION)
    split = _expect_header(path, lines, 1, "split")
    if split not in SPLITS:
        raise FormatError(path, 2, f"unknown split {split!r}")
    n_cameras, d_in, n_samples = (_expect_header(path, lines, i, key, count=True)
                                  for i, key in enumerate(("n_cameras", "d_in", "n_samples"), 2))
    # Every size is checked, against its limit or the records, before anything is allocated.
    if n_cameras > MAX_CAMERAS:
        raise FormatError(path, 3, f"n_cameras {n_cameras} is above MAX_CAMERAS = {MAX_CAMERAS}")
    first_record = 5
    if n_samples > len(lines) - first_record:
        raise FormatError(path, 5, f"n_samples {n_samples}, but only "
                                   f"{len(lines) - first_record} lines follow the header")
    width = len(lines[first_record].split()) - 3 if n_samples else d_in
    if width != d_in:
        raise FormatError(path, 4, f"d_in {d_in}, but record 0 has {width} feature values")
    try:
        features = np.zeros((n_samples, d_in), dtype=np.float64)
    except ValueError as e:  # with no record to bound it, d_in can pass any array's size
        raise FormatError(path, 4, f"d_in {d_in}: {e}") from e
    cams = np.zeros(n_samples, dtype=np.int64)
    locs = np.zeros(n_samples, dtype=np.int64)
    truth = np.full(n_samples, -1, dtype=np.int64)
    for r in range(n_samples):
        lineno = first_record + r
        parts = lines[lineno].split()
        if len(parts) != 3 + d_in:
            raise FormatError(
                path, lineno + 1,
                f"record {r}: expected {3 + d_in} fields, got {len(parts)}",
            )
        try:
            cams[r] = int(parts[0])
            locs[r] = int(parts[1])
            truth[r] = -1 if parts[2] == "-" else int(parts[2])
            features[r] = [float(v) for v in parts[3:]]
        except (ValueError, OverflowError) as e:
            raise FormatError(path, lineno + 1, f"record {r}: {e}") from e

    bad = first_non_finite(features)
    if bad is not None:
        raise FormatError(path, first_record + bad + 1, f"record {bad}: non-finite feature value")

    endline = first_record + n_samples
    if endline >= len(lines) or lines[endline] != "end":
        raise FormatError(path, endline + 1, "missing 'end' marker (truncated file?)")

    try:
        return Dataset(features, cams, locs, truth, n_cameras, split)
    except ContractError as e:  # each check a file can fail names its sample
        line = None if e.sample is None else first_record + e.sample + 1
        raise FormatError(path, line, f"inconsistent dataset: {e}") from e
