"""Two-layer MLP feature extractor, linear classifier head, momentum SGD.

Gradients are written out by hand; there is no autodiff anywhere in the
package.  The embedding body and the classifier head use separate
learning rates (the body plays the "fine-tuned backbone" role, the head
the "freshly initialized layer" role), both decayed once at a fixed
epoch.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

import numpy as np

from .data import first_non_finite, read_lines, write_text_atomic
from .errors import ContractError, FormatError, TrainingError

CHECKPOINT_FORMAT = "crosscam-checkpoint"
CHECKPOINT_VERSION = "v1"
# Prefixes of the names a checkpoint always writes; extra names may not use them.
RESERVED_PREFIXES = ("model.", "head.", "velocity.", "optimizer.")


@dataclass
class EmbeddingModel:
    """v = W2 @ relu(W1 @ x + b1) + b2."""

    W1: np.ndarray  # (hidden, d_in)
    b1: np.ndarray  # (hidden,)
    W2: np.ndarray  # (d, hidden)
    b2: np.ndarray  # (d,)

    @property
    def d_in(self) -> int:
        return self.W1.shape[1]

    @property
    def d(self) -> int:
        return self.W2.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}


@dataclass
class ClassifierHead:
    """scores = Wc @ v + bc, one row per training person."""

    Wc: np.ndarray  # (n_classes, d)
    bc: np.ndarray  # (n_classes,)

    @property
    def n_classes(self) -> int:
        return self.Wc.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {"Wc": self.Wc, "bc": self.bc}


@dataclass(frozen=True)
class Optimizer:
    """Momentum SGD settings; learning rates drop once at decay_epoch."""

    learning_rate_pretrained: float = 0.1
    learning_rate_new: float = 0.01
    momentum: float = 0.9
    decay_epoch: int = 200
    decay_factor: float = 0.1

    def invalid(self) -> tuple[str, str] | None:
        """(field, reason) of the first setting SGD cannot run with, or None.

        The one source of these rules, for configs and checkpoints alike.
        """
        for name, ok, want in (
            ("learning_rate_pretrained", 0 < self.learning_rate_pretrained < np.inf, "finite and > 0"),
            ("learning_rate_new", 0 < self.learning_rate_new < np.inf, "finite and > 0"),
            ("momentum", 0 <= self.momentum < 1, "in [0, 1)"),
            ("decay_epoch", self.decay_epoch >= 1, ">= 1"),
            ("decay_factor", 0 < self.decay_factor < np.inf, "finite and > 0"),
        ):
            if not ok:
                return name, f"{name} must be {want}, got {getattr(self, name)!r}"
        return None

    def effective_rates(self, epoch: int) -> tuple[float, float]:
        """(body lr, head lr) at a 1-based epoch; decayed once from decay_epoch on."""
        f = self.decay_factor if epoch >= self.decay_epoch else 1.0
        return self.learning_rate_pretrained * f, self.learning_rate_new * f


# Parameters that belong to the embedding body; the rest are the classifier head's.
BODY_PARAMS = ("W1", "b1", "W2", "b2")


@dataclass
class OptimizerState:
    """Momentum velocity per parameter, created lazily on first update and
    updated in place by every later one."""

    velocities: dict[str, np.ndarray] = field(default_factory=dict)


def init_model(d_in: int, hidden: int, d_embed: int, rng: np.random.Generator) -> EmbeddingModel:
    """He fan-in weights (ReLU-appropriate), zero biases."""
    if min(d_in, hidden, d_embed) < 1:
        raise ContractError("all model dimensions must be >= 1")
    W1 = rng.standard_normal((hidden, d_in)) * np.sqrt(2.0 / d_in)
    W2 = rng.standard_normal((d_embed, hidden)) * np.sqrt(2.0 / hidden)
    return EmbeddingModel(W1, np.zeros(hidden), W2, np.zeros(d_embed))


def init_head(d_embed: int, n_classes: int, rng: np.random.Generator) -> ClassifierHead:
    if n_classes < 1:
        raise ContractError("head needs at least one class")
    Wc = rng.standard_normal((n_classes, d_embed)) * np.sqrt(1.0 / d_embed)
    return ClassifierHead(Wc, np.zeros(n_classes))


def forward_with_hidden(model: EmbeddingModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Embed a batch of inputs, rows of X: the (n, d) embeddings and the
    (n, hidden) activations relu(X @ W1.T + b1) that backward takes.

    The biases and the ReLU are applied in place on the products, so the
    two results are the only arrays allocated.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.d_in:
        raise ContractError(f"batch shape {X.shape} incompatible with d_in {model.d_in}")
    hidden = X @ model.W1.T
    hidden += model.b1
    np.maximum(hidden, 0.0, out=hidden)
    V = hidden @ model.W2.T
    V += model.b2
    return V, hidden


def forward_batch(model: EmbeddingModel, X: np.ndarray) -> np.ndarray:
    """Embed a batch of inputs, rows of X; returns (n, d): the embeddings
    of forward_with_hidden, for callers that do not back-propagate."""
    return forward_with_hidden(model, X)[0]


def backward(model: EmbeddingModel, X: np.ndarray, dV: np.ndarray,
             hidden: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of sum_i <dV[i], v_i> with respect to the parameters.

    dV holds the upstream gradient of the loss with respect to each output
    embedding, and hidden the activations forward_with_hidden returned
    for X; they must come from the current parameters, since the first
    layer is not computed again.  The ReLU subgradient at exactly zero is
    taken as zero: dV @ W2 is kept where hidden > 0 (never at a NaN) by
    AND-ing its bits with an all-ones or all-zeros mask, which writes
    +0.0 elsewhere whatever the value, NaN, infinities and -0.0 included,
    without a branch per element.
    """
    X = np.asarray(X, dtype=np.float64)
    dV = np.asarray(dV, dtype=np.float64)
    hidden = np.asarray(hidden, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.d_in:
        raise ContractError(f"batch shape {X.shape} incompatible with d_in {model.d_in}")
    if dV.shape != (X.shape[0], model.d):
        raise ContractError(f"upstream gradient shape {dV.shape} != ({X.shape[0]}, {model.d})")
    if hidden.shape != (X.shape[0], model.W1.shape[0]):
        raise ContractError(
            f"hidden activations shape {hidden.shape} != ({X.shape[0]}, {model.W1.shape[0]})"
        )
    dW2 = dV.T @ hidden
    db2 = dV.sum(axis=0)
    dhidden = dV @ model.W2
    keep = (hidden > 0.0).astype(np.uint64)
    np.negative(keep, out=keep)  # 1 -> all ones, 0 stays all zeros
    bits = dhidden.view(np.uint64)
    bits &= keep
    dW1 = dhidden.T @ X
    db1 = dhidden.sum(axis=0)
    return {"W1": dW1, "b1": db1, "W2": dW2, "b2": db2}


def head_forward(head: ClassifierHead, V: np.ndarray) -> np.ndarray:
    """Class scores for a batch of embeddings; returns (n, n_classes).

    The bias is added in place to the product, so the scores are the
    only (n, n_classes) array allocated.
    """
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2 or V.shape[1] != head.Wc.shape[1]:
        raise ContractError(f"embedding batch shape {V.shape} incompatible with head")
    scores = V @ head.Wc.T
    scores += head.bc
    return scores


def head_backward(head: ClassifierHead, V: np.ndarray, dS: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Head gradients plus the gradient passed back to the embeddings."""
    V = np.asarray(V, dtype=np.float64)
    dS = np.asarray(dS, dtype=np.float64)
    if dS.shape != (V.shape[0], head.n_classes):
        raise ContractError(f"score gradient shape {dS.shape} != ({V.shape[0]}, {head.n_classes})")
    grads = {"Wc": dS.T @ V, "bc": dS.sum(axis=0)}
    return grads, dS @ head.Wc


def sgd_step(
    model: EmbeddingModel,
    head: ClassifierHead,
    grads: dict[str, np.ndarray],
    optimizer: Optimizer,
    state: OptimizerState,
    epoch: int,
) -> None:
    """One momentum SGD update: v <- mu*v + g, theta <- theta - lr*v.

    Only parameters named in `grads` and their velocities are touched.
    Every new velocity and parameter is computed, and the parameters
    checked, before any is written: a refused step, for a non-finite
    gradient or an update that leaves a parameter non-finite, changes
    nothing.  The new values are then copied into the existing arrays, so
    a caller holding a velocity array sees it change; a missing velocity
    starts from zeros, and a gradient array never becomes a velocity.
    """
    params: dict[str, np.ndarray] = {**model.params(), **head.params()}
    for name, g in grads.items():
        if name not in params:
            raise ContractError(f"unknown parameter {name!r} in gradient dict")
        if g.shape != params[name].shape:
            raise ContractError(
                f"gradient shape {g.shape} != parameter shape {params[name].shape} for {name!r}"
            )
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for parameter {name!r}")

    lr_body, lr_head = optimizer.effective_rates(epoch)
    updates = {}
    for name, g in grads.items():
        lr = lr_body if name in BODY_PARAMS else lr_head
        vel = state.velocities.get(name)
        vel = (np.zeros_like(params[name]) if vel is None else vel) * optimizer.momentum
        vel += g
        new = lr * vel
        np.subtract(params[name], new, out=new)
        if not np.isfinite(new).all():
            raise TrainingError(f"non-finite value in parameter {name!r} after update")
        updates[name] = vel, new
    for name, (vel, new) in updates.items():
        params[name][...] = new
        if name in state.velocities:
            state.velocities[name][...] = vel
        else:
            state.velocities[name] = vel


def _emit_array(lines: list[str], name: str, a: np.ndarray) -> None:
    a = np.atleast_2d(np.asarray(a))
    lines.append(f"array {name} {a.shape[0]} {a.shape[1]}")
    for row in a:
        lines.append(" ".join(repr(float(v)) for v in row))


def save_checkpoint(
    path: str | os.PathLike,
    model: EmbeddingModel,
    head: ClassifierHead,
    optimizer: Optimizer,
    state: OptimizerState,
    extra_arrays: dict[str, np.ndarray] | None = None,
    extra_scalars: dict[str, float] | None = None,
) -> None:
    """Serialize model, head and optimizer state as versioned decimal text.

    repr() of a Python float round-trips exactly, so a load after save
    reproduces every parameter bitwise.  Extra names are refused before
    anything is written unless load_checkpoint would read them back: each
    must be one nonempty token, not repeated, without a reserved prefix.
    """
    names = [*(extra_arrays or {}), *(extra_scalars or {})]
    for name in names:
        if (not isinstance(name, str) or name.split() != [name]
                or name.startswith(RESERVED_PREFIXES) or names.count(name) > 1):
            raise ContractError(
                f"extra checkpoint name {name!r}: names must be nonempty, without whitespace, "
                f"not repeated, and not start with {', '.join(RESERVED_PREFIXES)}"
            )
    lines = [f"{CHECKPOINT_FORMAT} {CHECKPOINT_VERSION}"]
    for name, a in model.params().items():
        _emit_array(lines, f"model.{name}", a)
    for name, a in head.params().items():
        _emit_array(lines, f"head.{name}", a)
    for name, a in state.velocities.items():
        _emit_array(lines, f"velocity.{name}", a)
    for f in fields(optimizer):
        lines.append(f"scalar optimizer.{f.name} {repr(float(getattr(optimizer, f.name)))}")
    for name, a in (extra_arrays or {}).items():
        _emit_array(lines, name, a)
    for name, v in (extra_scalars or {}).items():
        lines.append(f"scalar {name} {repr(float(v))}")
    lines.append("end")
    write_text_atomic(path, "\n".join(lines) + "\n")


@dataclass
class Checkpoint:
    model: EmbeddingModel
    head: ClassifierHead
    optimizer: Optimizer
    state: OptimizerState
    arrays: dict[str, np.ndarray]
    scalars: dict[str, float]


def load_checkpoint(path: str | os.PathLike) -> Checkpoint:
    path = os.fspath(path)
    lines = read_lines(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
    arrays: dict[str, np.ndarray] = {}
    scalars: dict[str, float] = {}
    where: dict[str, int] = {}  # line of each array header and scalar
    i, end_line = 1, None
    while i < len(lines):
        line = lines[i]
        if line == "end":
            end_line = i + 1
            break
        parts = line.split()
        name = parts[1] if len(parts) > 1 and parts[0] in ("array", "scalar") else None
        if name in where:
            raise FormatError(path, i + 1, f"repeated name {name!r}, first on line {where[name]}")
        if len(parts) == 4 and parts[0] == "array":
            try:
                rows, cols = int(parts[2]), int(parts[3])
            except ValueError as e:
                raise FormatError(path, i + 1, f"bad array header: {e}") from e
            if min(rows, cols) < 0:
                raise FormatError(path, i + 1, f"array {name!r}: negative shape {rows} x {cols}")
            if i + rows >= len(lines):
                raise FormatError(path, i + 1, f"truncated array {name!r}")
            values = []
            for r in range(rows):
                vals = lines[i + 1 + r].split()
                if len(vals) != cols:
                    raise FormatError(path, i + 2 + r, f"array {name!r}: expected {cols} values")
                try:
                    values.append([float(v) for v in vals])
                except ValueError as e:
                    raise FormatError(path, i + 2 + r, f"array {name!r}: {e}") from e
            arrays[name] = np.array(values, dtype=np.float64).reshape(rows, cols)
            bad = first_non_finite(arrays[name])
            if bad is not None:
                raise FormatError(path, i + 2 + bad, f"array {name!r}: non-finite value")
            where[name] = i + 1
            i += 1 + rows
        elif len(parts) == 3 and parts[0] == "scalar":
            try:
                scalars[name] = float(parts[2])
            except ValueError as e:
                raise FormatError(path, i + 1, f"bad scalar: {e}") from e
            where[name] = i + 1
            i += 1
        else:
            raise FormatError(path, i + 1, f"unrecognized line: {line!r}")
    if end_line is None:
        raise FormatError(path, len(lines), "missing 'end' marker (truncated file?)")

    def take(name: str, *shape: int | None) -> np.ndarray:
        """Pop an array of the given shape (None: any size); a 1-d shape is stored as one row."""
        if name not in arrays:
            raise FormatError(path, end_line, f"missing required array {name!r} before 'end'")
        a = arrays.pop(name)
        want = shape if len(shape) == 2 else (1, *shape)
        if any(w is not None and w != got for w, got in zip(want, a.shape)):
            expected = " x ".join("any" if w is None else str(w) for w in want)
            raise FormatError(path, where[name], f"array {name!r} is {a.shape[0]} x {a.shape[1]}, "
                                                 f"expected {expected} to match the other arrays")
        return a if len(shape) == 2 else a[0]

    W1 = take("model.W1", None, None)
    W2 = take("model.W2", None, W1.shape[0])
    model = EmbeddingModel(W1, take("model.b1", W1.shape[0]), W2, take("model.b2", W2.shape[0]))
    Wc = take("head.Wc", None, W2.shape[0])
    head = ClassifierHead(Wc, take("head.bc", Wc.shape[0]))

    decay_epoch = scalars.get("optimizer.decay_epoch", 0.0)
    if not decay_epoch.is_integer():
        raise FormatError(path, where["optimizer.decay_epoch"],
                          f"optimizer.decay_epoch must be an integer, got {decay_epoch!r}")
    try:
        settings = {f.name: scalars.pop(f"optimizer.{f.name}") for f in fields(Optimizer)}
    except KeyError as e:
        raise FormatError(path, end_line, f"missing optimizer scalar {e} before 'end'") from e
    optimizer = Optimizer(**{**settings, "decay_epoch": int(settings["decay_epoch"])})
    bad = optimizer.invalid()
    if bad:
        raise FormatError(path, where[f"optimizer.{bad[0]}"], f"optimizer.{bad[1]}")

    state = OptimizerState()
    params = {**model.params(), **head.params()}
    for name in [n for n in arrays if n.startswith("velocity.")]:
        pname = name[len("velocity."):]
        if pname not in params:
            raise FormatError(path, where[name], f"velocity for absent parameter {pname!r}")
        state.velocities[pname] = take(name, *params[pname].shape)
    return Checkpoint(model, head, optimizer, state, arrays, scalars)
