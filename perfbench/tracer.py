"""Per-layer tracing by wrapping the functions the trainer and evaluator import.

The wrappers live here, not in the package: they replace the names bound
in ``crosscam.trainer`` and ``crosscam.evaluation`` (the ones those modules
call through their own globals) and put the originals back on exit.
Each wrapped call is one span; a span's self time is its duration minus
the durations of the wrapped spans it contains.  Counters are read from
the values the wrapped functions return, so ratios are measured where the
work happens.  Only aggregates are kept in memory: calls, self time and
counters per function.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict

# Names each module calls through its own globals.  A function imported by
# both modules (forward_batch) is wrapped in both and reported once under
# its defining module.
TRACED_NAMES: dict[str, tuple[str, ...]] = {
    "crosscam.trainer": (
        "train",
        "pk_sampler",
        "classification_sampler",
        "forward_batch",
        "backward",
        "head_forward",
        "head_backward",
        "sgd_step",
        "intra_triplet_loss",
        "softmax_probs",
        "weighted_cross_entropy",
        "select_positives",
        "select_hardest_negative",
        "weighted_triplet_loss",
        "update_person",
        "build_affinity",
        "soft_label_rows",
        "affinity_quality_map",
    ),
    "crosscam.evaluation": ("evaluate", "forward_batch"),
}


def layer_name(fn) -> str:
    """``<module>.<function>`` with the package prefix dropped."""
    return f"{fn.__module__.removeprefix('crosscam.')}.{fn.__name__}"


def _observe_intra(counters: Counter, out) -> None:
    counters["intra_active"] += out.counters["active_triplets"]
    counters["intra_anchors"] += out.counters["anchors"]


def _observe_ce(counters: Counter, out) -> None:
    counters["ce_clamped_logs"] += out.counters["clamped_logs"]


def _observe_d(counters: Counter, out) -> None:
    counters["d_active"] += out.counters["active"]


def _observe_rows(counters: Counter, rows) -> None:
    counters["soft_rows"] += len(rows)
    counters["degenerate_rows"] += sum(1 for r in rows if r.degenerate)


def _observe_class_batch(counters: Counter, idx) -> None:
    counters["class_batch_samples"] += len(idx)


OBSERVERS = {
    "losses.intra_triplet_loss": _observe_intra,
    "losses.weighted_cross_entropy": _observe_ce,
    "losses.weighted_triplet_loss": _observe_d,
    "affinity.soft_label_rows": _observe_rows,
    "trainer.classification_sampler": _observe_class_batch,
}


class Tracer:
    """Context manager that wraps TRACED_NAMES on entry and restores them on exit."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter = Counter()
        self.layers: list[str] = []  # every wrapped layer, called or not
        self._child_s = [0.0]  # wrapped time inside each open span, root first
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn):
        name = layer_name(fn)
        if name not in self.layers:
            self.layers.append(name)
        observe = OBSERVERS.get(name)
        child_s = self._child_s

        def wrapper(*args, **kwargs):
            child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                self.self_s[name] += span - child_s.pop()
                self.calls[name] += 1
                child_s[-1] += span
            if observe is not None:
                observe(self.counters, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Time inside counts toward no layer: the enclosing span treats it as a child's."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._child_s[-1] += time.perf_counter() - t0

    def __enter__(self) -> "Tracer":
        try:
            for module_name, names in TRACED_NAMES.items():
                module = importlib.import_module(module_name)
                for attr in names:
                    original = getattr(module, attr)
                    self._originals.append((module, attr, original))
                    setattr(module, attr, self._wrap(original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)


def wrapped_attributes() -> list[str]:
    """Names in TRACED_NAMES that currently hold a wrapper instead of an original."""
    left = []
    for module_name, names in TRACED_NAMES.items():
        module = importlib.import_module(module_name)
        left.extend(
            f"{module_name}.{attr}"
            for attr in names
            if hasattr(getattr(module, attr), "__wrapped__")
        )
    return left
