"""One benchmark job: set up a corpus, or train, score and check one model.

``prepare`` is the set-up path of ``crosscam gen`` followed by ``crosscam
train``: generate the corpus, write it as text, read it back, initialise
the model.  ``run_job`` is the rest of ``crosscam train`` on the files
``prepare`` wrote: train, score the final model, round-trip the final
checkpoint, then check every output.  Run as a script, this file runs one
job in a fresh process and prints its result as one JSON line, so that
each job's peak RSS is its own.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import crosscam.evaluation  # noqa: E402
import crosscam.trainer  # noqa: E402
from crosscam import (  # noqa: E402
    Dataset,
    PersonBuffer,
    PersonIndex,
    build_affinity,
    forward_batch,
    generate_synthetic,
    init_head,
    init_model,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
    soft_label_rows,
)
from crosscam.benchmark import BENCHMARK_SETTINGS, BENCHMARK_SPEC, benchmark_config  # noqa: E402

from probe import probe  # noqa: E402
from tracer import Tracer, wrapped_attributes  # noqa: E402

SPLITS = ("train", "query", "gallery")
ORACLE_QUERIES = 16  # evenly spaced queries scored again by the oracle
ORACLE_PERSONS_PER_CAMERA = 10  # leading persons of each camera in the affinity cross-check


@dataclass(frozen=True)
class Workload:
    """A benchmark corpus and the committed setting trained on it.

    spec holds SynthSpec fields laid over the committed benchmark corpus
    (the seed comes from the command line);
    schedule holds TrainConfig fields laid over the setting.
    validate_each_epoch passes query and gallery to train, as
    ``crosscam train --query --gallery`` does.  eval_repeats is the number
    of final evaluate calls whose median is eval_s; a fixed count keeps
    the traced call counts the same from run to run.
    """

    name: str
    setting: str
    spec: dict = dataclasses.field(default_factory=dict)
    schedule: dict = dataclasses.field(default_factory=dict)
    validate_each_epoch: bool = False
    eval_repeats: int = 5

    def config(self, seed: int):
        return benchmark_config(seed=seed, **{**BENCHMARK_SETTINGS[self.setting], **self.schedule})


def load_oracles():
    """The brute-force reference implementations the test suite checks against."""
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("crosscam_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def prepare(workload: Workload, seed: int, data_dir: Path) -> dict[str, float]:
    """Generate, save and reload the corpus, then initialise the model; time each part."""
    t0 = time.perf_counter()
    corpus = generate_synthetic(dataclasses.replace(BENCHMARK_SPEC, **workload.spec, seed=seed))
    t1 = time.perf_counter()
    for split in SPLITS:
        save_dataset(corpus[split], data_dir / f"{split}.txt")
    t2 = time.perf_counter()
    loaded = {split: load_dataset(data_dir / f"{split}.txt") for split in SPLITS}
    t3 = time.perf_counter()
    cfg = workload.config(seed)
    # The same draws train makes before its first epoch.
    rng_init = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[0])
    init_model(loaded["train"].d_in, cfg.hidden_dim, cfg.embed_dim, rng_init)
    init_head(cfg.embed_dim, loaded["train"].index.total, rng_init)
    t4 = time.perf_counter()
    if any(loaded[split] != corpus[split] for split in SPLITS):
        raise RuntimeError("the dataset text round trip changed the corpus")
    return {
        "setup_s": t4 - t0,
        "generate_synthetic_s": t1 - t0,
        "save_dataset_s": t2 - t1,
        "load_dataset_s": t3 - t2,
        "dataset_bytes": sum(os.path.getsize(data_dir / f"{s}.txt") for s in SPLITS),
    }


def _subset(ds: Dataset, rows: np.ndarray) -> Dataset:
    """The given rows of a dataset, local person ids renumbered per camera."""
    cams = ds.camera_ids[rows]
    local = np.zeros(rows.size, dtype=np.int64)
    for cam in range(ds.n_cameras):
        here = cams == cam
        local[here] = np.unique(ds.local_ids[rows][here], return_inverse=True)[1]
    return Dataset(ds.features[rows], cams, local, ds.truth[rows], ds.n_cameras, ds.split)


def check_log(log, epochs: int) -> list[str]:
    """The log holds one record per epoch and every logged loss is finite."""
    failures = []
    if len(log.records) != epochs:
        failures.append(f"log holds {len(log.records)} records, expected {epochs}")
    for r in log.records:
        if not (math.isfinite(r.intra_loss) and math.isfinite(r.inter_loss)):
            failures.append(f"non-finite loss at epoch {r.epoch}")
    return failures


def check_affinity(aff, k: int) -> list[str]:
    """Invariants of the final affinity: masked cameras, row sparsity, soft rows sum to 1."""
    failures = []
    if aff.masked:
        cams = aff.camera_of_class
        if np.any(aff.A[cams[:, None] == cams[None, :]] != 0.0):
            failures.append("final affinity has a nonzero same-camera entry")
    if np.any(np.count_nonzero(aff.A, axis=1) > k):
        failures.append(f"final affinity has a row with more than k={k} nonzeros")
    for row in soft_label_rows(aff):
        if not row.degenerate and abs(row.weights.sum() - 1.0) > 1e-9:
            failures.append(f"soft-label row {row.class_index} sums to {row.weights.sum()!r}")
            break
    return failures


def check_against_oracles(oracles, result, train: Dataset, query: Dataset, gallery: Dataset,
                          cfg) -> list[str]:
    """Score a fixed query subsample, and rebuild the affinity of a fixed block
    of buffer columns, by brute force; tolerances are those of the test suite."""
    failures = []
    rows = np.unique(np.linspace(0, len(query) - 1, ORACLE_QUERIES).astype(np.int64))
    sub = _subset(query, rows)
    got = crosscam.evaluation.evaluate(result.model, sub, gallery)
    want_map, want_cmc = oracles.oracle_retrieval(
        forward_batch(result.model, sub.features), sub.truth, sub.camera_ids,
        forward_batch(result.model, gallery.features), gallery.truth, gallery.camera_ids,
    )
    if abs(got.map - want_map) > 1e-9 or any(
        abs(got.cmc[k] - v) > 1e-12 for k, v in want_cmc.items()
    ):
        failures.append(f"evaluate gives mAP {got.map!r}, oracle_retrieval {want_map!r}")

    offsets = train.index.offsets
    counts = [min(c, ORACLE_PERSONS_PER_CAMERA) for c in train.index.counts]
    cols = np.concatenate([np.arange(offsets[c], offsets[c] + n) for c, n in enumerate(counts)])
    block = PersonBuffer(P=result.buffer.P[:, cols].copy(), initialized=np.ones(cols.size, bool))
    index = PersonIndex(tuple(counts))
    aff = build_affinity(block, index, cfg.k, mask_same_camera=cfg.mask_same_camera)
    want_A, want_sigma = oracles.oracle_affinity(
        list(block.P.T), index.camera_of_class_array().tolist(), cfg.k, cfg.mask_same_camera
    )
    if abs(aff.sigma_sq - want_sigma) > 1e-12 * abs(want_sigma) or not np.allclose(
        aff.A, want_A, rtol=0.0, atol=1e-9
    ):
        failures.append("build_affinity disagrees with oracle_affinity on the checked block")
    return failures


def _layer_metrics(tracer: Tracer, skipped: int) -> dict[str, float]:
    out: dict[str, float] = {}
    for name in tracer.layers:
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.self_s"] = tracer.self_s[name]
    c = tracer.counters
    anchors = c["class_batch_samples"] + tracer.calls["losses.select_positives"]
    out["trainer.skipped_anchor_ratio"] = skipped / anchors if anchors else 0.0
    out["losses.intra_active_ratio"] = (
        c["intra_active"] / c["intra_anchors"] if c["intra_anchors"] else 0.0
    )
    out["losses.ce_clamped_logs"] = c["ce_clamped_logs"]
    d_calls = tracer.calls["losses.weighted_triplet_loss"]
    out["losses.d_active_ratio"] = c["d_active"] / d_calls if d_calls else 0.0
    out["affinity.degenerate_row_ratio"] = (
        c["degenerate_rows"] / c["soft_rows"] if c["soft_rows"] else 0.0
    )
    return out


def _median_and_rel(name: str, timed: list[tuple[float, float]]) -> dict:
    """Median time of a phase, in seconds and in units of the probe run
    right after each timed piece; None for a phase that did not run."""
    if not timed:
        return {f"{name}_s": None, f"{name}_rel": None}
    return {
        f"{name}_s": statistics.median(e for e, _ in timed),
        f"{name}_rel": statistics.median(e / p for e, p in timed),
    }


def run_job(workload: Workload, seed: int, data_dir: Path, trace: bool) -> dict:
    """Train, score and check one model on the corpus files in data_dir.

    Returns the timings, quality and checks of the job; "failures" lists
    every check that did not hold.
    """
    train_ds = load_dataset(data_dir / "train.txt")
    query = load_dataset(data_dir / "query.txt")
    gallery = load_dataset(data_dir / "gallery.txt")
    cfg = workload.config(seed)
    val = (query, gallery) if workload.validate_each_epoch else (None, None)
    tracer = Tracer()
    # (seconds, probe seconds right after) per epoch and per final evaluate call.
    epochs: list[tuple[float, float]] = []
    evals: list[tuple[float, float]] = []
    epoch_start = 0.0

    def on_epoch(epoch: int, result) -> None:
        nonlocal epoch_start
        seconds = time.perf_counter() - epoch_start
        with tracer.paused():
            epochs.append((seconds, probe()))
        epoch_start = time.perf_counter()

    with tracer if trace else contextlib.nullcontext():
        epoch_start = time.perf_counter()
        result = crosscam.trainer.train(
            train_ds, cfg, query=val[0], gallery=val[1], epoch_callback=on_epoch
        )
        scores = []
        for _ in range(workload.eval_repeats):
            t = time.perf_counter()
            scores.append(crosscam.evaluation.evaluate(result.model, query, gallery))
            evals.append((time.perf_counter() - t, probe()))
        ckpt = data_dir / f"checkpoint_final_{os.getpid()}.txt"
        t = time.perf_counter()
        save_checkpoint(
            ckpt, result.model, result.head, result.optimizer, result.opt_state,
            extra_arrays={
                "buffer.P": result.buffer.P,
                "buffer.initialized": result.buffer.initialized.astype(np.float64),
            },
            extra_scalars={"buffer.t": float(result.buffer.t)},
        )
        save_s = time.perf_counter() - t
        t = time.perf_counter()
        loaded = load_checkpoint(ckpt)
        load_s = time.perf_counter() - t
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ckpt.unlink()

    score = scores[0]
    failures = []
    if trace:
        failures += [f"{name} still wrapped after tracing" for name in wrapped_attributes()]
    failures += check_log(result.log, cfg.epochs)
    if len(epochs) != cfg.epochs:
        failures.append(f"epoch_callback ran {len(epochs)} times, expected {cfg.epochs}")
    if any(s.map != score.map or s.cmc != score.cmc for s in scores):
        failures.append("repeated evaluate calls on one model disagree")
    saved = {**result.model.params(), **result.head.params()}
    reloaded = {**loaded.model.params(), **loaded.head.params()}
    if any(not np.array_equal(reloaded[n], a) for n, a in saved.items()):
        failures.append("checkpoint round trip changed the model or head")
    if result.final_affinity is not None:
        failures += check_affinity(result.final_affinity, cfg.k)
    failures += check_against_oracles(load_oracles(), result, train_ds, query, gallery, cfg)

    warmup, joint = epochs[: cfg.warmup_epochs], epochs[cfg.warmup_epochs:]
    out = {
        "failures": failures,
        # Epoch times exclude the callback, so the probes do not count as training.
        "train_s": sum(e for e, _ in epochs),
        # Each epoch in units of the probe that followed it, so a slow spell
        # of the host during a long run cancels where it happened.
        "train_rel": sum(e / p for e, p in epochs),
        **_median_and_rel("warmup_epoch", warmup),
        **_median_and_rel("joint_epoch", joint),
        **_median_and_rel("eval", evals),
        "map": score.map,
        "rank1": score.cmc[1],
        "peak_rss_mb": peak_rss_mb,
        "save_checkpoint_s": save_s,
        "load_checkpoint_s": load_s,
    }
    if trace:
        skipped = sum(r.skipped_anchors for r in result.log.records)
        out["layers"] = _layer_metrics(tracer, skipped)
    return out


def main(argv: list[str]) -> int:
    """Run the job described by the JSON argument and print its result as JSON."""
    args = json.loads(argv[0])
    try:
        out = run_job(
            Workload(**args["workload"]), args["seed"], Path(args["data_dir"]), args["trace"]
        )
    except Exception as exc:  # the job boundary: report the failure, do not lose it
        out = {"failures": [f"{type(exc).__name__}: {exc}"], "traceback": traceback.format_exc()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
