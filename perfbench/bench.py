"""The benchmark's workloads and the closed loop that measures them.

One client runs one training job at a time on one thread.  Each job runs
in a fresh child process (``job.py``), so its peak RSS is its own; the
parent sets the corpus up several times first and reports the median.
An untraced run gives the end-to-end metrics.  A traced run pairs every
traced job with an untraced one on the same files, which gives the
per-layer metrics, the tracing overhead and a bitwise check that tracing
changed no result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import job
from crosscam.benchmark import BENCHMARK_EPOCHS
from job import Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
# Set-ups per run: at least this many, and until this much time is measured.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
JOB_TIMEOUT_S = 150
# Job results reported end to end, as medians over the untraced jobs of a
# run; joint-epoch times are None on a workload without joint epochs.
JOB_END_TO_END = (
    "train_s", "train_rel", "warmup_epoch_s", "warmup_epoch_rel", "joint_epoch_s",
    "joint_epoch_rel", "eval_s", "eval_rel", "peak_rss_mb", "map", "rank1",
)

# Why each workload exists is written up in README.md beside this file.
WORKLOADS = {
    w.name: w
    for w in (
        # 40 evaluate calls take about 0.6 s on the benchmark corpus; the
        # default 5 take about 1.6 s on scale_val.
        Workload(
            "warmup_only",
            "baseline_intra",
            schedule={"warmup_epochs": BENCHMARK_EPOCHS},
            eval_repeats=40,
        ),
        Workload("joint_full", "full", eval_repeats=40),
        # Twelve warmup epochs draw every one of ~2,400 persons into the
        # buffer with all but certainty (about 2e-5 missed persons per run).
        Workload(
            "scale_val",
            "soft_ce",
            spec={"n_identities": 1000},
            schedule={"epochs": 16, "warmup_epochs": 12, "decay_epoch": 15},
            validate_each_epoch=True,
        ),
    )
}


def spawn_job(workload: Workload, seed: int, data_dir: Path, trace: bool) -> dict:
    """Run one job in a fresh interpreter and return its result."""
    arg = json.dumps(
        {"workload": dataclasses.asdict(workload), "seed": seed,
         "data_dir": str(data_dir), "trace": trace}
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py"), arg],
            capture_output=True, text=True, timeout=JOB_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"failures": [f"job did not finish within {JOB_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"failures": [f"job exited {proc.returncode} without a result: {proc.stderr[-800:]}"]}


def measure(workload: Workload, seed: int, seconds: float, trace: bool, launch=spawn_job) -> dict:
    """Set up, then run jobs until the next one would end after ``seconds``.

    At least one job (one traced/untraced pair when tracing) always runs.
    """
    data_dir = WORK_DIR / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    data_dir.mkdir(parents=True)
    try:
        setups: list[dict] = []
        while len(setups) < SETUP_REPEATS or sum(s["setup_s"] for s in setups) < SETUP_SECONDS:
            setups.append(job.prepare(workload, seed, data_dir))
        jobs: list[dict] = []
        rounds: list[float] = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
            t = time.perf_counter()
            for traced in (False, True) if trace else (False,):
                jobs.append({**launch(workload, seed, data_dir, traced), "traced": traced})
            rounds.append(time.perf_counter() - t)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    return summarize(workload, seed, trace, setups, jobs)


def _median_of(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def summarize(workload: Workload, seed: int, trace: bool, setups: list[dict],
              jobs: list[dict]) -> dict:
    """Medians over the jobs of one run, with a failure for every job whose
    mAP or Rank-1 differs in any bit from the run's first finished job."""
    finished = [j for j in jobs if "train_s" in j]
    for j in finished[1:]:
        if (j["map"], j["rank1"]) != (finished[0]["map"], finished[0]["rank1"]):
            j["failures"].append(
                f"mAP/Rank-1 {j['map']!r}/{j['rank1']!r} differ from the first job's "
                f"{finished[0]['map']!r}/{finished[0]['rank1']!r}"
            )
    failed = sum(1 for j in jobs if j["failures"])
    untraced = [j for j in finished if not j["traced"]]
    traced = [j for j in finished if j["traced"]]
    summary = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "attempted": len(jobs),
        "failed": failed,
        "error_rate": failed / len(jobs),
        "failures": [f for j in jobs for f in j["failures"]],
        "jobs": [{k: v for k, v in j.items() if k != "layers"} for j in jobs],
        "end_to_end": {},
        "per_layer": {},
    }
    if untraced:
        summary["end_to_end"] = {"setup_s": _median_of(setups, "setup_s")}
        for key in JOB_END_TO_END:
            values = [j[key] for j in untraced if j[key] is not None]
            summary["end_to_end"][key] = statistics.median(values) if values else None
    if traced and untraced:
        layers = {
            name: (statistics.median(j["layers"][name] for j in traced)
                   if name.endswith("_s") else traced[0]["layers"][name])
            for name in traced[0]["layers"]
        }
        layers.update({
            "model.save_checkpoint.s": _median_of(traced, "save_checkpoint_s"),
            "model.load_checkpoint.s": _median_of(traced, "load_checkpoint_s"),
            "data.generate_synthetic.s": _median_of(setups, "generate_synthetic_s"),
            "data.save_dataset.s": _median_of(setups, "save_dataset_s"),
            "data.load_dataset.s": _median_of(setups, "load_dataset_s"),
            "data.dataset_bytes": setups[0]["dataset_bytes"],
            "trace.overhead_ratio": (
                _median_of(traced, "train_rel") / _median_of(untraced, "train_rel")
            ),
        })
        summary["per_layer"] = layers
    return summary


def environment() -> dict:
    """What the timings depend on besides the code: cores, versions, BLAS threads, commit."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": commit,
    }
