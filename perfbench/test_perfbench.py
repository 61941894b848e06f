"""Self-test of the benchmark on a tiny corpus.

    python3 -m pytest perfbench

Twenty identities under two cameras, four epochs of the full C+D setting
with per-epoch validation, so every traced layer is called.
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys

import pytest

import bench
import job
import run
import tracer

TINY = job.Workload(
    "tiny",
    "full",
    spec={"n_identities": 20, "n_cameras": 2},
    schedule={"epochs": 4, "warmup_epochs": 2, "decay_epoch": 3},
    validate_each_epoch=True,
)
DECLARED = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def in_process(workload, seed, data_dir, trace):
    return job.run_job(workload, seed, data_dir, trace)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_reported_with_its_unit(trace):
    summary = bench.measure(TINY, seed=3, seconds=0, trace=bool(trace))
    assert summary["failures"] == []
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    line = run.result_line(summary, declared)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 1 + trace
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        reported = line["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float)) and math.isfinite(reported["value"])
    if trace:
        assert summary["per_layer"]["losses.weighted_triplet_loss.calls"] > 0
        assert summary["per_layer"]["affinity.build_affinity.calls"] == 2
        assert summary["per_layer"]["trace.overhead_ratio"] > 0


def test_tracing_restores_every_wrapped_function():
    originals = {
        (name, attr): getattr(importlib.import_module(name), attr)
        for name, attrs in tracer.TRACED_NAMES.items()
        for attr in attrs
    }

    def unchanged():
        return all(
            getattr(importlib.import_module(name), attr) is fn
            for (name, attr), fn in originals.items()
        )

    summary = bench.measure(TINY, seed=3, seconds=0, trace=True, launch=in_process)
    assert summary["failures"] == []
    assert unchanged()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            assert not unchanged()
            1 / 0
    assert unchanged()


def test_forced_check_failure_shows_in_error_rate(monkeypatch):
    monkeypatch.setattr(job, "check_log", lambda log, epochs: ["forced failure"])
    summary = bench.measure(TINY, seed=3, seconds=0, trace=False, launch=in_process)
    assert summary["error_rate"] == 1.0
    assert summary["failures"] == ["forced failure"]
    line = run.result_line(summary, DECLARED["end_to_end"])
    assert not line["correct"] and line["failed"] == line["attempted"] == 1


def test_outside_a_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "joint_full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
