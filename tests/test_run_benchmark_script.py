"""scripts/run_benchmark.py --compare flags any change in a log or a final score."""

import importlib.util
import json
import os
from pathlib import Path

from crosscam.benchmark import BenchmarkOutcome, BenchmarkRun
from crosscam.trainer import TrainLog

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_benchmark.py"
spec = importlib.util.spec_from_file_location("run_benchmark_script", SCRIPT)
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)


def reference(tmp_path, outcome):
    summary = {"settings": {"full": {"runs": [
        {"seed": r.seed, "map": r.map, "rank1": r.rank1} for r in outcome.runs]}}}
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    for run in outcome.runs:
        path = script.log_path(str(tmp_path), run.label, run.seed)
        os.makedirs(os.path.dirname(path))
        Path(path).write_text(run.log.to_csv())
    return str(tmp_path)


def outcome(rank1):
    return BenchmarkOutcome([BenchmarkRun("full", 1, 0.5, 0.75, TrainLog()),
                             BenchmarkRun("full", 2, 0.25, rank1, TrainLog())])


def test_identical_runs_pass(tmp_path):
    lines, ok = script.compare_lines(outcome(0.5), reference(tmp_path, outcome(0.5)))
    assert ok
    assert "  full: max |delta mAP| 0.0, max |delta Rank-1| 0.0" in lines


def test_rank1_changed_in_the_last_bit_fails(tmp_path):
    ref = reference(tmp_path, outcome(0.5))
    lines, ok = script.compare_lines(outcome(float(0.5 + 2**-53)), ref)
    assert not ok
    assert "  [DIFF] full seed 2: final mAP or Rank-1 differs" in lines
    assert f"  full: max |delta mAP| 0.0, max |delta Rank-1| {2**-53!r}" in lines
