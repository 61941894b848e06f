"""scripts/run_benchmark.py --compare flags any change in a log or a final score."""

import importlib.util
import json
import os
from pathlib import Path

from crosscam.benchmark import ResultTable, Row, Run
from crosscam.trainer import TrainLog

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_benchmark.py"
spec = importlib.util.spec_from_file_location("run_benchmark_script", SCRIPT)
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)


def reference(tmp_path, outcome):
    (tmp_path / "summary.json").write_text(json.dumps(outcome.to_jsonable()))
    for label, run in outcome.runs():
        path = script.log_path(str(tmp_path), label, run.seed)
        os.makedirs(os.path.dirname(path))
        Path(path).write_text(run.log.to_csv())
    return str(tmp_path)


def outcome(rank1):
    return ResultTable("benchmark", [Row("full", {"inter_mode": "C+D"}, [
        Run(1, 0.5, 0.75, TrainLog()), Run(2, 0.25, rank1, TrainLog())])])


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


def test_run_absent_from_reference_summary_fails(tmp_path):
    ref = reference(tmp_path, outcome(0.5))
    summary = json.loads((tmp_path / "summary.json").read_text())
    del summary["rows"][0]["runs"][1]
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    lines, ok = script.compare_lines(outcome(0.5), ref)
    assert not ok
    assert "  [MISSING] full seed 2: not in summary.json" in lines
