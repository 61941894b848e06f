"""scripts/run_benchmark.py: --compare flags any change in a log or a final score, the
ordering verdicts report their per-seed paired differences, and bad arguments end in
one error line."""

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


def test_orderings_report_per_seed_differences_and_agreement():
    def row(label, maps):
        return Row(label, {}, [Run(seed, m, 0.5, TrainLog()) for seed, m in maps.items()])

    table = ResultTable("benchmark", [
        row("soft_triplet", {1: 0.875, 2: 0.75, 3: 0.5}),
        row("soft_triplet_unmasked", {1: 0.625, 2: 0.75, 3: 0.625}),
        row("soft_triplet_w", {1: 0.5, 3: 0.875, 4: 0.25}),  # seeds 1 and 3 pair
        row("baseline_intra", {1: 0.75, 2: 0.75, 3: 0.5}),
    ])
    labels = [r.label for r in table.rows]
    assert script.direction_lines(table, labels) == [
        "  [FAIL] soft_triplet beats baseline_intra: 0.7500 vs 0.7500",
        "      per-seed soft_triplet - baseline_intra: +0.1250 +0.0000 +0.0000; 1/3 seeds agree",
        "  [ok] soft_triplet >= soft_triplet_unmasked: 0.7500 vs 0.6250",
        "      per-seed soft_triplet - soft_triplet_unmasked: +0.2500 +0.0000 -0.1250; "
        "2/3 seeds agree",
        "  [ok] soft_triplet >= soft_triplet_w: 0.7500 vs 0.5000",
        "      per-seed soft_triplet - soft_triplet_w: +0.3750 -0.3750; 1/2 seeds agree",
    ]


def test_bad_seed_lists_are_reported_on_one_line(capsys):
    for seeds in (",", "1,1", "1,two"):
        assert script.main(["--settings", "baseline_intra", "--seeds", seeds, "--epochs", "1",
                            "--warmup-epochs", "1", "--decay-epoch", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error ConfigError: seeds must ") and err.count("\n") == 1


def test_negative_seed_is_reported_on_one_line(capsys):
    assert script.main(["--settings", "baseline_intra", "--seeds", "-1", "--epochs", "1",
                        "--warmup-epochs", "1", "--decay-epoch", "1"]) == 1
    assert capsys.readouterr().err == "error ConfigError: seed must be >= 0, got -1\n"


def test_unknown_setting_is_reported_on_one_line(capsys):
    assert script.main(["--settings", "nonsense", "--seeds", "1"]) == 1
    assert capsys.readouterr().err.startswith("error ContractError: unknown benchmark setting")
