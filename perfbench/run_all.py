"""Run every workload once and print its metrics as a table.

    python3 perfbench/run_all.py --seed 1 --seconds 30 --trace 0

Each workload runs through ``run.py`` in turn, one at a time.  The table
gives every metric of the result line with its unit, then error_rate and
every other end-to-end figure of the run's record (seconds, epoch times,
mAP, Rank-1).  Exits 1 if any run failed or any job failed a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = [w["name"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]


def unit_of(metric: str) -> str:
    """The unit of a record-only figure, from its name."""
    for suffix, unit in (("_s", "s"), ("_rel", "probe"), ("_mb", "MB")):
        if metric.endswith(suffix):
            return unit
    return "ratio"  # map, rank1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: run failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            ok = False
            continue
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name}  seed {args.seed}  jobs {result['attempted']}  failed {result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'error_rate':40s} {record['error_rate']:>14.6g} ratio")
        for metric, value in record["end_to_end"].items():
            if metric not in result["metrics"] and value is not None:
                print(f"  {metric:40s} {value:>14.6g} {unit_of(metric)}")
        for failure in record["failures"]:
            print(f"  FAILED: {failure}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
