"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload joint_full --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from its ``src/`` directory, nothing needs installing.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``,
each named, with its unit, as in ``BENCHMARK.json``.  The line before it
is the run's full record (environment, every check that failed,
joint-epoch time, tracing overhead), which is also written under
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The package, the oracles it is checked against, and the metric list.
REQUIRED = ("src/crosscam/__init__.py", "tests/oracles.py", "BENCHMARK.json")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def result_line(summary: dict, declared: list[dict]) -> dict:
    """The contract's last line: every declared metric with its declared unit."""
    values = summary["per_layer"] if summary["trace"] else summary["end_to_end"]
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not inside a crosscam checkout, missing {missing}", file=sys.stderr)
        return 2
    # Pinned before numpy loads, here and in every job process started from here.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import bench  # imports the package, so only once it is known to exist

    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = bench.measure(
        bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    results = bench.WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = json.dumps(summary, sort_keys=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
     ).write_text(record + "\n")
    print(record)
    try:
        line = result_line(summary, declared["per_layer" if args.trace else "end_to_end"])
    except KeyError as missing_metric:
        print(f"perfbench: no job finished, so {missing_metric} was not measured", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
