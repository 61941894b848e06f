#!/usr/bin/env python3
"""Run the committed synthetic benchmark and print the comparison table.

Trains the named settings (all of them by default) on shared seeds,
scores each final model on the held-out query/gallery split, and prints
per-seed plus median mAP along with the expected orderings:

    python3 scripts/run_benchmark.py
    python3 scripts/run_benchmark.py --settings baseline_intra,soft_triplet --seeds 1,2
    python3 scripts/run_benchmark.py --epochs 20 --warmup-epochs 6 --decay-epoch 14

With --out, the table, a JSON summary (the layout of the table.json of
`crosscam ablate`), and every per-run training log are written under the
given directory.  With --compare, each run's training log is checked
byte for byte, and its final mAP and Rank-1 bit for bit, against what an
earlier --out run wrote under the given directory, and the largest
|delta mAP| and |delta Rank-1| per setting are printed; the exit status
is 1 when any log or score differs or is missing:

    python3 scripts/run_benchmark.py --out before/
    python3 scripts/run_benchmark.py --compare before/
"""

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from crosscam.benchmark import (  # noqa: E402
    BENCHMARK_SEEDS,
    BENCHMARK_SETTINGS,
    benchmark_corpus,
    parse_seeds,
    run_benchmark,
)
from crosscam.data import write_text_atomic  # noqa: E402
from crosscam.errors import CrosscamError  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--settings",
        default=",".join(BENCHMARK_SETTINGS),
        help="comma-separated subset of: " + ", ".join(BENCHMARK_SETTINGS),
    )
    parser.add_argument(
        "--seeds", default=",".join(str(s) for s in BENCHMARK_SEEDS),
        help="comma-separated seed list shared by every setting",
    )
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--warmup-epochs", type=int, default=None)
    parser.add_argument("--decay-epoch", type=int, default=None)
    parser.add_argument("--out", help="directory for table, summary JSON, and logs")
    parser.add_argument("--compare", help="--out directory of an earlier run to compare against")
    return parser.parse_args(argv)


def direction_lines(outcome, labels):
    """Human-readable verdicts for every expected ordering both of whose
    sides were actually run.  The verdict compares medians; under each,
    the per-seed paired differences (higher side minus lower side, seeds
    both sides ran) and how many of them agree with the ordering are
    reported, to show how near the medians are to flipping."""

    def med(label):
        return outcome.row(label).median_map

    def paired(hi, lo, strict):
        lo_map = {run.seed: run.map for run in outcome.row(lo).runs}
        diffs = [run.map - lo_map[run.seed] for run in outcome.row(hi).runs if run.seed in lo_map]
        agree = sum(d > 0 if strict else d >= 0 for d in diffs)
        return (f"      per-seed {hi} - {lo}: {' '.join(f'{d:+.4f}' for d in diffs)}; "
                f"{agree}/{len(diffs)} seeds agree")

    checks = [
        ("soft_ce beats baseline_intra", "soft_ce", "baseline_intra", True),
        ("soft_triplet beats baseline_intra", "soft_triplet", "baseline_intra", True),
        ("baseline_intra beats random_mining", "baseline_intra", "random_mining", True),
        ("soft_triplet >= soft_triplet_unmasked", "soft_triplet", "soft_triplet_unmasked", False),
        ("soft_triplet >= soft_triplet_w", "soft_triplet", "soft_triplet_w", False),
        ("soft_triplet >= soft_triplet_nearest", "soft_triplet", "soft_triplet_nearest", False),
    ]
    lines = []
    for text, hi, lo, strict in checks:
        if hi not in labels or lo not in labels:
            continue
        a, b = med(hi), med(lo)
        ok = a > b if strict else a >= b
        lines.append(f"  [{'ok' if ok else 'FAIL'}] {text}: {a:.4f} vs {b:.4f}")
        lines.append(paired(hi, lo, strict))
    return lines


def trend_lines(outcome, labels):
    if "full" not in labels:
        return []
    lines = []
    for run in outcome.row("full").runs:
        quality = [r.affinity_map for r in run.log.records if r.affinity_map is not None]
        if len(quality) < 11:
            lines.append(f"  [n/a] seed {run.seed}: too few joint epochs for the trend check")
            continue
        first, tail = quality[0], statistics.median(quality[-10:])
        ok = tail > first
        lines.append(
            f"  [{'ok' if ok else 'FAIL'}] seed {run.seed}: affinity quality "
            f"{first:.4f} -> {tail:.4f} (tail median)"
        )
    return lines


def log_path(out_dir, label, seed):
    return os.path.join(out_dir, "logs", label, f"seed_{seed}", "train_log.csv")


def compare_lines(outcome, ref_dir):
    """(lines, ok): runs whose train_log.csv differs in any byte from the one
    under ref_dir or whose final mAP or Rank-1 differs in any bit from its
    summary.json, and the largest |delta mAP| and |delta Rank-1| per setting."""
    with open(os.path.join(ref_dir, "summary.json")) as fh:
        summary = json.load(fh)
    if "rows" not in summary:
        sys.exit(f"{ref_dir}/summary.json has no 'rows': written before the ablate layout; "
                 "see README.md, 'The committed benchmark'")
    ref = {(row["label"], r["seed"]): r for row in summary["rows"] for r in row["runs"]}
    lines, logs_ok, scores_ok, worst = [], True, True, {}
    runs = list(outcome.runs())
    for label, run in runs:
        path = log_path(ref_dir, label, run.seed)
        if not os.path.exists(path):
            lines.append(f"  [MISSING] {label} seed {run.seed}: no {path}")
            logs_ok = False
            continue
        with open(path) as fh:
            if fh.read() != run.log.to_csv():
                lines.append(f"  [DIFF] {label} seed {run.seed}: train_log.csv differs")
                logs_ok = False
        ref_run = ref.get((label, run.seed))
        if ref_run is None:
            lines.append(f"  [MISSING] {label} seed {run.seed}: not in summary.json")
            scores_ok = False
            continue
        # JSON floats round-trip exactly, so != catches a change in any bit.
        if (run.map, run.rank1) != (ref_run["map"], ref_run["rank1"]):
            lines.append(f"  [DIFF] {label} seed {run.seed}: final mAP or Rank-1 differs")
            scores_ok = False
        d_map, d_rank1 = worst.get(label, (0.0, 0.0))
        worst[label] = (max(d_map, abs(run.map - ref_run["map"])),
                        max(d_rank1, abs(run.rank1 - ref_run["rank1"])))
    lines.append(f"  {len(runs)} runs compared; logs "
                 f"{'all byte-identical' if logs_ok else 'NOT identical'}; final scores "
                 f"{'all bit-identical' if scores_ok else 'NOT identical'}")
    lines += [f"  {label}: max |delta mAP| {d_map!r}, max |delta Rank-1| {d_rank1!r}"
              for label, (d_map, d_rank1) in worst.items()]
    return lines, logs_ok and scores_ok


def main(argv=None):
    """Run the benchmark; a CrosscamError is reported on one line with exit status 1."""
    args = parse_args(argv)
    try:
        return run(args)
    except CrosscamError as e:
        message = str(e).replace("\n", " ")
        print(f"error {type(e).__name__}: {message}", file=sys.stderr)
        return 1


def run(args):
    labels = [s for s in args.settings.split(",") if s]
    seeds = parse_seeds(args.seeds)
    overrides = {}
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.warmup_epochs is not None:
        overrides["warmup_epochs"] = args.warmup_epochs
    if args.decay_epoch is not None:
        overrides["decay_epoch"] = args.decay_epoch

    print(f"settings: {', '.join(labels)}; seeds: {seeds}")
    corpus = benchmark_corpus()
    print(
        f"corpus: {len(corpus['train'])} train / {len(corpus['query'])} query / "
        f"{len(corpus['gallery'])} gallery samples, "
        f"{corpus['train'].index.total} person classes"
    )

    t0 = time.perf_counter()
    outcome = run_benchmark(
        corpus, settings=labels, seeds=seeds, config_overrides=overrides or None,
        progress=lambda label, r: print(f"  {label} seed {r.seed}: mAP {r.map:.4f}", flush=True),
    )
    elapsed = time.perf_counter() - t0

    print(f"\n{outcome.table_text()}")
    verdicts = direction_lines(outcome, labels)
    if verdicts:
        print("expected orderings (medians):")
        print("\n".join(verdicts))
    trends = trend_lines(outcome, labels)
    if trends:
        print("affinity-quality trend (full setting):")
        print("\n".join(trends))
    print(f"\ntotal wall time: {elapsed:.1f}s")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_text_atomic(os.path.join(args.out, "table.txt"), outcome.table_text())
        write_text_atomic(
            os.path.join(args.out, "summary.json"),
            json.dumps(outcome.to_jsonable(), indent=2, sort_keys=True) + "\n",
        )
        for label, run in outcome.runs():
            path = log_path(args.out, label, run.seed)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            write_text_atomic(path, run.log.to_csv())
        print(f"wrote {args.out}/table.txt, summary.json, and per-run logs")
    if args.compare:
        lines, ok = compare_lines(outcome, args.compare)
        print(f"comparison with {args.compare}:")
        print("\n".join(lines))
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
