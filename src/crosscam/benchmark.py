"""Named settings trained on shared seeds: the committed benchmark and the ablation axes.

A setting is a label plus TrainConfig overrides.  One runner trains every
setting of a table on the same seed list, scores each final model on a
query/gallery split, and returns one result table (per-seed and median
mAP and Rank-1, with each run's log); each seed gives a paired
comparison.  Two tables of settings use it:

BENCHMARK_SETTINGS is the committed protocol of the acceptance tests and
scripts/run_benchmark.py: a 200-identity, 4-camera corpus with the
generator defaults, trained on a compressed schedule that keeps the
published phase proportions (warmup for the first third, learning-rate
decay at two thirds) while fitting a desk-scale runtime budget.  Every
compared pair differs in exactly one knob:

- baseline_intra      within-camera triplet only (lam = 0)
- random_mining       baseline with random instead of hard mining
- soft_ce             adds the soft-label cross-entropy ("C")
- soft_triplet        adds the weighted soft triplet ("D")
- soft_triplet_unmasked   "D" without the same-camera affinity mask
- soft_triplet_w      "D" with affinity-proportional positive weights
- soft_triplet_nearest    "D" drawing nearest instead of random positives
- full                both soft-label losses ("C+D")

ABLATION_SETTINGS holds one table per ablation axis of `crosscam
ablate`, applied on top of a caller's base config.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Iterator

from .data import Dataset, SynthSpec, dataclass_from_dict, generate_synthetic
from .errors import ConfigError, ContractError
from .evaluation import evaluate
from .trainer import TrainConfig, TrainLog, train

BENCHMARK_SPEC = SynthSpec()  # 200 identities, 4 cameras, generator defaults

BENCHMARK_EPOCHS = 42
BENCHMARK_WARMUP = 14
BENCHMARK_DECAY = 28

BENCHMARK_SEEDS = (1, 2, 3, 4, 5)

BENCHMARK_SETTINGS: dict[str, dict] = {
    "baseline_intra": {"lam": 0.0},
    "random_mining": {"lam": 0.0, "mining_mode": "random"},
    "soft_ce": {"inter_mode": "C"},
    "soft_triplet": {"inter_mode": "D"},
    "soft_triplet_unmasked": {"inter_mode": "D", "mask_same_camera": False},
    "soft_triplet_w": {"inter_mode": "D", "weighting_mode": "W"},
    "soft_triplet_nearest": {"inter_mode": "D", "positive_sampling": "nearest"},
    "full": {"inter_mode": "C+D"},
}

ABLATION_SETTINGS: dict[str, dict[str, dict]] = {
    "inter_mode": {
        "baseline_intra_only": {"lam": 0.0},
        "C": {"inter_mode": "C"},
        "D": {"inter_mode": "D"},
    },
    # Mining is an intra-loss property; compared with the cross-camera
    # objective switched off so nothing masks the difference.
    "mining_mode": {
        "hard": {"mining_mode": "hard", "lam": 0.0},
        "random": {"mining_mode": "random", "lam": 0.0},
    },
    "mask_same_camera": {
        "masked": {"mask_same_camera": True},
        "unmasked": {"mask_same_camera": False},
    },
    "positive_sampling": {
        "random": {"positive_sampling": "random"},
        "nearest": {"positive_sampling": "nearest"},
    },
    "weighting_mode": {
        "AW": {"weighting_mode": "AW"},
        "W": {"weighting_mode": "W"},
    },
    "lambda_sweep": {f"lambda={v:g}": {"lam": v} for v in (0.0, 0.5, 1.0, 2.0, 5.0)},
    "k_sweep": {f"k={v}": {"k": v} for v in (2, 4, 6, 8, 10)},
}
ABLATION_AXES = tuple(ABLATION_SETTINGS)


def benchmark_config(**overrides) -> TrainConfig:
    """The committed training configuration, with optional overrides,
    refused as the CLI refuses them (data.dataclass_from_dict)."""
    base = TrainConfig(epochs=BENCHMARK_EPOCHS, warmup_epochs=BENCHMARK_WARMUP,
                       decay_epoch=BENCHMARK_DECAY)
    return dataclass_from_dict(TrainConfig, overrides, base=base)


def benchmark_corpus() -> dict[str, Dataset]:
    return generate_synthetic(BENCHMARK_SPEC)


@dataclass
class Run:
    """One setting trained on one seed: final retrieval scores and the per-epoch log."""

    seed: int
    map: float
    rank1: float
    log: TrainLog


@dataclass
class Row:
    label: str
    overrides: dict
    runs: list[Run]

    @property
    def median_map(self) -> float:
        return statistics.median(r.map for r in self.runs)

    @property
    def median_rank1(self) -> float:
        return statistics.median(r.rank1 for r in self.runs)


@dataclass
class ResultTable:
    """The rows of one table of settings, in the table's order."""

    axis: str
    rows: list[Row]

    def row(self, label: str) -> Row:
        for r in self.rows:
            if r.label == label:
                return r
        raise ContractError(f"no runs for setting {label!r}")

    def runs(self) -> Iterator[tuple[str, Run]]:
        """(row label, run) of every run, row by row, seeds in order."""
        return ((r.label, run) for r in self.rows for run in r.runs)

    def table_text(self) -> str:
        width = max(len(r.label) for r in self.rows)
        lines = [f"{'setting'.ljust(width)}  median_mAP  median_rank1  per-seed mAP"]
        for r in self.rows:
            per_seed = " ".join(f"{run.map:.4f}" for run in r.runs)
            lines.append(
                f"{r.label.ljust(width)}  {r.median_map:10.4f}  {r.median_rank1:12.4f}  {per_seed}"
            )
        return "\n".join(lines) + "\n"

    def to_jsonable(self) -> dict:
        return {
            "axis": self.axis,
            "rows": [
                {
                    "label": r.label,
                    "overrides": r.overrides,
                    "median_map": r.median_map,
                    "median_rank1": r.median_rank1,
                    "runs": [
                        {"seed": run.seed, "map": run.map, "rank1": run.rank1} for run in r.runs
                    ],
                }
                for r in self.rows
            ],
        }


def parse_seeds(text: str) -> tuple[int, ...]:
    """A comma-separated seed list; run_settings refuses an empty or repeated one."""
    try:
        return tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError as e:
        raise ConfigError(f"seeds must be a comma-separated integer list: {e}") from e


def run_settings(
    axis: str,
    settings: dict[str, dict],
    base: TrainConfig,
    corpus: dict[str, Dataset],
    seeds: tuple[int, ...],
    validate_each_epoch: bool,
    progress: Callable[[str, Run], None] | None = None,
) -> ResultTable:
    """Train every setting on every seed and score each final model.

    corpus holds the train, query and gallery splits.  With
    validate_each_epoch, the query/gallery scores of every epoch go into
    the log as well.  seeds must be nonempty and distinct: each is one
    paired comparison.  Every setting's config is built and checked on
    every seed before the first one trains.
    """
    if not seeds or len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds must name at least one seed, each once; got {list(seeds)}")
    splits = (corpus["query"], corpus["gallery"])
    configs = {label: [dataclass_from_dict(TrainConfig, {**overrides, "seed": seed}, base=base)
                       for seed in seeds] for label, overrides in settings.items()}
    rows = []
    for label, overrides in settings.items():
        runs = []
        for seed, cfg in zip(seeds, configs[label]):
            result = train(corpus["train"], cfg, *(splits if validate_each_epoch else ()))
            scored = evaluate(result.model, *splits)
            runs.append(Run(seed, scored.map, scored.cmc[1], result.log))
            if progress is not None:
                progress(label, runs[-1])
        rows.append(Row(label, dict(overrides), runs))
    return ResultTable(axis, rows)


def run_benchmark(
    corpus: dict[str, Dataset] | None = None,
    settings: list[str] | None = None,
    seeds: tuple[int, ...] = BENCHMARK_SEEDS,
    config_overrides: dict | None = None,
    progress: Callable[[str, Run], None] | None = None,
) -> ResultTable:
    """The named benchmark settings (all by default) over shared seeds; the
    workhorse behind both scripts/run_benchmark.py and the acceptance tests.

    config_overrides changes the base config (scripts/run_benchmark.py
    passes the schedule); each setting's own overrides apply on top.
    """
    if settings is None:
        settings = list(BENCHMARK_SETTINGS)
    unknown = [label for label in settings if label not in BENCHMARK_SETTINGS]
    if unknown:
        raise ContractError(
            f"unknown benchmark setting {unknown[0]!r}; expected one of {sorted(BENCHMARK_SETTINGS)}"
        )
    if corpus is None:
        corpus = benchmark_corpus()
    return run_settings(
        "benchmark", {label: BENCHMARK_SETTINGS[label] for label in settings},
        benchmark_config(**(config_overrides or {})), corpus, seeds,
        validate_each_epoch=False, progress=progress,
    )


def run_ablation(
    dataset: Dataset,
    base_config: TrainConfig,
    axis: str,
    query: Dataset,
    gallery: Dataset,
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5),
) -> ResultTable:
    """Every setting of one ablation axis on top of base_config, with per-epoch validation."""
    if axis not in ABLATION_SETTINGS:
        raise ContractError(f"unknown ablation axis {axis!r}; expected one of {ABLATION_AXES}")
    corpus = {"train": dataset, "query": query, "gallery": gallery}
    return run_settings(axis, ABLATION_SETTINGS[axis], base_config, corpus, seeds,
                        validate_each_epoch=True)
