"""benchmark_config and run_settings build their configs as the CLI does
(data.dataclass_from_dict): a key that is not a TrainConfig field, or a
value that does not fit its field, is a ConfigError naming the key,
before the setting trains; every other override keeps its value."""

import dataclasses

import pytest

from crosscam import ConfigError, TrainConfig, benchmark
from crosscam.benchmark import (
    BENCHMARK_DECAY, BENCHMARK_EPOCHS, BENCHMARK_WARMUP, benchmark_config, run_settings,
)


@pytest.mark.parametrize("overrides", [
    {"epochs": "3"}, {"n_p": 32.0}, {"lam": None}, {"mask_same_camera": 1}, {"seed": True},
    {"epoch": 3},
])
def test_benchmark_config_refuses_a_bad_override_by_name(overrides):
    with pytest.raises(ConfigError, match=repr(next(iter(overrides)))):
        benchmark_config(**overrides)


def test_run_settings_refuses_a_bad_setting_before_training(tiny_corpus, monkeypatch):
    # Alone, and after a good setting on three seeds: nothing trains at all.
    trained = []
    monkeypatch.setattr(benchmark, "train", lambda *args, **kwargs: trained.append(args))
    for settings, seeds in (({"bad": {"lam": "1"}}, (1,)),
                            ({"ok": {}, "bad": {"lam": "1"}}, (1, 2, 3))):
        with pytest.raises(ConfigError, match="'lam'"):
            run_settings("axis", settings, benchmark_config(), tiny_corpus, seeds,
                         validate_each_epoch=False)
        assert trained == []


def test_overrides_keep_their_values():
    base = TrainConfig(epochs=BENCHMARK_EPOCHS, warmup_epochs=BENCHMARK_WARMUP,
                       decay_epoch=BENCHMARK_DECAY)
    assert benchmark_config() == base
    cfg = benchmark_config(lam=2, k=4, inter_mode="D", seed=7)
    assert cfg == dataclasses.replace(base, lam=2.0, k=4, inter_mode="D", seed=7)
    assert type(cfg.lam) is float
