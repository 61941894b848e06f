import json
import os

import pytest

from crosscam.cli import main
from crosscam.trainer import TRAINLOG_COLUMNS


GEN_FLAGS = [
    "--n-identities", "12", "--n-cameras", "3", "--images-per-person", "3",
    "--d-latent", "3", "--d-in", "8", "--seed", "7",
]

TRAIN_FLAGS = [
    "--n-p", "12", "--n-k", "2", "--epochs", "3", "--warmup-epochs", "1",
    "--hidden-dim", "12", "--embed-dim", "6", "--class-batch-total", "6",
    "--seed", "3",
]


def read(path):
    with open(path) as fh:
        return fh.read()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen -> train -> eval once; individual tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert main(["gen", "--out", str(data)] + GEN_FLAGS) == 0
    assert main(
        ["train", "--data", str(data / "train.txt"),
         "--query", str(data / "query.txt"), "--gallery", str(data / "gallery.txt"),
         "--out", str(run)] + TRAIN_FLAGS
    ) == 0
    eval_json = root / "eval.json"
    assert main(
        ["eval", "--checkpoint", str(run / "checkpoint_final.txt"),
         "--query", str(data / "query.txt"), "--gallery", str(data / "gallery.txt"),
         "--out", str(eval_json)]
    ) == 0
    return {"data": data, "run": run, "eval_json": eval_json}


class TestPipeline:
    def test_gen_writes_all_splits_and_metadata(self, pipeline):
        for name in ("train.txt", "query.txt", "gallery.txt", "gen_config.json", "run_meta.json"):
            assert (pipeline["data"] / name).exists()
        gen_cfg = json.loads(read(pipeline["data"] / "gen_config.json"))
        assert gen_cfg["n_identities"] == 12
        assert gen_cfg["seed"] == 7

    def test_train_writes_canonical_artifacts(self, pipeline):
        for name in (
            "effective_config.json", "train_log.csv", "train_log.json",
            "timing.csv", "checkpoint_final.txt", "run_meta.json",
        ):
            assert (pipeline["run"] / name).exists()

    def test_effective_config_echoes_flags(self, pipeline):
        cfg = json.loads(read(pipeline["run"] / "effective_config.json"))
        assert cfg["n_p"] == 12
        assert cfg["epochs"] == 3
        assert cfg["margin"] == 0.3  # untouched default

    def test_train_log_has_canonical_columns_and_rows(self, pipeline):
        lines = read(pipeline["run"] / "train_log.csv").strip().split("\n")
        assert lines[0] == ",".join(TRAINLOG_COLUMNS)
        assert len(lines) == 1 + 3

    def test_eval_json_payload(self, pipeline):
        payload = json.loads(read(pipeline["eval_json"]))
        assert 0.0 <= payload["map"] <= 1.0
        assert set(payload["cmc"]) == {"1", "5", "10", "20"}
        assert payload["n_evaluated"] > 0

    def test_eval_prints_metrics(self, pipeline, capsys):
        main(
            ["eval", "--checkpoint", str(pipeline["run"] / "checkpoint_final.txt"),
             "--query", str(pipeline["data"] / "query.txt"),
             "--gallery", str(pipeline["data"] / "gallery.txt")]
        )
        out = capsys.readouterr().out
        assert "mAP" in out and "rank-1" in out and "queries" in out

    def test_export_metrics_round_trips_csv(self, pipeline, tmp_path, capsys):
        out_csv = tmp_path / "metrics.csv"
        assert main(
            ["export-metrics", "--log", str(pipeline["run"] / "train_log.json"),
             "--format", "csv", "--out", str(out_csv)]
        ) == 0
        assert read(out_csv) == read(pipeline["run"] / "train_log.csv")

    def test_export_metrics_to_stdout(self, pipeline, capsys):
        assert main(
            ["export-metrics", "--log", str(pipeline["run"] / "train_log.json"),
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"] == list(TRAINLOG_COLUMNS)


class TestDeterminism:
    def test_gen_is_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen", "--out", str(a)] + GEN_FLAGS)
        main(["gen", "--out", str(b)] + GEN_FLAGS)
        for name in ("train.txt", "query.txt", "gallery.txt"):
            assert read(a / name) == read(b / name)

    def test_rerun_from_echoed_config_is_bitwise_identical(self, pipeline, tmp_path):
        rerun = tmp_path / "rerun"
        assert main(
            ["train", "--data", str(pipeline["data"] / "train.txt"),
             "--query", str(pipeline["data"] / "query.txt"),
             "--gallery", str(pipeline["data"] / "gallery.txt"),
             "--out", str(rerun),
             "--config", str(pipeline["run"] / "effective_config.json")]
        ) == 0
        assert read(rerun / "train_log.csv") == read(pipeline["run"] / "train_log.csv")
        assert read(rerun / "train_log.json") == read(pipeline["run"] / "train_log.json")
        assert read(rerun / "checkpoint_final.txt") == read(
            pipeline["run"] / "checkpoint_final.txt"
        )

    def test_config_file_overridden_by_explicit_flag(self, pipeline, tmp_path):
        out = tmp_path / "override"
        assert main(
            ["train", "--data", str(pipeline["data"] / "train.txt"),
             "--out", str(out),
             "--config", str(pipeline["run"] / "effective_config.json"),
             "--epochs", "2", "--warmup-epochs", "2"]
        ) == 0
        cfg = json.loads(read(out / "effective_config.json"))
        assert cfg["epochs"] == 2
        assert cfg["n_p"] == 12  # from the config file


class TestCheckpointInterval:
    def test_periodic_checkpoints_written(self, pipeline, tmp_path):
        out = tmp_path / "ckpt"
        assert main(
            ["train", "--data", str(pipeline["data"] / "train.txt"),
             "--out", str(out), "--checkpoint-interval", "2"] + TRAIN_FLAGS
        ) == 0
        assert (out / "checkpoint_epoch_0002.txt").exists()
        assert not (out / "checkpoint_epoch_0001.txt").exists()
        assert not (out / "checkpoint_epoch_0003.txt").exists()
        assert (out / "checkpoint_final.txt").exists()


class TestAblateCommand:
    def test_ablate_writes_table_and_logs(self, pipeline, tmp_path):
        out = tmp_path / "abl"
        assert main(
            ["ablate", "--data", str(pipeline["data"] / "train.txt"),
             "--query", str(pipeline["data"] / "query.txt"),
             "--gallery", str(pipeline["data"] / "gallery.txt"),
             "--axis", "mining_mode", "--out", str(out),
             "--seeds", "1", "--epochs", "2", "--warmup-epochs", "2",
             "--n-p", "12", "--n-k", "2", "--hidden-dim", "12", "--embed-dim", "6"]
        ) == 0
        assert (out / "table.txt").exists()
        table = json.loads(read(out / "table.json"))
        assert table["axis"] == "mining_mode"
        assert [r["label"] for r in table["rows"]] == ["hard", "random"]
        for label in ("hard", "random"):
            assert (out / "logs" / label / "seed_1" / "train_log.csv").exists()

    def test_bad_seed_list_rejected(self, pipeline, tmp_path, capsys):
        code = main(
            ["ablate", "--data", str(pipeline["data"] / "train.txt"),
             "--query", str(pipeline["data"] / "query.txt"),
             "--gallery", str(pipeline["data"] / "gallery.txt"),
             "--axis", "mining_mode", "--out", str(tmp_path / "x"),
             "--seeds", "1,two"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error ConfigError:")


class TestErrorReporting:
    def test_unknown_config_key_fails_cleanly(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_persons": 8}\n')
        code = main(
            ["train", "--data", str(pipeline["data"] / "train.txt"),
             "--out", str(tmp_path / "out"), "--config", str(bad)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error ConfigError:")
        assert "n_persons" in err

    @pytest.mark.parametrize("values", [
        {"epochs": 3.5}, {"n_p": "x"}, {"lam": None}, {"mask_same_camera": "false"},
        {"seed": True},
    ])
    def test_train_config_value_of_wrong_type_fails_cleanly(self, pipeline, tmp_path, capsys,
                                                            values):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(values))
        code = main(
            ["train", "--data", str(pipeline["data"] / "train.txt"),
             "--out", str(tmp_path / "out"), "--config", str(bad)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error ConfigError:")
        assert repr(next(iter(values))) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("values", [
        {"n_identities": 2.5}, {"noise_sigma": "0.1"}, {"seed": True}, {"d_in": None},
    ])
    def test_gen_config_value_of_wrong_type_fails_cleanly(self, tmp_path, capsys, values):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(values))
        code = main(["gen", "--out", str(tmp_path / "g"), "--config", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error ConfigError:")
        assert repr(next(iter(values))) in err

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error ")

    def test_truncated_checkpoint(self, pipeline, tmp_path, capsys):
        broken = tmp_path / "broken.txt"
        content = read(pipeline["run"] / "checkpoint_final.txt")
        broken.write_text(content[: len(content) // 2])
        code = main(
            ["eval", "--checkpoint", str(broken),
             "--query", str(pipeline["data"] / "query.txt"),
             "--gallery", str(pipeline["data"] / "gallery.txt")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error FormatError:")

    def test_inconsistent_checkpoint(self, pipeline, tmp_path, capsys):
        lines = read(pipeline["run"] / "checkpoint_final.txt").splitlines()
        at = lines.index(next(line for line in lines if line.startswith("array model.b1 ")))
        lines[at + 1] += " 0.5"  # one bias more than model.W1 has rows
        lines[at] = f"array model.b1 1 {len(lines[at + 1].split())}"
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        code = main(
            ["eval", "--checkpoint", str(bad),
             "--query", str(pipeline["data"] / "query.txt"),
             "--gallery", str(pipeline["data"] / "gallery.txt")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error FormatError: {bad}:{at + 1}: array 'model.b1' is 1 x 13")

    def test_checkpoint_with_nan_weight_fails_cleanly(self, pipeline, tmp_path, capsys):
        lines = read(pipeline["run"] / "checkpoint_final.txt").splitlines()
        at = lines.index(next(line for line in lines if line.startswith("array model.W2 ")))
        values = lines[at + 1].split()
        lines[at + 1] = " ".join(["nan"] + values[1:])
        bad = tmp_path / "nan.txt"
        bad.write_text("\n".join(lines) + "\n")
        code = main(
            ["eval", "--checkpoint", str(bad),
             "--query", str(pipeline["data"] / "query.txt"),
             "--gallery", str(pipeline["data"] / "gallery.txt")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error FormatError: {bad}:{at + 2}: array 'model.W2': non-finite value")

    def test_short_warmup_fails_cleanly(self, tmp_path, capsys):
        # Cameras of 10, 9 and 14 persons: one warmup epoch of 12-person
        # batches leaves two persons of camera 2 undrawn.
        data = tmp_path / "data"
        gen = ["--n-identities", "16"] + GEN_FLAGS[2:]
        assert main(["gen", "--out", str(data)] + gen) == 0
        code = main(["train", "--data", str(data / "train.txt"), "--out", str(tmp_path / "run")]
                    + TRAIN_FLAGS)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error ConfigError: 1 warmup epoch(s) never drew 2 of the 14 "
                              "persons of camera 2")
        # The logs are written after every epoch, so the finished warmup epoch survives.
        log = read(tmp_path / "run" / "train_log.csv").splitlines()
        assert log[0] == ",".join(TRAINLOG_COLUMNS)
        assert [line.split(",")[0] for line in log[1:]] == ["1"]
        assert json.loads(read(tmp_path / "run" / "train_log.json"))["records"][0]["epoch"] == 1
        assert read(tmp_path / "run" / "timing.csv").splitlines()[1].startswith("1,")

    def test_query_without_gallery_rejected(self, pipeline, tmp_path, capsys):
        code = main(
            ["train", "--data", str(pipeline["data"] / "train.txt"),
             "--query", str(pipeline["data"] / "query.txt"),
             "--out", str(tmp_path / "o")] + TRAIN_FLAGS
        )
        assert code == 1
        assert "gallery" in capsys.readouterr().err

    def test_invalid_generator_setting(self, tmp_path, capsys):
        code = main(["gen", "--out", str(tmp_path / "g"), "--n-cameras", "1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error ")

    def test_error_messages_are_single_line(self, pipeline, tmp_path, capsys):
        main(["train", "--data", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert err.endswith("\n")
        assert "\n" not in err[:-1]


class TestConsoleScript:
    def test_entry_point_installed(self):
        import shutil

        exe = shutil.which("crosscam")
        assert exe is not None

    def test_entry_point_runs(self, tmp_path):
        import subprocess

        proc = subprocess.run(
            ["crosscam", "gen", "--out", str(tmp_path / "g")] + GEN_FLAGS,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "g" / "train.txt").exists()
        assert "wrote" in proc.stdout
