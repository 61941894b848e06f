"""Dataset and checkpoint files are written and read one line at a time.

- A round trip's traced peak is bounded by the arrays it must hold, never
  by the file's text, which is several times larger.
- A write that fails partway, with its temp file already open, leaves the
  old file's bytes and no temp file behind.
- Every file written atomically gets the mode open() would give it, and a
  file it replaces keeps its mode.
- The loaders read a file twice, a counting pass and a parse pass; a file
  that comes up short or unreadable in the second pass is refused with a
  FormatError, as it would be in the first.
"""

import dataclasses
import itertools
import os
import stat
from contextlib import contextmanager

import numpy as np
import pytest

from crosscam import (
    FormatError,
    Optimizer,
    OptimizerState,
    generate_synthetic,
    init_head,
    init_model,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
)
from crosscam import data, model
from crosscam.benchmark import BENCHMARK_SPEC
from crosscam.data import write_text_atomic
from conftest import traced_peak

MiB = 2**20


@pytest.fixture(scope="module")
def train_split():
    """Half the scale_val workload's train split: about 7,400 records, 4.7 MB of text."""
    return generate_synthetic(dataclasses.replace(BENCHMARK_SPEC, n_identities=500, seed=1))["train"]


@pytest.fixture(scope="module")
def checkpoint_parts():
    """The parts of a scale_val-sized checkpoint (2,473 classes, 4.9 MB of text):
    model, head, the head's velocity and a (32, 2,473) extra array."""
    rng = np.random.default_rng(0)
    classes = 2473
    model, head = init_model(32, 64, 32, rng), init_head(32, classes, rng)
    state = OptimizerState()
    state.velocities["Wc"] = rng.standard_normal((classes, 32))
    state.velocities["bc"] = rng.standard_normal(classes)
    return model, head, Optimizer(), state, {"buffer.P": rng.standard_normal((32, classes))}


@pytest.fixture(scope="module")
def train_file(train_split, tmp_path_factory):
    path = tmp_path_factory.mktemp("train") / "train.txt"
    save_dataset(train_split, path)
    return path


@pytest.fixture(scope="module")
def checkpoint_file(checkpoint_parts, tmp_path_factory):
    path = tmp_path_factory.mktemp("checkpoint") / "ck.txt"
    save_checkpoint(path, *checkpoint_parts)
    return path


def test_save_dataset_holds_no_file_text(train_split, train_file, tmp_path):
    path = tmp_path / "train.txt"
    peak = traced_peak(save_dataset, train_split, path).peak
    assert os.path.getsize(path) > 4 * MiB
    assert peak <= 2 * MiB
    assert path.read_bytes() == train_file.read_bytes()


def test_load_dataset_holds_its_arrays_not_its_text(train_split, train_file):
    loaded, peak, _ = traced_peak(load_dataset, train_file)
    assert loaded == train_split
    arrays = sum(a.nbytes for a in (loaded.features, loaded.camera_ids, loaded.local_ids,
                                    loaded.truth))
    assert peak <= arrays + 2 * MiB


def test_save_checkpoint_holds_no_file_text(checkpoint_parts, checkpoint_file, tmp_path):
    path = tmp_path / "ck.txt"
    peak = traced_peak(save_checkpoint, path, *checkpoint_parts).peak
    assert os.path.getsize(path) > 4 * MiB
    assert peak <= 2 * MiB
    assert path.read_bytes() == checkpoint_file.read_bytes()


def test_load_checkpoint_holds_its_arrays_not_its_text(checkpoint_parts, checkpoint_file):
    _, _, _, state, extra = checkpoint_parts
    ck, peak, _ = traced_peak(load_checkpoint, checkpoint_file)
    assert np.array_equal(ck.arrays["buffer.P"], extra["buffer.P"])
    assert np.array_equal(ck.state.velocities["Wc"], state.velocities["Wc"])
    held = [*ck.model.params().values(), *ck.head.params().values(),
            *ck.state.velocities.values(), *ck.arrays.values()]
    assert peak <= sum(a.nbytes for a in held) + 1 * MiB


def test_checkpoint_error_mid_write_keeps_the_old_file(tmp_path):
    rng = np.random.default_rng(1)
    model, head = init_model(3, 4, 2, rng), init_head(2, 3, rng)
    path = tmp_path / "ck.txt"
    save_checkpoint(path, model, head, Optimizer(), OptimizerState())
    before = path.read_bytes()
    # The bad array comes last: the temp file is open and every other line written to it.
    with pytest.raises(ValueError, match="could not convert string to float"):
        save_checkpoint(path, model, head, Optimizer(), OptimizerState(),
                        extra_arrays={"x": np.array([["a"]])})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["ck.txt"]


def test_dataset_error_mid_write_keeps_the_old_file(tiny_train, tmp_path, monkeypatch):
    path = tmp_path / "d.txt"
    save_dataset(tiny_train, path)
    before = path.read_bytes()
    lines = data.chain

    def failing_lines(*parts):
        yield from itertools.islice(lines(*parts), 8)
        raise RuntimeError("line source failed")

    monkeypatch.setattr(data, "chain", failing_lines)
    with pytest.raises(RuntimeError, match="line source failed"):
        save_dataset(tiny_train, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["d.txt"]


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=oct)
def test_written_files_get_the_mode_open_gives(tiny_train, tmp_path, umask):
    rng = np.random.default_rng(2)
    old = os.umask(umask)
    try:
        save_dataset(tiny_train, tmp_path / "d.txt")
        save_checkpoint(tmp_path / "ck.txt", init_model(3, 4, 2, rng), init_head(2, 3, rng),
                        Optimizer(), OptimizerState())
        write_text_atomic(tmp_path / "t.txt", "text\n")
        with open(tmp_path / "open.txt", "w"):
            pass
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(os.stat(p).st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["d.txt", "ck.txt", "t.txt", "open.txt"], 0o666 & ~umask)


def test_undecodable_file_is_unreadable(tmp_path):
    path = tmp_path / "d.txt"
    path.write_bytes(b"crosscam-dataset v1\nsplit train\n\xff\xfe\n")
    with pytest.raises(FormatError) as err:
        load_dataset(path)
    assert err.value.line is None
    assert err.value.reason.startswith("cannot read file: 'utf-8' codec can't decode")


def test_replaced_file_keeps_its_mode(tiny_train, tmp_path, monkeypatch):
    def no_umask(mask):
        raise AssertionError("the process umask is shared by every thread; it is not to be set")

    d, t = tmp_path / "d.txt", tmp_path / "t.txt"
    save_dataset(tiny_train, d)
    write_text_atomic(t, "old\n")
    os.chmod(d, 0o600)
    os.chmod(t, 0o640)
    monkeypatch.setattr(os, "umask", no_umask)
    save_dataset(tiny_train, d)
    write_text_atomic(t, "new\n")
    assert stat.S_IMODE(os.stat(d).st_mode) == 0o600
    assert stat.S_IMODE(os.stat(t).st_mode) == 0o640
    assert t.read_text() == "new\n"


def read_through(monkeypatch, module, edit):
    """Make module's loader take read_lines' (lines, n_lines, n_chars) through edit,
    as if the file changed between the counting pass and the parse pass."""
    read_lines = data.read_lines

    @contextmanager
    def edited(*args):
        with read_lines(*args) as opened:
            yield edit(*opened)

    monkeypatch.setattr(module, "read_lines", edited)


@pytest.fixture
def small_files(tiny_train, tmp_path):
    rng = np.random.default_rng(3)
    save_dataset(tiny_train, tmp_path / "dataset.txt")
    save_checkpoint(tmp_path / "checkpoint.txt", init_model(3, 4, 2, rng), init_head(2, 3, rng),
                    Optimizer(), OptimizerState())
    return tmp_path


PARSE_PASS = {"dataset": (load_dataset, data), "checkpoint": (load_checkpoint, model)}


@pytest.mark.parametrize("kind, keep, line, reason", [
    ("dataset", 5, 7, "record 1: expected 35 fields, got 0"),
    ("checkpoint", 2, 4, "array 'model.W1': expected 3 values"),
], ids=["dataset", "checkpoint"])
def test_file_short_in_the_parse_pass_is_refused(small_files, monkeypatch, kind, keep, line,
                                                 reason):
    load, module = PARSE_PASS[kind]
    read_through(monkeypatch, module,
                 lambda lines, n_lines, n_chars: (itertools.islice(lines, keep), n_lines, n_chars))
    with pytest.raises(FormatError) as err:
        load(small_files / f"{kind}.txt")
    assert (err.value.line, err.value.reason) == (line, reason)


@pytest.mark.parametrize("kind", sorted(PARSE_PASS))
def test_read_error_in_the_parse_pass_is_unreadable(small_files, monkeypatch, kind):
    def failing(lines, n_lines, n_chars):
        def read():
            yield from itertools.islice(lines, 6)
            raise OSError("device gone")
        return read(), n_lines, n_chars

    load, module = PARSE_PASS[kind]
    read_through(monkeypatch, module, failing)
    with pytest.raises(FormatError) as err:
        load(small_files / f"{kind}.txt")
    assert (err.value.line, err.value.reason) == (None, "cannot read file: device gone")


def test_checkpoint_grown_since_its_count_is_refused(small_files, monkeypatch):
    # A character count of 0 holds no row, so model.W1 is allocated without rows.
    read_through(monkeypatch, model, lambda lines, n_lines, n_chars: (lines, n_lines, 0))
    with pytest.raises(FormatError) as err:
        load_checkpoint(small_files / "checkpoint.txt")
    assert err.value.line == 3
    assert err.value.reason.startswith("array 'model.W1': index 0 is out of bounds")


def test_value_text_is_the_per_value_repr(tiny_train, tmp_path):
    """Both writers format values through data.float_fields: every value
    line of a checkpoint is the per-value " ".join(repr(float(v)) for v
    in row) the checkpoint writer used before, and every dataset record's
    features are its own per-value repr, byte for byte, for float64,
    float32, integer and bool arrays, -0.0, subnormals and the extremes."""
    rng = np.random.default_rng(1)
    model_, head = init_model(3, 4, 2, rng), init_head(2, 5, rng)
    state = OptimizerState()
    state.velocities["Wc"] = rng.standard_normal((5, 2))
    special = np.array([-0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308,
                        0.1, 1 / 3, -1e-310, 123456789.0])
    extra = {"f32": rng.standard_normal((2, 3)).astype(np.float32),
             "ints": np.arange(-3, 3).reshape(2, 3), "mask": np.array([True, False, True]),
             "special": special}
    path = tmp_path / "values.ckpt"
    save_checkpoint(path, model_, head, Optimizer(), state, extra)
    arrays = {**{f"model.{k}": v for k, v in model_.params().items()},
              **{f"head.{k}": v for k, v in head.params().items()},
              **{f"velocity.{k}": v for k, v in state.velocities.items()}, **extra}
    lines = path.read_text().splitlines()
    checked = 0
    for i, line in enumerate(lines):
        if line.startswith("array "):
            rows = np.atleast_2d(np.asarray(arrays[line.split()[1]]))
            assert lines[i + 1:i + 1 + len(rows)] == [
                " ".join(repr(float(v)) for v in row) for row in rows]
            checked += 1
    assert checked == len(arrays)

    features = tiny_train.features.copy()
    features[0, :special.size // 4] = special[:special.size // 4]
    ds = data.Dataset(features, tiny_train.camera_ids, tiny_train.local_ids, tiny_train.truth,
                      tiny_train.n_cameras, "train")
    save_dataset(ds, tmp_path / "values.txt")
    records = (tmp_path / "values.txt").read_text().splitlines()[5:-1]
    assert [r.split(" ", 3)[3] for r in records] == [
        " ".join(map(repr, row.tolist())) for row in ds.features]
