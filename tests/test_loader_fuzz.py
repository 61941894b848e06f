"""Truncated and corrupted dataset and checkpoint files are refused at the
boundary, with a FormatError (or VersionError) naming a line of the file,
never with a raw exception.

Each case starts from one valid file.  It either cuts the file after any
line, or replaces one token of any line (header, record, array row or
scalar) with a drawn token.
- A cut file always fails.
- A garbage token (text, an empty token, a non-finite float) always fails
  too, except where a file may carry any name: the name of an optional
  (velocity) array, which then loads as an extra array.
- A number may leave a valid file (one feature value for another), so such
  a case either loads or fails with a named line.
Drawn numbers are bounded so that no case allocates more than a few MB.
The 10**11 header sizes that would not fit in memory (or, for n_cameras,
exceed data.MAX_CAMERAS) are checked explicitly: the loaders refuse them
before allocating anything.  So is a file with no records and a d_in too
large for any array.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crosscam import (
    FormatError,
    Optimizer,
    OptimizerState,
    SynthSpec,
    generate_synthetic,
    init_head,
    init_model,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
)

FUZZ = settings(max_examples=300, deadline=None, derandomize=True)
GARBAGE = ["", "x", "1.2.3", "nan", "inf", "-inf", "0x10", "1e", "--", "é"]
NUMBERS = st.one_of(
    st.integers(min_value=-3, max_value=5000),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.sampled_from(["-0", "+1", "1_0", "1e308", "1e-320", "0.5"]),
)


def checkpoint_args():
    rng = np.random.default_rng(0)
    model, head = init_model(3, 4, 2, rng), init_head(2, 3, rng)
    state = OptimizerState()
    state.velocities["b1"] = np.full(4, 0.5)
    state.velocities["Wc"] = np.ones((3, 2))
    return model, head, Optimizer(), state


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    save_dataset(generate_synthetic(SynthSpec(n_identities=4, n_cameras=2, d_in=3, d_latent=2,
                                              images_per_person=2, seed=3))["train"],
                 root / "dataset.txt")
    save_checkpoint(root / "checkpoint.txt", *checkpoint_args())
    return {kind: (root / f"{kind}.txt").read_text().splitlines()
            for kind in ("dataset", "checkpoint")}


LOADERS = {"dataset": load_dataset, "checkpoint": load_checkpoint}


def load_error(tmp_path_factory, kind, lines):
    """The FormatError of loading a file with these lines, or None if it loads."""
    path = tmp_path_factory.mktemp("case") / f"{kind}.txt"
    path.write_text("\n".join(lines) + "\n")
    try:
        LOADERS[kind](path)
    except FormatError as e:  # VersionError included
        assert e.line is not None, f"{e} names no line"
        assert 1 <= e.line <= len(lines) + 1, f"{e} names a line outside the file"
        return e
    return None


@FUZZ
@given(kind=st.sampled_from(sorted(LOADERS)), data=st.data())
def test_cut_file_names_a_line(valid_files, tmp_path_factory, kind, data):
    lines = valid_files[kind]
    keep = data.draw(st.integers(min_value=0, max_value=len(lines) - 1), label="keep")
    assert load_error(tmp_path_factory, kind, lines[:keep]) is not None


@FUZZ
@given(kind=st.sampled_from(sorted(LOADERS)), data=st.data())
def test_replaced_token_names_a_line(valid_files, tmp_path_factory, kind, data):
    lines = list(valid_files[kind])
    at = data.draw(st.integers(min_value=0, max_value=len(lines) - 1), label="line")
    tokens = lines[at].split(" ")
    which = data.draw(st.integers(min_value=0, max_value=len(tokens) - 1), label="token")
    garbage = data.draw(st.booleans(), label="garbage")
    token = data.draw(st.sampled_from(GARBAGE) if garbage else NUMBERS.map(str), label="new")
    optional_name = (kind == "checkpoint" and tokens[0] == "array" and which == 1
                     and tokens[1].startswith("velocity.") and token != "")
    tokens[which] = token
    lines[at] = " ".join(tokens)
    error = load_error(tmp_path_factory, kind, lines)
    if garbage and not optional_name:
        assert error is not None


@pytest.mark.parametrize("key, line", [("n_samples", 5), ("d_in", 4), ("n_cameras", 3)])
def test_dataset_header_size_checked_before_allocating(valid_files, tmp_path, key, line):
    # 10**11 samples or features would need terabytes; numpy would refuse
    # them at once, so the test itself allocates nothing large either way.
    # A loader that did work per declared camera would run until killed.
    lines = [f"{key} {10**11}" if text.startswith(f"{key} ") else text
             for text in valid_files["dataset"]]
    path = tmp_path / "d.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as err:
        load_dataset(path)
    assert err.value.line == line
    assert f"{key} {10**11}" in err.value.reason


def test_dataset_without_records_refuses_an_unallocatable_d_in(valid_files, tmp_path):
    # No record bounds d_in, and numpy refuses an array of 0 rows this wide.
    lines = [f"d_in {2**62}" if text.startswith("d_in ") else
             "n_samples 0" if text.startswith("n_samples ") else text
             for text in valid_files["dataset"][:5]] + ["end"]
    path = tmp_path / "d.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as err:
        load_dataset(path)
    assert err.value.line == 4
    assert f"d_in {2**62}" in err.value.reason


def test_out_of_range_record_value_names_its_line(valid_files, tmp_path):
    lines = list(valid_files["dataset"])
    fields = lines[7].split(" ")
    fields[0] = str(10**20)  # no int64 holds this camera id
    lines[7] = " ".join(fields)
    path = tmp_path / "d.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as err:
        load_dataset(path)
    assert err.value.line == 8


@pytest.mark.parametrize("name, value", [
    ("momentum", "nan"), ("momentum", "1.0"), ("momentum", "-0.5"),
    ("learning_rate_new", "-inf"), ("learning_rate_pretrained", "inf"),
    ("learning_rate_pretrained", "0.0"), ("decay_factor", "-2.0"), ("decay_factor", "nan"),
    ("decay_epoch", "0.0"),
])
def test_bad_optimizer_scalar_names_its_line(valid_files, tmp_path, name, value):
    lines = list(valid_files["checkpoint"])
    at = next(i for i, text in enumerate(lines) if text.startswith(f"scalar optimizer.{name} "))
    lines[at] = f"scalar optimizer.{name} {value}"
    path = tmp_path / "ck.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert err.value.line == at + 1
    assert err.value.reason.startswith(f"optimizer.{name} must be")
