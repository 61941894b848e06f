"""The benchmark can still find every function it traces and imports,
and the dense views its checks read keep their bits.

perfbench/tracer.py replaces each name in TRACED_NAMES on its module and
reports it under layer_name; BENCHMARK.json lists the per-layer metrics
by those names.  perfbench/job.py imports names from the package,
checks the final affinity through its dense views (AffinityMatrix.A and
soft_label_rows) and its masked, camera_of_class and sigma_sq fields,
and reads fields of the state train returns, of its log records and of
the checkpoint load_checkpoint returns.  A function renamed or no longer
bound, or a view or field that changed, would break the benchmark, which
the tests under perfbench/ only catch when run on their own.  This reads
perfbench without changing it.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import slow_references as slow
from crosscam import (
    PersonIndex, TrainConfig, build_affinity, load_checkpoint, new_buffer, save_checkpoint,
    soft_label_rows, train,
)

ROOT = Path(__file__).resolve().parent.parent


def _tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()
TRACED = [(module, name) for module, names in TRACER.TRACED_NAMES.items() for name in names]


@pytest.mark.parametrize("module_name,attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_resolves_and_has_its_metrics(module_name, attr):
    fn = getattr(importlib.import_module(module_name), attr, None)
    assert callable(fn), f"{module_name}.{attr} is not bound"
    metrics = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    layer = TRACER.layer_name(fn)
    assert {f"{layer}.calls", f"{layer}.self_s"} <= metrics


def _job_imports():
    tree = ast.parse((ROOT / "perfbench" / "job.py").read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "crosscam" for alias in node.names]


JOB_IMPORTS = _job_imports()


def test_job_imports_names_from_the_package():
    assert ("crosscam", "soft_label_rows") in JOB_IMPORTS


@pytest.mark.parametrize("module_name,attr", JOB_IMPORTS, ids=[f"{m}.{a}" for m, a in JOB_IMPORTS])
def test_job_import_is_bound(module_name, attr):
    assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr} is not bound"


def test_check_affinity_reads_are_bound():
    # perfbench/job.py check_affinity and check_against_oracles read these
    # attributes of the final affinity and of each soft_label_rows row.
    rng = np.random.default_rng(3)
    index = PersonIndex((4, 5, 3))
    buf = new_buffer(3, index.total)
    buf.P[:] = rng.standard_normal(buf.P.shape)
    buf.initialized[:] = True
    aff = build_affinity(buf, index, 2)
    assert aff.A.shape == (index.total, index.total)
    assert aff.masked is True
    assert aff.camera_of_class.tolist() == index.camera_of_class_array().tolist()
    assert isinstance(aff.sigma_sq, float)
    rows = soft_label_rows(aff)
    assert [row.class_index for row in rows] == list(range(index.total))
    for row in rows:
        assert row.weights.shape == (index.total,)
        assert row.degenerate is False


@pytest.mark.parametrize("mask", [True, False])
def test_dense_views_keep_the_bits_of_the_dense_build(mask):
    # The matrices check_affinity and the oracle check read.
    rng = np.random.default_rng(7)
    index = PersonIndex((9, 14, 6, 11))
    buf = new_buffer(5, index.total)
    buf.P[:] = rng.standard_normal(buf.P.shape)
    buf.initialized[:] = True
    aff = build_affinity(buf, index, 4, mask_same_camera=mask)
    want_A, _ = slow.build_affinity(buf.P.T, index.camera_of_class_array(), 4, mask)
    assert aff.A.tobytes() == want_A.tobytes()
    rows = soft_label_rows(aff)
    want_rows = slow.soft_label_rows(want_A)
    assert [r.degenerate for r in rows] == [d for _, d in want_rows]
    for row, (weights, _) in zip(rows, want_rows):
        assert row.weights.tobytes() == weights.tobytes()


# What perfbench/job.py run_job reads of the state train returns (and of
# its buffer), of each log record, and of what load_checkpoint returns.
STATE_READS = {"model", "head", "optimizer", "opt_state", "buffer", "final_affinity", "log"}
BUFFER_READS = {"P", "initialized", "t"}
RECORD_READS = {"epoch", "intra_loss", "inter_loss", "skipped_anchors"}
CHECKPOINT_READS = {"model", "head"}


def _job_reads(variable):
    """The attributes perfbench/job.py reads directly off a variable of this name."""
    tree = ast.parse((ROOT / "perfbench" / "job.py").read_text())
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == variable}


@pytest.mark.parametrize("variable, pinned", [
    ("result", STATE_READS), ("r", RECORD_READS), ("loaded", CHECKPOINT_READS),
])
def test_pinned_reads_cover_the_job(variable, pinned):
    assert _job_reads(variable) <= pinned


def test_train_and_checkpoint_reads_are_bound(tiny_train, tmp_path):
    cfg = TrainConfig(n_p=24, n_k=2, epochs=2, warmup_epochs=1, hidden_dim=16, embed_dim=8,
                      class_batch_total=6, seed=3)
    result = train(tiny_train, cfg)
    missing = [name for name in STATE_READS if not hasattr(result, name)]
    missing += [f"buffer.{name}" for name in BUFFER_READS if not hasattr(result.buffer, name)]
    missing += [f"record.{name}" for name in RECORD_READS
                for r in result.log.records if not hasattr(r, name)]
    assert missing == []
    assert result.final_affinity is not None
    # The checkpoint run_job writes and reads back.
    path = tmp_path / "ck.txt"
    save_checkpoint(
        path, result.model, result.head, result.optimizer, result.opt_state,
        extra_arrays={"buffer.P": result.buffer.P,
                      "buffer.initialized": result.buffer.initialized.astype(np.float64)},
        extra_scalars={"buffer.t": float(result.buffer.t)},
    )
    loaded = load_checkpoint(path)
    assert [name for name in CHECKPOINT_READS if not hasattr(loaded, name)] == []
    saved = {**result.model.params(), **result.head.params()}
    reloaded = {**loaded.model.params(), **loaded.head.params()}
    assert saved.keys() == reloaded.keys()
    assert all(reloaded[n].tobytes() == a.tobytes() for n, a in saved.items())
