"""The per-layer benchmark can still find every function it traces.

perfbench/tracer.py replaces each name in TRACED_NAMES on its module and
reports it under layer_name; BENCHMARK.json lists the per-layer metrics
by those names.  A function renamed or no longer bound in the module
would break the traced benchmark, which the tests under perfbench/ only
catch when run on their own.  This reads the tracer without changing it.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

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
