import gc
import sys
import tracemalloc
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np
import pytest

# Make the sibling oracles module importable from every test file.
sys.path.insert(0, str(Path(__file__).parent))

from crosscam import SynthSpec, generate_synthetic


class Traced(NamedTuple):
    """A traced call: its result, the peak of the memory traced while it
    ran, and the memory still traced when it returned (its result's)."""

    out: Any
    peak: int
    held: int


def traced_peak(fn, *args, **kwargs) -> Traced:
    """fn(*args, **kwargs) under tracemalloc, started after a collection
    so that earlier garbage is not freed inside the trace."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
        return Traced(out, peak, held)
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_corpus():
    """Small three-camera corpus shared by fast tests."""
    spec = SynthSpec(n_identities=24, n_cameras=3, images_per_person=4, seed=11)
    return generate_synthetic(spec)


@pytest.fixture(scope="session")
def tiny_train(tiny_corpus):
    return tiny_corpus["train"]
