"""The soft-triplet ("D") layers give the bits of the batched forms they
replaced, frozen in tests/slow_references.py.

select_hardest_negative, which screens with one rounding bound per row,
is compared with the per-pair screen; weighted_triplet_loss, which
computes every row and zeroes the inactive ones, with the gathered
active rows.  Each test compares values and indices as bytes (signed
zeros and NaN payloads count).  Cases include distances near and past
overflow, NaN rows, rows whose kept direct distances are all +inf, exact
ties, batches whose hinges are all inactive, NaN hinges and -0.0
coordinates.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

import slow_references as slow
from crosscam import TrainConfig, select_hardest_negative, train, weighted_triplet_loss
from crosscam import trainer
from slow_references import same_bits
from test_batched_equivalence import points

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)
seeds = st.integers(min_value=0, max_value=2**31)


def _negative_case(rng, case):
    """(anchors, batch, batch classes, anchor classes) of one case."""
    n, d = int(rng.integers(2, 20)), int(rng.integers(1, 12))
    batch = points(rng, (n, d))
    classes = rng.integers(0, 4, size=n)
    classes[:2] = [0, 1]
    a_idx = rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1)))
    anchors = np.where(rng.random((a_idx.size, 1)) < 0.6, batch[a_idx],
                       points(rng, (a_idx.size, d)))
    if case == "ties":  # the same point twice, and a point mirrored about an anchor
        for _ in range(n):
            j1, j2 = rng.integers(n, size=2)
            a = anchors[rng.integers(anchors.shape[0])]
            batch[j1] = batch[j2]
            batch[j2 if rng.random() < 0.5 else j1] = 2.0 * a - batch[j1]
    elif case == "near_overflow":  # squared norms around the largest double
        batch *= 10.0 ** rng.uniform(153.0, 155.0)
        anchors *= 10.0 ** rng.uniform(153.0, 155.0)
    elif case == "far":  # every direct distance of some rows overflows
        batch = np.where(rng.random((n, 1)) < 0.5, 1.0, -1.0) * np.abs(batch) + 1.0
        batch *= 1e154
        anchors = -np.abs(anchors) * 1e154 - 1e154
    elif case == "nan":
        batch[rng.random(n) < 0.2, int(rng.integers(d))] = np.nan
        anchors[rng.random(a_idx.size) < 0.2, int(rng.integers(d))] = np.nan
    anchor_classes = rng.integers(0, 4, size=a_idx.size)
    keep = (anchor_classes[:, None] != classes).any(axis=1)
    return anchors[keep], batch, classes, anchor_classes[keep]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=seeds, case=st.sampled_from(["plain", "ties", "near_overflow", "far", "nan"]))
def test_hardest_negative_matches_per_pair_screen(seed, case):
    rng = np.random.default_rng(seed)
    anchors, batch, classes, anchor_classes = _negative_case(rng, case)
    if not anchors.shape[0]:
        return
    with np.errstate(all="ignore"):
        want = slow.screened_hardest_negative(anchors, batch, classes, anchor_classes)
        got = select_hardest_negative(anchors, batch, classes, anchor_classes)
    assert same_bits(got, want)


def test_hardest_negative_rows_whose_kept_distances_all_overflow():
    # Every direct distance of the first anchor overflows: the pick is the
    # first pair the per-pair screen keeps, here the first other-person row.
    batch = np.array([[1e154, 1e154], [-1e154, 2e154], [3e154, -1e154], [0.5, 0.5]])
    anchors = np.array([[-1e154, -1e154], [0.25, 0.25]])
    classes = np.array([0, 1, 1, 2])
    with np.errstate(all="ignore"):
        got = select_hardest_negative(anchors, batch, classes, np.array([0, 1]))
        want = slow.screened_hardest_negative(anchors, batch, classes, np.array([0, 1]))
    assert got.tolist() == want.tolist() == [1, 3]


def _triplet_case(rng, case):
    A, k, d = int(rng.integers(1, 12)), int(rng.integers(1, 6)), int(rng.integers(1, 8))
    anchor, negative = points(rng, (A, d)), points(rng, (A, d))
    positives = points(rng, (A, k, d))
    weights = rng.random((A, k)) + 0.1
    weights /= weights.sum(axis=1, keepdims=True)
    margin = float(rng.choice([0.0, 0.3, 2.0]))
    if case == "inactive":
        margin = -1e3
    elif case == "overflow":  # inactive rows whose unit vectors overflow or divide by zero
        rows = rng.random(A) < 0.5
        anchor[rows] *= 1e300
        positives[rows] = 1e-320
        margin = float(rng.choice([0.3, -1e3]))
    elif case == "nan":
        positives[rng.random(A) < 0.3, 0, 0] = np.nan
        weights[rng.random(A) < 0.2, 0] = np.nan
        negative[rng.random(A) < 0.2, -1] = np.nan
    elif case == "negzero":  # coinciding points and -0.0 coordinates
        for x in (anchor, negative, positives):
            x[rng.random(x.shape) < 0.3] = -0.0
            x[rng.random(x.shape) < 0.3] = 0.0
        coincide = rng.random((A, k)) < 0.4
        positives[coincide] = np.broadcast_to(anchor[:, None, :], positives.shape)[coincide]
        here = rng.random(A) < 0.3
        negative[here] = anchor[here]
    return anchor, positives, weights, negative, margin


@SETTINGS
@given(seed=seeds, case=st.sampled_from(["plain", "inactive", "overflow", "nan", "negzero"]))
def test_weighted_triplet_loss_matches_gathered_rows(seed, case):
    rng = np.random.default_rng(seed)
    anchor, positives, weights, negative, margin = _triplet_case(rng, case)
    with np.errstate(all="ignore"):
        loss, grads, active = slow.gathered_weighted_triplet_loss(
            anchor, positives, weights, negative, margin)
        got = weighted_triplet_loss(anchor, positives, weights, negative, margin)
    assert same_bits(got.loss, loss)
    assert got.grads.keys() == grads.keys()
    assert all(same_bits(got.grads[name], grads[name]) for name in grads)
    assert got.counters == {"active": active}
    if case == "inactive":
        assert active == 0 and same_bits(got.loss, 0.0)


def test_tiny_c_plus_d_run_calls_each_d_layer_once_per_joint_iteration(monkeypatch, tiny_train):
    """perfbench counts the D layers per call, so each runs once per joint
    iteration: the positives, the hardest negatives and the weighted
    triplet loss of the whole batch."""
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("select_positives", "select_hardest_negative", "weighted_triplet_loss"):
        counted(trainer, name)
    config = TrainConfig(n_p=4, n_k=2, epochs=4, warmup_epochs=2, decay_epoch=4, hidden_dim=8,
                         embed_dim=4, class_batch_total=12, inter_mode="C+D", seed=3)
    train(tiny_train, config)
    joint = (config.epochs - config.warmup_epochs) * -(-len(tiny_train) // (config.n_p * config.n_k))
    assert joint > 0
    assert calls == {name: joint for name in ("select_positives", "select_hardest_negative",
                                              "weighted_triplet_loss")}
