"""The batched soft-label losses give the bits of their per-anchor loops.

Each test draws a case, runs the batched function once over the whole
batch and the reference in tests/slow_references.py once per anchor or
sample, and compares losses, every gradient (as bytes, so signed zeros
count), picks, counters and the generator state after the draws.  Cases
include coinciding points, distance ties, degenerate rows, rows with
fewer nonzeros than n_k or k, and the W / nearest / unmasked modes.
The soft-label rows, normalized as one block, are compared row by row
with the per-row normalization, including zero, NaN and subnormal rows.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slow_references as slow
from crosscam import (
    AffinityMatrix,
    Dataset,
    PersonIndex,
    SelectionError,
    TrainConfig,
    build_affinity,
    init_model,
    new_buffer,
    select_hardest_negative,
    select_positives,
    soft_label_rows,
    softmax_probs,
    update_person,
    weighted_cross_entropy,
    weighted_triplet_loss,
)
from crosscam.affinity import SoftLabelRow, soft_label_table
from crosscam.trainer import _soft_triplet_step

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)
seeds = st.integers(min_value=0, max_value=2**31)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def points(rng, shape):
    """Coordinates on a coarse grid, so coinciding points and equal distances are common."""
    coarse = rng.integers(-2, 3, size=shape) * 0.5
    fine = rng.standard_normal(shape)
    return np.where(rng.random(shape) < 0.5, coarse, fine)


def person_dataset(rng, n_cameras, n_classes):
    """A dataset with 1-4 samples per class, in shuffled file order."""
    counts = rng.multinomial(n_classes - n_cameras, np.full(n_cameras, 1 / n_cameras)) + 1
    index = PersonIndex(tuple(int(c) for c in counts))
    classes = np.repeat(np.arange(n_classes), rng.integers(1, 5, size=n_classes))
    classes = rng.permutation(classes)
    cams = index.camera_of_class_array()[classes]
    local = classes - np.asarray(index.offsets)[cams]
    feats = rng.standard_normal((classes.size, 3))
    return Dataset(feats, cams, local, np.full(classes.size, -1), n_cameras, "train")


def sparse_affinity(rng, ds, k):
    """Rows with 0..k positive entries drawn from a few values (ties in "nearest")."""
    C = ds.index.total
    A = np.zeros((C, C))
    for i in range(C):
        m = int(rng.integers(0, min(k, C - 1) + 1)) if rng.random() < 0.8 else 0
        cols = rng.choice(np.delete(np.arange(C), i), size=m, replace=False)
        A[i, cols] = rng.choice([0.25, 0.5, 1.0, rng.random()], size=m)
    return AffinityMatrix(A=A, sigma_sq=1.0, k=k, epoch_built=0,
                          camera_of_class=ds.index.camera_of_class_array(), masked=False)


@SETTINGS
@given(seed=seeds)
def test_hardest_negative_matches_per_anchor_scan(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 16))
    batch = points(rng, (n, int(rng.integers(1, 40))))
    classes = rng.integers(0, 4, size=n)
    a_idx = rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1)))
    anchors = np.where(rng.random((a_idx.size, 1)) < 0.7, batch[a_idx], points(rng, (a_idx.size, batch.shape[1])))
    anchor_classes = rng.integers(0, 4, size=a_idx.size)
    # Near-ties: two rows at a permuted or mirrored small offset from an
    # anchor lie at the same distance from it up to rounding.
    for _ in range(int(rng.integers(0, 4))):
        a = anchors[rng.integers(anchors.shape[0])]
        off = 0.1 * rng.standard_normal(a.size)
        j1, j2 = rng.integers(n, size=2)
        batch[j1] = a + off
        batch[j2] = a + rng.permutation(off) * rng.choice([-1.0, 1.0])
    try:
        want = [slow.select_hardest_negative(a, batch, classes, c)
                for a, c in zip(anchors, anchor_classes)]
    except SelectionError:
        with pytest.raises(SelectionError):
            select_hardest_negative(anchors, batch, classes, anchor_classes)
        return
    got = select_hardest_negative(anchors, batch, classes, anchor_classes)
    assert got.tolist() == want
    assert select_hardest_negative(anchors[0], batch, classes, anchor_classes[0]) == want[0]


@SETTINGS
@given(seed=seeds)
def test_weighted_triplet_matches_per_anchor_loss(seed):
    rng = np.random.default_rng(seed)
    A, n_k, d = int(rng.integers(1, 12)), int(rng.integers(1, 11)), int(rng.integers(1, 40))
    anchor = points(rng, (A, d))
    positives = points(rng, (A, n_k, d))
    negative = points(rng, (A, d))
    # Some positives and negatives coincide with their anchor.
    same = rng.random((A, n_k)) < 0.15
    positives[same] = np.broadcast_to(anchor[:, None, :], positives.shape)[same]
    on_anchor = rng.random(A) < 0.15
    negative[on_anchor] = anchor[on_anchor]
    if rng.random() < 0.5:
        weights = np.full((A, n_k), 1.0 / n_k)
    else:
        raw = rng.uniform(0.1, 1.0, size=(A, n_k))
        weights = raw / raw.sum(axis=1, keepdims=True)
    margin = float(rng.choice([0.0, 0.3, rng.uniform(0.0, 3.0)]))

    got = weighted_triplet_loss(anchor, positives, weights, negative, margin)
    want = [slow.weighted_triplet_loss(anchor[a], positives[a], weights[a], negative[a], margin)
            for a in range(A)]
    total = 0.0
    for loss, *_ in want:
        total += loss
    assert same_bits(got.loss, total)
    assert same_bits(got.grads["anchor"], np.stack([w[1] for w in want]))
    assert same_bits(got.grads["positives"], np.stack([w[2] for w in want]))
    assert same_bits(got.grads["negative"], np.stack([w[3] for w in want]))
    assert got.counters["active"] == sum(w[4] for w in want)


@SETTINGS
@given(seed=seeds)
def test_soft_cross_entropy_matches_per_sample_loop(seed):
    rng = np.random.default_rng(seed)
    C, k, B = int(rng.integers(2, 30)), int(rng.integers(1, 13)), int(rng.integers(1, 40))
    rows = []
    for c in range(C):
        w = np.zeros(C)
        m = int(rng.integers(0, min(k, C) + 1))  # 0 gives a degenerate row
        cols = rng.choice(C, size=m, replace=False)
        w[cols] = rng.choice([1.0, rng.random(), 1e-300], size=m)
        total = w.sum()
        rows.append(SoftLabelRow(c, w / total if total > 0 else w, degenerate=not total > 0))
    scores = rng.standard_normal((B, C)) * float(rng.choice([1.0, 40.0]))
    scores[:, : C // 2] = np.round(scores[:, : C // 2])  # tied probabilities
    probs = softmax_probs(scores)
    sample_classes = rng.integers(0, C, size=B)

    loss, dS, contributing, skipped, clamped, own_zero = slow.soft_ce_loop(probs, rows, sample_classes)
    table = soft_label_table(rows)
    keep = ~table.degenerate[sample_classes]
    assert int(np.count_nonzero(keep)) == contributing and keep.size - contributing == skipped
    if not contributing:
        return
    got = weighted_cross_entropy(probs[keep], table.take(sample_classes[keep]))
    got_dS = np.zeros_like(probs)
    got_dS[keep] = got.grads["scores"]
    assert same_bits(got.loss, loss)
    assert same_bits(got_dS, dS)
    assert got.counters == {"clamped_logs": clamped, "own_class_zero_weight": own_zero}


@SETTINGS
@given(seed=seeds, weighting_mode=st.sampled_from(["AW", "W"]),
       positive_sampling=st.sampled_from(["random", "nearest"]))
def test_select_positives_matches_per_anchor_draws(seed, weighting_mode, positive_sampling):
    rng = np.random.default_rng(seed)
    n_k, k = int(rng.integers(1, 11)), int(rng.integers(1, 10))
    ds = person_dataset(rng, int(rng.integers(2, 4)), int(rng.integers(3, 25)))
    aff = sparse_affinity(rng, ds, k)
    anchor_classes = rng.integers(0, ds.index.total, size=int(rng.integers(1, 40)))
    draw_seed = int(rng.integers(2**31))

    ref_rng = np.random.default_rng(draw_seed)
    want = []
    for c in anchor_classes:
        try:
            want.append(slow.select_positives(int(c), aff, ds, n_k, ref_rng,
                                              weighting_mode, positive_sampling))
        except SelectionError:
            want.append(None)
    got_rng = np.random.default_rng(draw_seed)
    picks, weights, valid = select_positives(anchor_classes, aff, ds, n_k, got_rng,
                                             weighting_mode, positive_sampling)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state
    assert valid.tolist() == [w is not None for w in want]
    for a, w in enumerate(want):
        if w is None:
            assert np.all(picks[a] == 0) and np.all(weights[a] == 0.0)
        else:
            assert picks[a].tolist() == [p for p, _ in w]
            assert same_bits(weights[a], np.array([x for _, x in w]))


@SETTINGS
@given(seed=seeds, weighting_mode=st.sampled_from(["AW", "W"]),
       positive_sampling=st.sampled_from(["random", "nearest"]), mask=st.booleans())
def test_soft_triplet_step_matches_per_anchor_loop(seed, weighting_mode, positive_sampling, mask):
    rng = np.random.default_rng(seed)
    ds = person_dataset(rng, int(rng.integers(2, 4)), int(rng.integers(4, 20)))
    C = ds.index.total
    buf = new_buffer(4, C)
    for c in range(C):
        update_person(buf, c, points(rng, (1, 4)))
    aff = build_affinity(buf, ds.index, int(rng.integers(1, 8)), mask_same_camera=mask)
    aff.A[rng.random(C) < 0.2] = 0.0  # degenerate rows
    config = dataclasses.replace(
        TrainConfig(), n_k=int(rng.integers(2, 6)), embed_dim=4, hidden_dim=5,
        margin=float(rng.choice([0.0, 0.3, 2.0])),
        weighting_mode=weighting_mode, positive_sampling=positive_sampling,
    )
    model = init_model(ds.d_in, config.hidden_dim, config.embed_dim, rng)
    n_p = int(rng.integers(2, 5))
    persons = rng.choice(C, size=n_p, replace=n_p > C)
    persons[:2] = rng.choice(C, size=2, replace=False)  # at least two persons
    labels = np.repeat(persons, config.n_k)
    E = points(rng, (labels.size, config.embed_dim))
    draw_seed = int(rng.integers(2**31))

    ref_rng = np.random.default_rng(draw_seed)
    want = slow.soft_triplet_loop(model, ds, aff, config, ref_rng, E, labels)
    got_rng = np.random.default_rng(draw_seed)
    got = _soft_triplet_step(model, ds, aff, config, got_rng, E, labels)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state
    assert same_bits(got[0], want[0]) and got[1:3] == want[1:3]
    for g, w in zip(got[3:], want[3:]):
        assert (g is None and w is None) or same_bits(g, w)


def test_soft_label_table_holds_each_rows_nonzeros(tiny_train):
    buf = new_buffer(3, tiny_train.index.total)
    rng = np.random.default_rng(4)
    for c in range(tiny_train.index.total):
        update_person(buf, c, rng.standard_normal((1, 3)))
    rows = soft_label_rows(build_affinity(buf, tiny_train.index, 4))
    table = soft_label_table(rows)
    for r, row in enumerate(rows):
        idx, w = row.nonzero()
        m = table.count[r]
        assert table.class_index[r] == row.class_index
        assert table.index[r, :m].tolist() == idx.tolist()
        assert same_bits(table.weights[r, :m], w)
        assert np.all(table.weights[r, m:] == 0.0)


@pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
@SETTINGS
@given(seed=seeds, transposed=st.booleans())
def test_soft_label_rows_match_per_row_normalization(seed, transposed):
    rng = np.random.default_rng(seed)
    C = int(rng.integers(1, 14))
    # Zeros, ties, subnormals, a rare negative, NaN and infinity.
    values = [0.0, 0.25, 1.0, 5e-324, 2.5e-310, rng.random(), -0.5, np.nan, np.inf]
    p = np.array([40, 5, 5, 6, 6, 10, 1, 1, 1], dtype=float)
    A = rng.choice(values, size=(C, C), p=p / p.sum())
    A[rng.random(C) < 0.2] = 0.0  # zero rows
    if rng.random() < 0.3:
        A[rng.integers(C)] = 5e-324  # a row of subnormals, its total subnormal too
    if transposed:
        A = A.T  # a row that is not contiguous
    aff = AffinityMatrix(A=A, sigma_sq=1.0, k=C, epoch_built=0,
                         camera_of_class=np.zeros(C, dtype=np.int64), masked=False)
    got = soft_label_rows(aff)
    want = slow.soft_label_rows(A)
    assert [r.class_index for r in got] == list(range(C))
    assert [r.degenerate for r in got] == [d for _, d in want]
    for row, (weights, _) in zip(got, want):
        assert same_bits(row.weights, weights)
