"""Rank counting gives the bits of the per-row stable sorts it replaced.

build_affinity selects each row's k nearest candidates with a partition
and an explicit tie fill; evaluate finds each relevant item's rank by a
binary search in its sorted row (evaluation.rank_positions) and
affinity_quality_map counts it; AffinityMatrix.candidates packs every
row's positive entries in one pass.  Each test draws a case and compares
the package with the per-row loops in tests/slow_references.py: A and
sigma_sq as bytes, mAP, CMC and counts, rank positions (with infinite
and NaN distances too), the candidates table as bytes and the quality
mAP.  Points sit on a coarse grid and rows are duplicated, so exact
distance and affinity ties are common; block sizes down to one pair per
block are drawn too.
"""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slow_references as slow
from crosscam import (
    AffinityError,
    AffinityMatrix,
    Dataset,
    EmbeddingModel,
    EvaluationError,
    PersonIndex,
    affinity,
    affinity_quality_map,
    build_affinity,
    evaluate,
    new_buffer,
    update_person,
)
from crosscam import evaluation
from crosscam.evaluation import average_precision
from crosscam.ranking import hit_aps

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)
seeds = st.integers(min_value=0, max_value=2**31)
blocks = st.sampled_from([1, 7, 64, 1 << 16])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def grid_points(rng, shape):
    """Mostly half-integer coordinates, so equal distances are common."""
    coarse = rng.integers(-2, 3, size=shape) * 0.5
    return np.where(rng.random(shape) < 0.8, coarse, rng.standard_normal(shape))


def copy_rows(rng, x, n):
    """Overwrite n random rows of x with copies of other rows."""
    for _ in range(n):
        src, dst = rng.integers(x.shape[0], size=2)
        x[dst] = x[src]
    return x


def identity_model(d):
    eye = np.eye(d)
    return EmbeddingModel(W1=np.vstack([eye, -eye]), b1=np.zeros(2 * d),
                          W2=np.hstack([eye, -eye]), b2=np.zeros(d))


def split(rng, n, n_ids, n_cameras, d, name):
    truth = rng.integers(0, n_ids, size=n)
    cams = rng.integers(0, n_cameras, size=n)
    local = np.zeros(n, dtype=np.int64)
    for cam in range(n_cameras):
        here = cams == cam
        local[here] = np.unique(truth[here], return_inverse=True)[1]
    return Dataset(grid_points(rng, (n, d)), cams, local, truth, n_cameras, name)


@SETTINGS
@given(seed=seeds, block=blocks)
def test_evaluate_matches_per_query_sort(seed, block):
    rng = np.random.default_rng(seed)
    d, n_ids, n_cameras = int(rng.integers(1, 4)), int(rng.integers(1, 7)), int(rng.integers(2, 4))
    query = split(rng, int(rng.integers(1, 16)), n_ids, n_cameras, d, "query")
    gallery = split(rng, int(rng.integers(1, 60)), n_ids, n_cameras, d, "gallery")
    # Duplicate gallery rows: ties between relevant, junk and distractor items.
    feats = copy_rows(rng, np.array(gallery.features), int(rng.integers(0, gallery.features.shape[0] + 1)))
    gallery = Dataset(feats, gallery.camera_ids, gallery.local_ids, gallery.truth, n_cameras, "gallery")
    model = identity_model(d)
    try:
        want = slow.evaluate(model, query, gallery)
    except EvaluationError:
        with pytest.raises(EvaluationError), mock.patch.object(evaluation, "BLOCK_ELEMENTS", block):
            evaluate(model, query, gallery)
        return
    with mock.patch.object(evaluation, "BLOCK_ELEMENTS", block):
        got = evaluate(model, query, gallery)
    assert same_bits(got.map, want[0])
    assert list(got.cmc) == list(want[1])
    assert all(same_bits(got.cmc[k], want[1][k]) for k in want[1])
    assert (got.n_evaluated, got.n_skipped) == want[2:]


@SETTINGS
@given(seed=seeds, block=blocks)
def test_rank_positions_match_per_pair_scan(seed, block):
    rng = np.random.default_rng(seed)
    Q, G = int(rng.integers(1, 9)), int(rng.integers(1, 40))
    # Integer-valued distances tie often; inf stands for junk, NaN for a broken distance.
    d2 = rng.integers(0, 6, size=(Q, G)).astype(float)
    d2[rng.random((Q, G)) < 0.15] = np.inf
    d2[rng.random((Q, G)) < 0.05] = np.nan
    q, g = np.nonzero(rng.random((Q, G)) < 0.4)
    want = slow.rank_positions(d2, q, g)
    with mock.patch.object(evaluation, "BLOCK_ELEMENTS", block):
        got = evaluation.rank_positions(d2, q, g)
    assert same_bits(got, want)


def buffer_of(columns):
    buf = new_buffer(columns.shape[1], columns.shape[0])
    for c, col in enumerate(columns):
        update_person(buf, c, col[None, :])
    return buf


@SETTINGS
@given(seed=seeds, block=blocks, mask=st.booleans())
def test_build_affinity_matches_per_row_sort(seed, block, mask):
    rng = np.random.default_rng(seed)
    counts = tuple(int(c) for c in rng.integers(0, 8, size=int(rng.integers(2, 4))))
    if sum(c > 0 for c in counts) < 2:
        counts = (1,) + counts[1:-1] + (max(counts[-1], 1),)
    index = PersonIndex(counts)
    C, d = index.total, int(rng.integers(1, 4))
    columns = copy_rows(rng, grid_points(rng, (C, d)), int(rng.integers(0, C + 1)))
    if rng.random() < 0.1:
        columns[:] = columns[0]  # every distance is 0: sigma^2 = 0
    k = int(rng.integers(1, C + 4))  # rows with fewer than k candidates, and k >= C
    buf = buffer_of(columns)
    want_A, want_sigma = slow.build_affinity(buf.P.T, index.camera_of_class_array(), k, mask)
    with warnings.catch_warnings(record=True) as caught, \
            mock.patch.object(affinity, "BLOCK_ELEMENTS", block):
        warnings.simplefilter("always")
        got = build_affinity(buf, index, k, mask_same_camera=mask)
    assert same_bits(got.A, want_A)
    assert same_bits(got.sigma_sq, want_sigma)
    assert (want_sigma == 0.0) == any(issubclass(w.category, RuntimeWarning) for w in caught)


@SETTINGS
@given(seed=seeds, built=st.booleans())
def test_affinity_quality_map_matches_per_row_sort(seed, built):
    rng = np.random.default_rng(seed)
    C = int(rng.integers(2, 30))
    truth = rng.integers(-1, max(C // 2, 1), size=C)  # -1 rows are excluded
    if built:
        counts = rng.multinomial(C - 2, [0.5, 0.5]) + 1
        cameras = PersonIndex(tuple(int(c) for c in counts)).camera_of_class_array()
        buf = buffer_of(copy_rows(rng, grid_points(rng, (C, 2)), int(rng.integers(0, C))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            A = build_affinity(buf, PersonIndex(tuple(int(c) for c in counts)),
                               int(rng.integers(1, C + 2)), mask_same_camera=bool(rng.random() < 0.7)).A
    else:
        # Any camera labels in any order; a few values per row, with zeros,
        # ties and all-zero rows.
        cameras = rng.choice([0, 3, 7][:int(rng.integers(1, 4))], size=C)
        values = [0.0, 0.25, 0.5, 1.0, rng.random()]
        A = np.where(rng.random((C, C)) < 0.3, rng.choice(values, size=(C, C)), 0.0)
        A[rng.random(C) < 0.2] = 0.0
    aff = AffinityMatrix(A=A, sigma_sq=1.0, k=C, epoch_built=0, camera_of_class=cameras, masked=True)
    for M in (A, np.zeros_like(A)):  # an all-zero affinity still gets one padding column
        table = dataclasses.replace(aff, A=M).candidates
        want_index, want_weights, want_count = slow.affinity_candidates(M)
        assert same_bits(table.index, want_index)
        assert same_bits(table.weights, want_weights)
        assert same_bits(table.count, want_count)
        assert same_bits(table.class_index, np.arange(C))
    try:
        want = slow.affinity_quality_map(A, cameras, truth)
    except AffinityError:
        with pytest.raises(AffinityError):
            affinity_quality_map(aff, truth)
        return
    assert same_bits(affinity_quality_map(aff, truth), want)


@SETTINGS
@given(seed=seeds)
def test_hit_aps_matches_per_row_mean(seed):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 400, size=int(rng.integers(1, 12)))
    relevant = [rng.random(n) < rng.uniform(0.05, 1.0) for n in lengths]
    relevant = [r for r in relevant if r.any()]
    if not relevant:
        return
    rows = np.concatenate([np.full(np.count_nonzero(r), i) for i, r in enumerate(relevant)])
    positions = np.concatenate([np.flatnonzero(r) for r in relevant])
    got_rows, got = hit_aps(rows, positions)
    want = np.array([slow.average_precision(r) for r in relevant])
    assert got_rows.tolist() == list(range(len(relevant)))
    assert same_bits(got, want)
    assert same_bits(average_precision(relevant[0]), want[0])
