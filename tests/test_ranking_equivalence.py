"""Rank counting gives the bits of the per-row stable sorts it replaced.

build_affinity selects each row's k nearest candidates with a partition
and an explicit tie fill; evaluate finds each query's pairs by grouping
the gallery by identity (evaluation.identity_pairs) and each relevant
item's rank by a binary search in its row's sorted near prefix
(evaluation.rank_positions), and affinity_quality_map counts it;
AffinityMatrix keeps every row's nonzero entries and soft labels as
k-sparse tables built in one pass; squared_distance_blocks keeps the bits
of its frozen one-expression form applied per product block, and one
block keeps the one-call form's.
Each test draws a case and compares the package with the per-row loops
in tests/slow_references.py: A, sigma_sq and both tables as bytes, mAP, CMC and
counts, rank positions (with infinite and NaN distances too), the pairs,
the candidates table as bytes and the quality mAP.  Points sit on a
coarse grid and rows are duplicated, so exact distance and affinity ties
are common; block sizes down to one pair per block, and product blocks
and rank sub-blocks down to one row, are drawn too.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slow_references as slow
from slow_references import same_bits
from crosscam import (
    AffinityError,
    Dataset,
    EmbeddingModel,
    EvaluationError,
    PersonIndex,
    affinity,
    affinity_quality_map,
    build_affinity,
    evaluate,
    init_model,
    new_buffer,
    update_person,
)
from crosscam import evaluation
from crosscam.ranking import hit_aps

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)
seeds = st.integers(min_value=0, max_value=2**31)
blocks = st.sampled_from([1, 7, 64, 1 << 16])
products = st.sampled_from([1, 7, 64, 1 << 20])  # PRODUCT_ELEMENTS: one row up to one block
ranks = st.sampled_from([1, 7, 64, 1 << 18])  # RANK_ELEMENTS: one row up to one sub-block


def rows_per_product(product, n_columns):
    """The rows of each product block of squared_distance_blocks."""
    return max(1, product // max(n_columns, 1))


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
@given(seed=seeds, block=blocks, product=products, rank=ranks)
def test_evaluate_matches_per_query_sort(seed, block, product, rank):
    rng = np.random.default_rng(seed)
    d, n_ids, n_cameras = int(rng.integers(1, 4)), int(rng.integers(1, 7)), int(rng.integers(2, 4))
    query = split(rng, int(rng.integers(1, 16)), n_ids, n_cameras, d, "query")
    gallery = split(rng, int(rng.integers(1, 60)), n_ids, n_cameras, d, "gallery")
    # Duplicate gallery rows: ties between relevant, junk and distractor items.
    feats = copy_rows(rng, np.array(gallery.features), int(rng.integers(0, gallery.features.shape[0] + 1)))
    gallery = Dataset(feats, gallery.camera_ids, gallery.local_ids, gallery.truth, n_cameras, "gallery")
    model = identity_model(d)
    with mock.patch.object(affinity, "PRODUCT_ELEMENTS", product):
        try:
            want = slow.evaluate(model, query, gallery, rows_per_product(product, len(gallery)))
        except EvaluationError:
            with pytest.raises(EvaluationError), mock.patch.object(evaluation, "BLOCK_ELEMENTS", block), \
                    mock.patch.object(evaluation, "RANK_ELEMENTS", rank):
                evaluate(model, query, gallery)
            return
        with mock.patch.object(evaluation, "BLOCK_ELEMENTS", block), \
                mock.patch.object(evaluation, "RANK_ELEMENTS", rank):
            got = evaluate(model, query, gallery)
    assert same_bits(got.map, want[0])
    assert list(got.cmc) == list(want[1])
    assert all(same_bits(got.cmc[k], want[1][k]) for k in want[1])
    assert (got.n_evaluated, got.n_skipped) == want[2:]


@SETTINGS
@given(seed=seeds, block=blocks, rank=ranks)
def test_rank_positions_match_per_pair_scan(seed, block, rank):
    rng = np.random.default_rng(seed)
    Q, G = int(rng.integers(1, 9)), int(rng.integers(1, 40))
    # Integer-valued distances tie often; inf stands for junk, NaN for a broken distance.
    d2 = rng.integers(0, 6, size=(Q, G)).astype(float)
    d2[rng.random((Q, G)) < 0.15] = np.inf
    d2[rng.random((Q, G)) < 0.05] = np.nan
    q, g = np.nonzero(rng.random((Q, G)) < 0.4)
    want = slow.rank_positions(d2, q, g)
    with mock.patch.object(evaluation, "BLOCK_ELEMENTS", block), \
            mock.patch.object(evaluation, "RANK_ELEMENTS", rank):
        got = evaluation.rank_positions(d2, q, g)
    assert same_bits(got, want)


@SETTINGS
@given(seed=seeds)
def test_identity_pairs_match_nonzero(seed):
    # Large galleries over few identities: an unstable grouping sort would
    # put some group out of gallery order.  Identities absent on either side too.
    rng = np.random.default_rng(seed)
    n_ids = int(rng.integers(1, 12))
    query_truth = rng.integers(0, n_ids + 2, size=int(rng.integers(0, 30)))
    gallery_truth = rng.integers(0, n_ids, size=int(rng.integers(0, 400)))
    q, g = evaluation.identity_pairs(query_truth, gallery_truth)
    want_q, want_g = np.nonzero(query_truth[:, None] == gallery_truth)
    assert same_bits(q, want_q) and same_bits(g, want_g.astype(g.dtype))


INF, NAN = np.inf, np.nan


@pytest.mark.parametrize("d2, pairs", [
    # The farthest relevant item ties an earlier item: the prefix keeps it.
    ([[2.0, 1.0, 2.0, 5.0]], [(0, 2)]),
    # Rows of different widths: padding never counts as nearer.
    ([[3.0, 1.0, 2.0, 0.5, 9.0], [4.0, 0.0, 7.0, 1.0, 8.0]], [(0, 0), (1, 1), (1, 3)]),
    # A relevant item at +inf: the prefix is every item but NaN.
    ([[INF, 1.0, INF, NAN, 2.0], [1.0, 2.0, 3.0, 4.0, 5.0]], [(0, 2), (0, 1), (1, 2)]),
    # A NaN relevant item beside finite ones: NaN is no row's farthest item.
    ([[NAN, 3.0, 1.0, 2.0, NAN]], [(0, 0), (0, 1), (0, 4)]),
    # A row whose relevant distances are all NaN, and a row with no pair at all.
    ([[NAN, 1.0, NAN], [0.0, 1.0, 2.0], [2.0, 2.0, 2.0]], [(0, 0), (0, 2), (2, 1)]),
    # Junk at +inf after the farthest relevant item, as evaluate marks it.
    ([[INF, 0.5, 0.25, INF, 0.5]], [(0, 1), (0, 4)]),
])
def test_rank_positions_near_prefix_edges(d2, pairs):
    d2 = np.array(d2)
    q, g = (np.array(c, dtype=np.int64) for c in zip(*pairs))
    assert same_bits(evaluation.rank_positions(d2, q, g), slow.rank_positions(d2, q, g))


def test_evaluate_untrained_model_wide_block(tiny_corpus, rng):
    # An untrained model puts relevant items deep in each row, so the sorted
    # prefix is wide; the scores still have the per-query sort's bits.
    model = init_model(tiny_corpus["query"].d_in, 16, 8, rng)
    query, gallery = tiny_corpus["query"], tiny_corpus["gallery"]
    got = evaluate(model, query, gallery)
    want = slow.evaluate(model, query, gallery)
    assert same_bits(got.map, want[0])
    assert all(same_bits(got.cmc[k], want[1][k]) for k in want[1])
    assert (got.n_evaluated, got.n_skipped) == want[2:]


@SETTINGS
@given(seed=seeds, n_a=st.integers(1, 9), n_b=st.integers(1, 9), d=st.integers(1, 5),
       scale=st.sampled_from([1.0, 0.0, 1e-160, 1e150, 1e153, 1e154]), product=products,
       transposed=st.booleans())
def test_squared_distances_match_frozen_kernel(seed, n_a, n_b, d, scale, product, transposed):
    # One-row and one-column inputs, zeros, duplicated rows, and magnitudes
    # whose squares reach or pass the largest double; C-ordered rows or a
    # transposed view, as the person buffer gives; product blocks down to
    # one row, each with the frozen kernel's bits for its rows.
    rng = np.random.default_rng(seed)
    a = copy_rows(rng, grid_points(rng, (n_a, d)) * scale, int(rng.integers(0, n_a + 1)))
    b = np.vstack([a, grid_points(rng, (n_b, d)) * scale])[rng.permutation(n_a + n_b)[:n_b]]
    if transposed:
        a = np.ascontiguousarray(a.T).T
    b = a if rng.random() < 0.3 else b  # one buffer on both sides, as a build passes it
    with np.errstate(over="ignore", invalid="ignore"), \
            mock.patch.object(affinity, "PRODUCT_ELEMENTS", product):
        want = slow.squared_distances(a, b)
        got = affinity.squared_distances(a, b)
        want_blocks = slow.squared_distance_blocks(a, b, rows_per_product(product, len(b)))
        got_blocks = list(affinity.squared_distance_blocks(a, b))
    assert same_bits(got, want)
    assert [lo for lo, _ in got_blocks] == [lo for lo, _ in want_blocks]
    assert all(same_bits(g, w) for (_, g), (_, w) in zip(got_blocks, want_blocks))


@pytest.mark.parametrize("product", [1, 7 * 2000, 1 << 20])
@pytest.mark.parametrize("block", [1, 2 * 2000, 1 << 14])
def test_squared_distances_keep_their_bits_in_row_blocks(block, product):
    # The finish runs in row blocks down to one row.  A product block can
    # differ from the same rows of the whole product in the last bit (one
    # row is a matrix-vector product, and F @ F.T is a symmetric rank-k
    # update), so one product block must have the frozen one-call kernel's
    # bits, and several blocks the frozen kernel's bits block by block;
    # squared_distances is always one block.
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((300, 32)), rng.standard_normal((2000, 32))
    F = rng.standard_normal((32, 600)).T  # a transposed view, as the person buffer gives
    with mock.patch.object(affinity, "BLOCK_ELEMENTS", block), \
            mock.patch.object(affinity, "PRODUCT_ELEMENTS", product):
        for x, y in ((a, b), (F, F)):
            rows = rows_per_product(product, len(y))
            got = list(affinity.squared_distance_blocks(x, y))
            want = slow.squared_distance_blocks(x, y, rows)
            assert len(got) == len(want) == -(-len(x) // rows)
            assert all(lo == w_lo and same_bits(g, w) for (lo, g), (w_lo, w) in zip(got, want))
            if len(got) == 1:
                assert same_bits(got[0][1], slow.squared_distances(x, y))
            assert same_bits(affinity.squared_distances(x, y), slow.squared_distances(x, y))


def buffer_of(columns):
    buf = new_buffer(columns.shape[1], columns.shape[0])
    update_person(buf, np.arange(columns.shape[0]), columns[:, None, :])
    return buf


@SETTINGS
@given(seed=seeds, block=blocks, mask=st.booleans(), product=products)
def test_build_affinity_matches_per_row_sort(seed, block, mask, product):
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
    want_A, want_sigma = slow.build_affinity(buf.P.T, index.camera_of_class_array(), k, mask,
                                             rows_per_product(product, C))
    with warnings.catch_warnings(record=True) as caught, \
            mock.patch.object(affinity, "BLOCK_ELEMENTS", block), \
            mock.patch.object(affinity, "PRODUCT_ELEMENTS", product):
        warnings.simplefilter("always")
        got = build_affinity(buf, index, k, mask_same_camera=mask)
    assert same_bits(got.A, want_A)
    assert same_bits(got.sigma_sq, want_sigma)
    # Both k-sparse tables: the nonzero entries of A and of its normalized rows.
    soft = np.array([w for w, _ in slow.soft_label_rows(want_A)]).reshape(want_A.shape)
    for table, M in ((got.candidates, want_A), (got.soft_labels, soft)):
        for part, want in zip((table.index, table.weights, table.count), slow.affinity_candidates(M)):
            assert same_bits(part, want)
        assert same_bits(table.class_index, np.arange(C))
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
    aff = slow.affinity_from_dense(A=A, sigma_sq=1.0, camera_of_class=cameras, masked=True)
    for M in (A, np.zeros_like(A)):  # an all-zero affinity still gets one padding column
        table = slow.affinity_from_dense(M, 1.0, cameras, True).candidates
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
    assert same_bits(slow.hit_ap(relevant[0]), want[0])
