import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slow_references as slow
from crosscam import (
    ContractError,
    Dataset,
    SelectionError,
    TripletBatch,
    intra_triplet_loss,
    random_triplet_loss,
    select_hardest_negative,
    select_positives,
    softmax_probs,
    weighted_cross_entropy,
    weighted_triplet_loss,
)
from oracles import (
    finite_difference,
    oracle_hardest_negative,
    oracle_triplet_loss,
    relative_error,
)


def batch_from_flat(E, classes_per_row, n_images):
    E = np.asarray(E, dtype=np.float64)
    n_persons = len(classes_per_row)
    return TripletBatch(
        embeddings=E.reshape(n_persons, n_images, -1),
        classes=np.asarray(classes_per_row),
    )


class TestIntraTriplet:
    def test_worked_example_sum(self):
        # Person A at (0,0),(1,0); person B at (1.5,0),(2.5,0); margin 0.3.
        E = np.array([[0.0, 0.0], [1.0, 0.0], [1.5, 0.0], [2.5, 0.0]])
        lv = intra_triplet_loss(batch_from_flat(E, [0, 1], 2), margin=0.3)
        assert lv.loss == pytest.approx(1.6, abs=1e-12)
        assert lv.counters["active_triplets"] == 2

    def test_separated_clusters_inactive(self):
        E = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        lv = intra_triplet_loss(batch_from_flat(E, [0, 1], 2), margin=0.3)
        assert lv.loss == 0.0
        assert np.all(lv.grads["embeddings"] == 0.0)

    def test_precondition_violations(self):
        E = np.zeros((2, 2, 3))
        with pytest.raises(ContractError):
            intra_triplet_loss(TripletBatch(E[:1], np.array([0])), 0.3)
        with pytest.raises(ContractError):
            intra_triplet_loss(TripletBatch(E[:, :1], np.array([0, 1])), 0.3)
        with pytest.raises(ContractError):
            intra_triplet_loss(TripletBatch(E, np.array([4, 4])), 0.3)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n_p = int(rng.integers(2, 5))
        n_k = int(rng.integers(2, 5))
        d = int(rng.integers(2, 4))
        E = rng.standard_normal((n_p, n_k, d))
        classes = rng.permutation(10)[:n_p]
        margin = float(rng.uniform(0.0, 1.0))
        lv = intra_triplet_loss(TripletBatch(E, classes), margin)
        flat = E.reshape(n_p * n_k, d)
        labels = np.repeat(classes, n_k)
        assert lv.loss == pytest.approx(oracle_triplet_loss(flat, labels, margin), abs=1e-9)

    def test_duplicate_person_rows_merge(self):
        # The same person in two rows: its images are positives of each other.
        E = np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0], [5.0, 0.0],
                      [0.2, 0.0], [0.9, 0.0]])
        lv = intra_triplet_loss(batch_from_flat(E, [7, 3, 7], 2), margin=0.3)
        flat_labels = [7, 7, 3, 3, 7, 7]
        assert lv.loss == pytest.approx(oracle_triplet_loss(E, flat_labels, 0.3), abs=1e-9)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        E = rng.standard_normal((3, 2, 3))
        classes = np.array([0, 1, 2])
        margin = 0.3

        def loss_at(flat):
            b = TripletBatch(flat.reshape(3, 2, 3), classes)
            return intra_triplet_loss(b, margin).loss

        lv = intra_triplet_loss(TripletBatch(E, classes), margin)
        numeric = finite_difference(loss_at, E.ravel(), eps=1e-6)
        analytic = lv.grads["embeddings"].ravel()
        # Skip seeds that sit on a hinge/selection boundary.
        if np.max(np.abs(analytic - numeric)) > 1e-3:
            return
        for a, n in zip(analytic, numeric):
            assert relative_error(a, n) <= 1e-4

    def test_random_mining_uses_rng_and_matches_hinge_structure(self):
        E = np.array([[0.0, 0.0], [1.0, 0.0], [1.5, 0.0], [2.5, 0.0]])
        places = slow.mining_places([0, 0, 1, 1], np.random.default_rng(0))
        lv = random_triplet_loss(batch_from_flat(E, [0, 1], 2), 0.3, places)
        assert lv.loss >= 0.0
        assert lv.grads["embeddings"].shape == (2, 2, 2)
        # With two images per person there is exactly one positive place,
        # so only the negative place varies: place k is the k-th row of the
        # other person.  Rows 1 (x = 1) and 2 (x = 1.5) as each other's
        # negatives are the active hinges, 0.3 + 1 - 0.5 = 0.8 each.
        near = np.array([[0, 0], [0, 0], [0, 1], [0, 1]])
        lv = random_triplet_loss(batch_from_flat(E, [0, 1], 2), 0.3, near)
        assert lv.loss == pytest.approx(1.6) and lv.counters["active_triplets"] == 2
        far = np.array([[0, 1], [0, 1], [0, 0], [0, 0]])
        assert random_triplet_loss(batch_from_flat(E, [0, 1], 2), 0.3, far).loss == 0.0


class TestSoftmax:
    def test_uniform_scores(self):
        p = softmax_probs(np.zeros(7))
        np.testing.assert_allclose(p, np.full(7, 1.0 / 7), atol=1e-12)

    def test_two_class_example(self):
        p = softmax_probs(np.array([1.0, 0.0]))
        np.testing.assert_allclose(p, [np.e / (np.e + 1), 1 / (np.e + 1)], atol=1e-12)
        np.testing.assert_allclose(p, [0.7311, 0.2689], atol=1e-4)

    def test_shift_invariance(self, rng):
        s = rng.standard_normal(9)
        np.testing.assert_allclose(softmax_probs(s), softmax_probs(s + 123.456), atol=1e-12)

    def test_sums_to_one(self, rng):
        s = rng.standard_normal((5, 11)) * 50
        p = softmax_probs(s)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ContractError):
            softmax_probs(np.array([np.inf, 0.0]))


def row_of(weights, class_index=0):
    """One sample's soft-label row, as the one-row table the loss takes."""
    return slow.label_table([weights], [class_index])


class TestWeightedCrossEntropy:
    def test_one_hot_equals_plain_cross_entropy(self, rng):
        probs = softmax_probs(rng.standard_normal(6))
        lv = weighted_cross_entropy(probs[None], row_of([0, 0, 1, 0, 0, 0]))
        assert lv.loss == pytest.approx(-np.log(probs[2]), abs=1e-12)

    def test_uniform_probs_give_log_c(self):
        probs = np.full(8, 1.0 / 8)
        lv = weighted_cross_entropy(probs[None], row_of([0.25, 0.25, 0.5, 0, 0, 0, 0, 0]))
        assert lv.loss == pytest.approx(np.log(8), abs=1e-12)

    def test_worked_example(self):
        probs = softmax_probs(np.array([1.0, 0.0]))
        a, b = np.exp(-1.0 / 1.5), np.exp(-2.0 / 1.5)
        lv = weighted_cross_entropy(probs[None], row_of([a / (a + b), b / (a + b)]))
        expected = -(a / (a + b)) * np.log(probs[0]) - (b / (a + b)) * np.log(probs[1])
        assert lv.loss == pytest.approx(expected, abs=1e-12)
        assert lv.loss == pytest.approx(0.6526, abs=1e-4)

    def test_gradient_is_probs_minus_weights(self, rng):
        probs = softmax_probs(rng.standard_normal(5))
        w = np.array([0.4, 0.0, 0.6, 0.0, 0.0])
        lv = weighted_cross_entropy(probs[None], row_of(w))
        np.testing.assert_allclose(lv.grads["scores"][0], probs - w, atol=1e-12)

    def test_score_shift_invariance(self, rng):
        s = rng.standard_normal(5)
        w = np.array([0.4, 0.0, 0.6, 0.0, 0.0])
        a = weighted_cross_entropy(softmax_probs(s[None]), row_of(w))
        b = weighted_cross_entropy(softmax_probs(s[None] + 77.0), row_of(w))
        assert a.loss == pytest.approx(b.loss, abs=1e-9)
        np.testing.assert_allclose(a.grads["scores"], b.grads["scores"], atol=1e-9)

    def test_gradient_matches_finite_differences(self, rng):
        scores = rng.standard_normal(6)
        w = np.zeros(6)
        w[[1, 4]] = [0.3, 0.7]

        def loss_at(s):
            return weighted_cross_entropy(softmax_probs(s[None]), row_of(w)).loss

        lv = weighted_cross_entropy(softmax_probs(scores[None]), row_of(w))
        numeric = finite_difference(loss_at, scores, eps=1e-6)
        for a, n in zip(lv.grads["scores"][0], numeric):
            assert relative_error(a, n) <= 1e-4

    def test_degenerate_row_adds_no_term_and_a_zero_gradient_row(self, rng):
        probs = softmax_probs(rng.standard_normal((3, 3)))
        rows = slow.label_table([[0, 0, 0], [0.25, 0, 0.75], [0, 0, 0]])
        got = weighted_cross_entropy(probs, rows)
        alone = weighted_cross_entropy(probs[1:2], slow.label_table([[0.25, 0, 0.75]], [1]))
        assert got.loss == alone.loss and got.counters == alone.counters
        assert got.grads["scores"][[0, 2]].tobytes() == np.zeros((2, 3)).tobytes()
        assert got.grads["scores"][1].tobytes() == alone.grads["scores"][0].tobytes()

    def test_zero_probability_clamped_and_counted(self):
        probs = np.array([[1.0, 0.0]])
        lv = weighted_cross_entropy(probs, row_of([0.5, 0.5]))
        assert np.isfinite(lv.loss)
        assert lv.counters["clamped_logs"] == 1

    def test_own_class_zero_weight_surfaced(self):
        probs = np.full((1, 3), 1 / 3)
        # Row for class 0 whose own entry carries no weight (the usual
        # masked-affinity situation).
        lv = weighted_cross_entropy(probs, row_of([0.0, 0.4, 0.6], class_index=0))
        assert lv.counters["own_class_zero_weight"] == 1
        lv = weighted_cross_entropy(probs, row_of([0.5, 0.5, 0.0], class_index=0))
        assert lv.counters["own_class_zero_weight"] == 0


def selection_fixture():
    """Two cameras, two persons each; anchor class 0 lives on camera 0."""
    cam, local, i = np.array([(cam, local, i) for cam in range(2) for local in range(2)
                              for i in range(3)]).T
    features = np.stack([cam * 10.0, local * 1.0 + i * 0.1], axis=1)
    ds = Dataset(features, cam, local, cam * 2 + local, 2, "train")
    A = np.zeros((4, 4))
    A[0, 2] = np.exp(-1.0 / 1.5)
    A[0, 3] = np.exp(-2.0 / 1.5)
    aff = slow.affinity_from_dense(
        A=A, sigma_sq=1.5,
        camera_of_class=np.array([0, 0, 1, 1]), masked=True,
    )
    return ds, aff


def positives(anchors, aff, ds, n_k, rng, positive_sampling="random"):
    """The (places, slots) an epoch plan draws for these anchors."""
    return slow.positive_places(anchors, aff.candidates, ds, n_k, rng, positive_sampling)


class TestSelectPositives:
    """select_positives on one anchor: the batch-of-one case."""

    def test_forced_selection_with_exactly_n_k_candidates(self, rng):
        ds, aff = selection_fixture()
        picks, _, _ = select_positives(np.array([0]), aff, ds, *positives([0], aff, ds, 2, rng))
        persons = sorted(int(ds.class_ids[i]) for i in picks[0])
        assert persons == [2, 3]

    def test_average_weighting_is_uniform(self, rng):
        ds, aff = selection_fixture()
        _, weights, _ = select_positives(np.array([0]), aff, ds, *positives([0], aff, ds, 2, rng),
                                         weighting_mode="AW")
        assert weights[0].tolist() == [0.5, 0.5]

    def test_average_weighting_quarter_for_four(self, rng):
        ds, aff = selection_fixture()
        _, weights, _ = select_positives(np.array([0]), aff, ds, *positives([0], aff, ds, 4, rng),
                                         weighting_mode="AW")
        assert weights[0].tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_affinity_weighting_renormalizes(self, rng):
        ds, aff = selection_fixture()
        picks, weights, _ = select_positives(np.array([0]), aff, ds,
                                             *positives([0], aff, ds, 2, rng), weighting_mode="W")
        by_person = {int(ds.class_ids[i]): w for i, w in zip(picks[0], weights[0])}
        a, b = np.exp(-1.0 / 1.5), np.exp(-2.0 / 1.5)
        assert by_person[2] == pytest.approx(a / (a + b), abs=1e-12)
        assert by_person[3] == pytest.approx(b / (a + b), abs=1e-12)
        assert by_person[2] == pytest.approx(0.6607, abs=1e-4)
        assert by_person[3] == pytest.approx(0.3393, abs=1e-4)

    def test_degenerate_row_refused(self, rng):
        ds, aff = selection_fixture()
        places, slots = positives([1, 0], aff, ds, 2, rng)
        assert places.shape == (1, 2)  # the degenerate anchor draws nothing
        picks, weights, valid = select_positives(np.array([1, 0]), aff, ds, places, slots)
        assert valid.tolist() == [False, True]
        assert picks.shape == weights.shape == (1, 2)  # the drawing anchor's row alone
        alone_picks, alone_weights, _ = select_positives(np.array([0]), aff, ds, places, slots)
        assert alone_picks.tolist() == picks.tolist()
        assert alone_weights.tolist() == weights.tolist()
        with pytest.raises(ContractError):  # draws for the degenerate anchor too
            select_positives(np.array([1, 0]), aff, ds, np.tile(places, (2, 1)),
                             np.tile(slots, (2, 1)))

    def test_replacement_when_fewer_candidates(self, rng):
        ds, aff = selection_fixture()
        picks, _, _ = select_positives(np.array([0]), aff, ds, *positives([0], aff, ds, 5, rng))
        assert picks.shape == (1, 5)
        assert {int(ds.class_ids[i]) for i in picks[0]} <= {2, 3}

    def test_nearest_mode_takes_top_affinities_deterministically(self, rng):
        ds, aff = selection_fixture()
        picks = [select_positives(np.array([0]), aff, ds,
                                  *positives([0], aff, ds, 2, rng, "nearest"))[0]
                 for _ in range(5)]
        for chosen in picks:
            persons = [int(ds.class_ids[i]) for i in chosen[0]]
            assert persons == [2, 3]  # descending affinity order

    def test_drawn_samples_belong_to_drawn_person(self, rng):
        ds, aff = selection_fixture()
        picks, _, _ = select_positives(np.array([0]), aff, ds, *positives([0], aff, ds, 2, rng))
        for idx in picks[0]:
            assert int(ds.class_ids[idx]) in (2, 3)


class TestSelectHardestNegative:
    def test_argmin_example(self):
        batch = np.array([[3.0, 0.0], [1.0, 0.0]])
        idx = select_hardest_negative(np.zeros((1, 2)), batch, np.array([1, 2]), np.array([0]))
        assert idx.tolist() == [1]

    def test_singleton(self):
        batch = np.array([[5.0, 5.0]])
        idx = select_hardest_negative(np.zeros((1, 2)), batch, np.array([3]), np.array([0]))
        assert idx.tolist() == [0]

    def test_no_candidates_refused(self):
        batch = np.zeros((2, 2))
        with pytest.raises(SelectionError):
            select_hardest_negative(np.zeros((1, 2)), batch, np.array([4, 4]), np.array([4]))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_matches_exhaustive_scan(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 16))
        batch = rng.standard_normal((n, 3))
        classes = rng.integers(0, 4, size=n)
        anchor = rng.standard_normal(3)
        anchor_class = 0
        if not (classes != anchor_class).any():
            classes[0] = 1
        got = select_hardest_negative(anchor[None], batch, classes, np.array([anchor_class]))
        assert got.tolist() == [oracle_hardest_negative(anchor, batch, classes, anchor_class)]


class TestWeightedTriplet:
    def test_worked_example(self):
        # Positive distances 2 and 3, weights 0.5/0.5, negative at distance 2.
        anchor = np.zeros(2)
        positives = np.array([[2.0, 0.0], [3.0, 0.0]])
        negative = np.array([0.0, 2.0])
        lv = weighted_triplet_loss(anchor[None], positives[None], np.array([[0.5, 0.5]]),
                                   negative[None], 0.3)
        assert lv.loss == pytest.approx(0.8, abs=1e-12)
        assert lv.counters["active"] == 1

    def test_ideal_geometry_inactive(self):
        anchor = np.array([1.0, 1.0])
        positives = np.tile(anchor, (3, 1))
        negative = np.array([9.0, 9.0])
        lv = weighted_triplet_loss(anchor[None], positives[None], np.full((1, 3), 1 / 3),
                                   negative[None], 0.3)
        assert lv.loss == 0.0
        assert all(np.all(g == 0.0) for g in lv.grads.values())

    def test_singleton_reduces_to_plain_hinge(self, rng):
        anchor = rng.standard_normal(3)
        pos = rng.standard_normal(3)
        neg = rng.standard_normal(3)
        lv = weighted_triplet_loss(anchor[None], pos[None, None], np.array([[1.0]]), neg[None], 0.3)
        plain = max(
            0.0,
            np.linalg.norm(anchor - pos) - np.linalg.norm(anchor - neg) + 0.3,
        )
        assert lv.loss == pytest.approx(plain, abs=1e-12)

    def test_permutation_invariance(self, rng):
        anchor = rng.standard_normal(3)
        positives = rng.standard_normal((4, 3))
        weights = np.array([0.1, 0.2, 0.3, 0.4])
        neg = rng.standard_normal(3)
        a = weighted_triplet_loss(anchor[None], positives[None], weights[None], neg[None], 0.3)
        perm = np.array([2, 0, 3, 1])
        b = weighted_triplet_loss(anchor[None], positives[None, perm], weights[None, perm],
                                  neg[None], 0.3)
        assert a.loss == pytest.approx(b.loss, abs=1e-12)
        np.testing.assert_allclose(a.grads["anchor"], b.grads["anchor"], atol=1e-12)
        np.testing.assert_allclose(a.grads["positives"][:, perm], b.grads["positives"], atol=1e-12)

    def test_weights_must_sum_to_one(self, rng):
        with pytest.raises(ContractError):
            weighted_triplet_loss(
                np.zeros((1, 2)), np.ones((1, 2, 2)), np.array([[0.5, 0.6]]), np.ones((1, 2)), 0.3
            )

    def test_gradient_matches_finite_differences(self, rng):
        anchor = rng.standard_normal(3)
        positives = rng.standard_normal((2, 3)) + 2.0
        weights = np.array([0.3, 0.7])
        neg = anchor + 0.1 * rng.standard_normal(3)

        lv = weighted_triplet_loss(anchor[None], positives[None], weights[None], neg[None], 0.3)
        assert lv.loss > 0.0

        def loss_at(flat):
            a = flat[:3]
            p = flat[3:9].reshape(2, 3)
            n = flat[9:]
            return weighted_triplet_loss(a[None], p[None], weights[None], n[None], 0.3).loss

        flat0 = np.concatenate([anchor, positives.ravel(), neg])
        numeric = finite_difference(loss_at, flat0, eps=1e-6)
        analytic = np.concatenate(
            [lv.grads["anchor"][0], lv.grads["positives"].ravel(), lv.grads["negative"][0]]
        )
        for a, n in zip(analytic, numeric):
            assert relative_error(a, n) <= 1e-4
