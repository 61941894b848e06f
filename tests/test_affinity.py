import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slow_references as slow
from crosscam import (
    AffinityError,
    ContractError,
    PersonIndex,
    affinity_quality_map,
    build_affinity,
    new_buffer,
    soft_label_rows,
    update_person,
)
from oracles import oracle_affinity, oracle_average_precision


def make_buffer(columns):
    columns = np.asarray(columns, dtype=np.float64)
    buf = new_buffer(columns.shape[1], columns.shape[0])
    update_person(buf, np.arange(columns.shape[0]), columns[:, None, :])
    return buf


def two_camera_example():
    """Three persons: classes 0=(0,0) and 1=(0,1) on camera 0, class 2=(1,0) on camera 1."""
    buf = make_buffer([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    return buf, PersonIndex((2, 1))


class TestBuildAffinity:
    def test_worked_example(self):
        buf, index = two_camera_example()
        aff = build_affinity(buf, index, k=2)
        # Cross-camera squared distances: classes 0<->2 give 1, 1<->2 give 2.
        assert aff.sigma_sq == pytest.approx(1.5, abs=1e-12)
        assert aff.A[0, 2] == pytest.approx(np.exp(-1.0 / 1.5), abs=1e-12)
        assert aff.A[0, 2] == pytest.approx(0.5134, abs=1e-4)
        assert aff.A[2, 1] == pytest.approx(np.exp(-2.0 / 1.5), abs=1e-12)
        assert aff.A[2, 1] == pytest.approx(0.2636, abs=1e-4)
        assert aff.A[0, 1] == 0.0  # same camera
        assert aff.A[1, 0] == 0.0

    def test_single_camera_rejected(self):
        buf = make_buffer([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(AffinityError):
            build_affinity(buf, PersonIndex((2,)), k=1)

    def test_empty_other_cameras_rejected(self):
        buf = make_buffer([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(AffinityError):
            build_affinity(buf, PersonIndex((2, 0)), k=1)

    def test_identical_cross_camera_pair_is_row_maximum(self):
        buf = make_buffer([[1.0, 2.0], [5.0, 5.0], [1.0, 2.0], [9.0, 9.0]])
        index = PersonIndex((2, 2))  # classes 0,1 on cam0; 2,3 on cam1
        aff = build_affinity(buf, index, k=2)
        assert aff.A[0, 2] == pytest.approx(1.0, abs=1e-12)
        assert aff.A[0, 2] == aff.A[0].max()

    def test_uninitialized_columns_listed(self):
        buf = new_buffer(2, 3)
        update_person(buf, [0], np.ones((1, 1, 2)))
        with pytest.raises(AffinityError, match=r"\[1, 2\]"):
            build_affinity(buf, PersonIndex((2, 1)), k=1)

    def test_sigma_zero_sets_entries_to_one_with_warning(self):
        buf = make_buffer([[3.0, 3.0], [3.0, 3.0]])
        with pytest.warns(RuntimeWarning):
            aff = build_affinity(buf, PersonIndex((1, 1)), k=1)
        assert aff.sigma_sq == 0.0
        assert aff.A[0, 1] == 1.0 and aff.A[1, 0] == 1.0

    def test_tie_break_prefers_lower_class_index(self):
        # Classes 1 and 2 sit at equal distance from class 0; k=1 keeps class 1.
        buf = make_buffer([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        index = PersonIndex((1, 2))
        aff = build_affinity(buf, index, k=1)
        assert aff.A[0, 1] > 0.0
        assert aff.A[0, 2] == 0.0

    def test_row_sparsity_at_most_k(self, rng):
        cols = rng.standard_normal((10, 3))
        aff = build_affinity(make_buffer(cols), PersonIndex((5, 5)), k=3)
        assert (np.count_nonzero(aff.A, axis=1) <= 3).all()

    def test_unmasked_mode_excludes_only_self(self, rng):
        cols = rng.standard_normal((6, 3))
        aff = build_affinity(make_buffer(cols), PersonIndex((3, 3)), k=5, mask_same_camera=False)
        assert np.all(np.diag(aff.A) == 0.0)
        # Same-camera neighbors are now allowed to appear.
        same_cam_mass = aff.A[0, 1] + aff.A[0, 2]
        cross_mass = aff.A[0, 3:].sum()
        assert same_cam_mass + cross_mass == pytest.approx(aff.A[0].sum())


class TestSoftLabelRows:
    def test_worked_example_normalization(self):
        buf, index = two_camera_example()
        rows = soft_label_rows(build_affinity(buf, index, k=2))
        r = rows[2]
        total = np.exp(-1.0 / 1.5) + np.exp(-2.0 / 1.5)
        np.testing.assert_allclose(
            r.weights, [np.exp(-1.0 / 1.5) / total, np.exp(-2.0 / 1.5) / total, 0.0], atol=1e-12
        )
        np.testing.assert_allclose(r.weights, [0.6607, 0.3393, 0.0], atol=1e-4)
        assert not r.degenerate

    def test_singleton_row_gets_weight_one(self):
        aff = slow.affinity_from_dense(
            A=np.array([[0.0, 0.7], [0.0, 0.0]]), sigma_sq=1.0,
            camera_of_class=np.array([0, 1]), masked=True,
        )
        rows = soft_label_rows(aff)
        assert rows[0].weights[1] == 1.0

    def test_zero_row_marked_degenerate(self):
        aff = slow.affinity_from_dense(
            A=np.zeros((2, 2)), sigma_sq=1.0,
            camera_of_class=np.array([0, 1]), masked=True,
        )
        rows = soft_label_rows(aff)
        assert all(r.degenerate for r in rows)
        assert all(np.all(r.weights == 0.0) for r in rows)

    def test_rows_sum_to_one(self, rng):
        cols = rng.standard_normal((12, 4))
        rows = soft_label_rows(build_affinity(make_buffer(cols), PersonIndex((6, 6)), k=4))
        for r in rows:
            assert abs(r.weights.sum() - 1.0) <= 1e-9


class TestAffinityQuality:
    def test_perfect_ranking_gives_one(self):
        # Two cameras, two persons each; cross-camera twins have max affinity.
        cols = np.array([[0.0, 0.0], [5.0, 5.0], [0.1, 0.0], [5.1, 5.0]])
        aff = build_affinity(make_buffer(cols), PersonIndex((2, 2)), k=2)
        truth = np.array([0, 1, 0, 1])
        assert affinity_quality_map(aff, truth) == pytest.approx(1.0)

    def test_single_row_ap_example(self):
        # One scored row with true matches at candidate ranks 1 and 3.
        A = np.zeros((4, 4))
        A[0, 1] = 0.9
        A[0, 2] = 0.5
        A[0, 3] = 0.3
        aff = slow.affinity_from_dense(
            A=A, sigma_sq=1.0,
            camera_of_class=np.array([0, 1, 1, 1]), masked=True,
        )
        truth = np.array([7, 7, 8, 7])
        # Only row 0 has cross-camera matches; rows 1..3 see only row 0
        # (their sole cross-camera candidate), which matches row 3 never,
        # row 2 never, and row 1/3 via identity 7.
        ap_row0 = (1.0 / 1.0 + 2.0 / 3.0) / 2.0
        ap_row1 = 1.0  # candidate list [0], match at rank 1
        ap_row3 = 1.0
        expected = (ap_row0 + ap_row1 + ap_row3) / 3.0
        assert affinity_quality_map(aff, truth) == pytest.approx(expected, abs=1e-12)
        assert ap_row0 == pytest.approx(0.8333, abs=1e-4)

    def test_permuted_rows_never_beat_sorted(self, rng):
        cols = np.concatenate([rng.standard_normal((5, 3)), rng.standard_normal((5, 3)) * 0.1])
        truth = np.array([0, 1, 2, 3, 4, 0, 1, 2, 3, 4])
        aff = build_affinity(make_buffer(cols), PersonIndex((5, 5)), k=5)
        base = affinity_quality_map(aff, truth)
        # Sorted-correct variant: force each row's true match to the top.
        A = aff.A
        for i in range(10):
            j = (i + 5) % 10
            A[i, j] = 1.0 + A[i].max()
        best = slow.affinity_from_dense(
            A=A, sigma_sq=aff.sigma_sq,
            camera_of_class=aff.camera_of_class, masked=True,
        )
        assert affinity_quality_map(best, truth) >= base

    def test_no_matches_is_an_error(self):
        cols = np.array([[0.0, 0.0], [1.0, 1.0]])
        aff = build_affinity(make_buffer(cols), PersonIndex((1, 1)), k=1)
        with pytest.raises(AffinityError):
            affinity_quality_map(aff, np.array([0, 1]))

    def test_shape_mismatch_rejected(self):
        cols = np.array([[0.0, 0.0], [1.0, 1.0]])
        aff = build_affinity(make_buffer(cols), PersonIndex((1, 1)), k=1)
        with pytest.raises(ContractError):
            affinity_quality_map(aff, np.array([0, 0, 1]))


def random_instance(seed):
    rng = np.random.default_rng(seed)
    n_cameras = int(rng.integers(2, 4))
    counts = tuple(int(rng.integers(1, 5)) for _ in range(n_cameras))
    C = sum(counts)
    if C < 2 or max(counts) == C:
        counts = (2, 2)
        C = 4
    cols = rng.standard_normal((C, int(rng.integers(2, 5))))
    k = int(rng.integers(1, C + 2))
    return cols, PersonIndex(counts), k


class TestInvariantsAgainstOracle:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_matches_brute_force_enumeration(self, seed):
        cols, index, k = random_instance(seed)
        aff = build_affinity(make_buffer(cols), index, k=k)
        cameras = index.camera_of_class_array()
        A_ref, sig_ref = oracle_affinity(cols, cameras, k)
        assert aff.sigma_sq == pytest.approx(sig_ref, rel=1e-12)
        np.testing.assert_allclose(aff.A, A_ref, atol=1e-9)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_structural_invariants(self, seed):
        cols, index, k = random_instance(seed)
        aff = build_affinity(make_buffer(cols), index, k=k)
        cameras = index.camera_of_class_array()
        same = cameras[:, None] == cameras[None, :]
        assert np.all(aff.A[same] == 0.0)
        assert (np.count_nonzero(aff.A, axis=1) <= k).all()
        assert aff.A.min() >= 0.0 and aff.A.max() <= 1.0
        # Monotone within rows: among kept entries, smaller distance never
        # maps to smaller affinity (exp is decreasing in squared distance).
        d2 = ((cols[:, None, :] - cols[None, :, :]) ** 2).sum(-1)
        for i in range(aff.A.shape[0]):
            kept = np.flatnonzero(aff.A[i])
            for a in kept:
                for b in kept:
                    if d2[i, a] < d2[i, b]:
                        assert aff.A[i, a] >= aff.A[i, b]

    def test_asymmetry_is_allowed(self):
        # Class 2 crowds class 0 out of row 1's top-k but not conversely.
        cols = np.array([[0.0, 0.0], [2.0, 0.0], [1.9, 0.0]])
        index = PersonIndex((1, 2))
        aff = build_affinity(make_buffer(cols), index, k=1)
        assert aff.A[0, 2] > 0.0  # row 0 keeps its nearest cross-camera person
        assert aff.A[2, 0] > 0.0
        assert aff.A[1, 0] > 0.0
        assert aff.A[0, 1] == 0.0  # dropped by the k-NN mask, not by symmetry
