import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crosscam import ContractError, new_buffer, update_person


class TestUpdatePerson:
    def test_halfway_averaging(self):
        buf = new_buffer(2, 3)
        update_person(buf, [1], np.array([[[1.0, 1.0]]]))  # first touch
        update_person(buf, [1], np.array([[[3.0, 3.0]]]))
        np.testing.assert_allclose(buf.P[:, 1], [2.0, 2.0])

    def test_first_touch_sets_batch_mean(self):
        buf = new_buffer(2, 2)
        feats = np.array([[1.0, 2.0], [3.0, 4.0]])
        update_person(buf, [0], feats[None])
        np.testing.assert_allclose(buf.P[:, 0], [2.0, 3.0])
        assert buf.initialized[0] and not buf.initialized[1]

    def test_geometric_convergence(self):
        # Constant batch mean (0, 0) from start (8, 0): 8 -> 4 -> 2 -> 1.
        buf = new_buffer(2, 1)
        update_person(buf, [0], np.array([[[8.0, 0.0]]]))
        for _ in range(3):
            update_person(buf, [0], np.array([[[0.0, 0.0]]]))
        np.testing.assert_allclose(buf.P[:, 0], [1.0, 0.0])

    def test_empty_batch_rejected(self):
        buf = new_buffer(2, 1)
        with pytest.raises(ContractError):
            update_person(buf, [0], np.zeros((1, 0, 2)))

    def test_bad_class_index_rejected(self):
        buf = new_buffer(2, 2)
        with pytest.raises(ContractError):
            update_person(buf, [2], np.ones((1, 1, 2)))

    def test_one_person_without_a_batch_axis_rejected(self):
        buf = new_buffer(2, 2)
        with pytest.raises(ContractError):
            update_person(buf, 1, np.ones((1, 2)))
        with pytest.raises(ContractError):
            update_person(buf, [1], np.ones((1, 2)))
        assert not buf.initialized.any()

    def test_wrong_feature_length_rejected(self):
        buf = new_buffer(2, 1)
        with pytest.raises(ContractError):
            update_person(buf, [0], np.ones((1, 1, 3)))


class TestInvariants:
    def test_untouched_columns_unchanged_bitwise(self, rng):
        buf = new_buffer(3, 5)
        for c in range(5):
            update_person(buf, [c], rng.standard_normal((1, 2, 3)))
        snapshot = buf.P.copy()
        update_person(buf, [2], rng.standard_normal((1, 4, 3)))
        untouched = [0, 1, 3, 4]
        assert np.array_equal(buf.P[:, untouched], snapshot[:, untouched])

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**31), updates=st.integers(1, 8))
    def test_norm_bounded_by_feature_bound(self, seed, updates):
        rng = np.random.default_rng(seed)
        buf = new_buffer(4, 1)
        bound = 0.0
        for _ in range(updates):
            feats = rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 5)), 4))
            bound = max(bound, max(np.linalg.norm(f) for f in feats))
            update_person(buf, [0], feats[None])
        assert np.linalg.norm(buf.P[:, 0]) <= bound + 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_order_independence_within_call(self, seed):
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((5, 3))
        a = new_buffer(3, 1)
        b = new_buffer(3, 1)
        update_person(a, [0], feats[None])
        update_person(b, [0], feats[rng.permutation(5)][None])
        np.testing.assert_allclose(a.P, b.P, atol=1e-12)

    def test_uninitialized_listing(self):
        buf = new_buffer(2, 4)
        update_person(buf, [1], np.ones((1, 1, 2)))
        update_person(buf, [3], np.ones((1, 1, 2)))
        assert buf.uninitialized_classes() == [0, 2]
