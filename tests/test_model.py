import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crosscam import (
    ClassifierHead,
    ContractError,
    EmbeddingModel,
    FormatError,
    Optimizer,
    OptimizerState,
    TrainingError,
    backward,
    forward_batch,
    init_head,
    init_model,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)
from oracles import finite_difference, relative_error


def small_model(rng):
    return init_model(d_in=5, hidden=7, d_embed=3, rng=rng)


def head_for(model):
    """A 4-class head on the model's embeddings, from its own generator."""
    return init_head(model.d, 4, np.random.default_rng(0))


class TestForward:
    def test_zero_parameters_zero_output(self):
        m = EmbeddingModel(np.zeros((4, 3)), np.zeros(4), np.zeros((2, 4)), np.zeros(2))
        assert np.all(forward_batch(m, np.array([[1.0, -2.0, 3.0]])) == 0.0)

    def test_identity_passthrough_on_nonnegatives(self):
        m = EmbeddingModel(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3))
        x = np.array([0.5, 0.0, 2.0])
        assert np.allclose(forward_batch(m, x[None])[0], x)

    def test_matches_straight_line_evaluation(self, rng):
        m = small_model(rng)
        x = rng.standard_normal(5)
        # Independent element-by-element evaluation of the two layers.
        hidden = [max(0.0, sum(m.W1[i, j] * x[j] for j in range(5)) + m.b1[i]) for i in range(7)]
        expected = [sum(m.W2[o, i] * hidden[i] for i in range(7)) + m.b2[o] for o in range(3)]
        np.testing.assert_allclose(forward_batch(m, x[None])[0], expected, rtol=1e-12)

    def test_forward_is_pure(self, rng):
        m = small_model(rng)
        x = rng.standard_normal(5)
        a = forward_batch(m, x[None])
        b = forward_batch(m, x[None])
        assert np.array_equal(a, b)

    def test_dimension_mismatch_rejected(self, rng):
        m = small_model(rng)
        with pytest.raises(ContractError):
            forward_batch(m, np.zeros((1, 4)))
        with pytest.raises(ContractError):
            forward_batch(m, np.zeros((2, 6)))


class TestBackward:
    def test_zero_upstream_zero_grads(self, rng):
        m = small_model(rng)
        X = rng.standard_normal((4, 5))
        grads = backward(m, X, np.zeros((4, 3)))
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_shape_mismatch_rejected(self, rng):
        m = small_model(rng)
        with pytest.raises(ContractError):
            backward(m, np.zeros((4, 5)), np.zeros((4, 2)))

    def test_half_squared_norm_gradient_matches_finite_differences(self, rng):
        # L = 0.5 * ||v||^2 so the upstream gradient is v itself.
        m = small_model(rng)
        x = rng.standard_normal(5)

        for name in ("W1", "b1", "W2", "b2"):
            v = forward_batch(m, x[None])[0]
            grads = backward(m, x[None, :], v[None, :])

            def loss_at(theta_flat, name=name):
                trial = EmbeddingModel(
                    m.W1.copy(), m.b1.copy(), m.W2.copy(), m.b2.copy()
                )
                getattr(trial, name).flat[:] = theta_flat
                out = forward_batch(trial, x[None])[0]
                return 0.5 * float(out @ out)

            numeric = finite_difference(loss_at, getattr(m, name).ravel(), eps=1e-5)
            for a, n in zip(grads[name].ravel(), numeric):
                assert relative_error(a, n) <= 1e-4

    def test_batch_gradient_is_sum_of_per_input_gradients(self, rng):
        m = small_model(rng)
        X = rng.standard_normal((2, 5))
        dV = rng.standard_normal((2, 3))
        whole = backward(m, X, dV)
        first = backward(m, X[:1], dV[:1])
        second = backward(m, X[1:], dV[1:])
        for name in whole:
            np.testing.assert_allclose(whole[name], first[name] + second[name], rtol=1e-12)

    def test_linearity_in_upstream(self, rng):
        m = small_model(rng)
        X = rng.standard_normal((3, 5))
        dV = rng.standard_normal((3, 3))
        doubled = backward(m, X, 2.0 * dV)
        base = backward(m, X, dV)
        for name in base:
            np.testing.assert_allclose(doubled[name], 2.0 * base[name], rtol=1e-12)


class TestSgdStep:
    def test_vanilla_step(self, rng):
        m = small_model(rng)
        w_before = m.W1.copy()
        g = rng.standard_normal(m.W1.shape)
        opt = Optimizer(learning_rate_pretrained=0.1, momentum=0.0, decay_epoch=100)
        sgd_step(m, head_for(m), {"W1": g}, opt, OptimizerState(), epoch=1)
        np.testing.assert_allclose(m.W1, w_before - 0.1 * g, rtol=1e-12)

    def test_decay_multiplies_learning_rate_once(self):
        opt = Optimizer(learning_rate_pretrained=0.1, learning_rate_new=0.01,
                        decay_epoch=200, decay_factor=0.1)
        assert opt.effective_rates(199) == (0.1, 0.01)
        assert opt.effective_rates(200) == pytest.approx((0.01, 0.001))
        # Not compounded: later epochs see the same decayed rate.
        assert opt.effective_rates(299) == pytest.approx((0.01, 0.001))

    def test_momentum_second_displacement(self, rng):
        m = small_model(rng)
        g = rng.standard_normal(m.b2.shape)
        eta = 0.05
        opt = Optimizer(learning_rate_pretrained=eta, momentum=0.9, decay_epoch=100)
        state = OptimizerState()
        head = head_for(m)
        before_first = m.b2.copy()
        sgd_step(m, head, {"b2": g.copy()}, opt, state, epoch=1)
        after_first = m.b2.copy()
        sgd_step(m, head, {"b2": g.copy()}, opt, state, epoch=1)
        np.testing.assert_allclose(after_first - before_first, -eta * g, rtol=1e-12)
        np.testing.assert_allclose(m.b2 - after_first, -1.9 * eta * g, rtol=1e-12)

    def test_untouched_parameters_stay_bitwise_equal(self, rng):
        m = small_model(rng)
        w2 = m.W2.copy()
        opt = Optimizer()
        sgd_step(m, head_for(m), {"W1": np.ones_like(m.W1)}, opt, OptimizerState(), epoch=1)
        assert np.array_equal(m.W2, w2)

    def test_non_finite_gradient_refused_with_parameter_name(self, rng):
        m = small_model(rng)
        g = np.ones_like(m.b1)
        g[0] = np.nan
        before = m.b1.copy()
        with pytest.raises(TrainingError, match="b1"):
            sgd_step(m, head_for(m), {"b1": g}, Optimizer(), OptimizerState(), epoch=1)
        assert np.array_equal(m.b1, before)

    def test_head_uses_new_parameter_rate(self, rng):
        m = small_model(rng)
        head = init_head(3, 4, rng)
        wc_before = head.Wc.copy()
        g = np.ones_like(head.Wc)
        opt = Optimizer(learning_rate_pretrained=0.1, learning_rate_new=0.01, momentum=0.0)
        sgd_step(m, head, {"Wc": g}, opt, OptimizerState(), epoch=1)
        np.testing.assert_allclose(head.Wc, wc_before - 0.01 * g, rtol=1e-12)


class TestCheckpoint:
    def test_roundtrip_preserves_forward_bitwise(self, rng, tmp_path):
        m = small_model(rng)
        head = init_head(3, 6, rng)
        state = OptimizerState()
        state.velocities["W1"] = rng.standard_normal(m.W1.shape)
        p = tmp_path / "ck.txt"
        save_checkpoint(p, m, head, Optimizer(), state)
        loaded = load_checkpoint(p)
        x = rng.standard_normal((4, 5))
        assert np.array_equal(forward_batch(m, x), forward_batch(loaded.model, x))
        assert np.array_equal(loaded.head.Wc, head.Wc)
        assert np.array_equal(loaded.state.velocities["W1"], state.velocities["W1"])
        assert loaded.optimizer == Optimizer()

    def test_fresh_model_roundtrip(self, rng, tmp_path):
        m = small_model(rng)
        head = head_for(m)
        p = tmp_path / "ck.txt"
        save_checkpoint(p, m, head, Optimizer(), OptimizerState())
        loaded = load_checkpoint(p)
        for name, arr in m.params().items():
            assert np.array_equal(loaded.model.params()[name], arr)
        for name, arr in head.params().items():
            assert np.array_equal(loaded.head.params()[name], arr)

    def test_checkpoint_without_head_refused_at_end(self, rng, tmp_path):
        m = small_model(rng)
        p = tmp_path / "ck.txt"
        save_checkpoint(p, m, head_for(m), Optimizer(), OptimizerState())
        lines = p.read_text().splitlines()
        at = lines.index("array head.Wc 4 3")
        kept = lines[:at] + lines[at + (1 + 4) + (1 + 1):]  # head.Wc (4 x 3), then head.bc
        assert not any(line.startswith("array head.") for line in kept)
        p.write_text("\n".join(kept) + "\n")
        with pytest.raises(FormatError) as info:
            load_checkpoint(p)
        assert info.value.line == kept.index("end") + 1
        assert info.value.reason == "missing required array 'head.Wc' before 'end'"

    def test_truncated_checkpoint_is_a_parse_error(self, rng, tmp_path):
        m = small_model(rng)
        p = tmp_path / "ck.txt"
        save_checkpoint(p, m, head_for(m), Optimizer(), OptimizerState())
        text = p.read_text().splitlines()
        p.write_text("\n".join(text[: len(text) // 2]) + "\n")
        with pytest.raises(FormatError):
            load_checkpoint(p)

    @pytest.mark.parametrize("prefix, new_lines, reason", [
        ("array model.W1 ", ["array model.W1 -1 3"], "array 'model.W1': negative shape -1 x 3"),
        ("array model.b1 ", ["array model.b1 0 2"], "array 'model.b1' is 0 x 2, expected 1 x 2"),
        ("array model.b1 ", ["array model.b1 1 5", "1.0 2.0 3.0 4.0 5.0"],
         "array 'model.b1' is 1 x 5, expected 1 x 2"),
        ("array model.W2 ", ["array model.W2 4 3"] + ["0.0 0.0 0.0"] * 4,
         "array 'model.W2' is 4 x 3, expected any x 2"),
        ("array head.Wc ", ["array head.Wc 5 3"] + ["0.0 0.0 0.0"] * 5,
         "array 'head.Wc' is 5 x 3, expected any x 4"),
        ("array head.bc ", ["array head.bc 1 4", "0.0 0.0 0.0 0.0"],
         "array 'head.bc' is 1 x 4, expected 1 x 5"),
        ("array velocity.b1 ", ["array velocity.b1 1 3", "1.0 1.0 1.0"],
         "array 'velocity.b1' is 1 x 3, expected 1 x 2"),
        ("array velocity.Wc ", ["array velocity.Wx 1 1", "0.0"],
         "velocity for absent parameter 'Wx'"),
        ("scalar optimizer.decay_epoch ", ["scalar optimizer.decay_epoch 2.5"],
         "optimizer.decay_epoch must be an integer, got 2.5"),
        # A repeated name is refused at its second line, not kept as the last one read.
        ("array model.b2 ", ["array model.b1 1 2", "0.0 0.0", "array model.b2 1 4",
                             "0.0 0.0 0.0 0.0"], "repeated name 'model.b1', first on line 5"),
        ("scalar optimizer.decay_epoch ", ["scalar optimizer.momentum 0.5",
                                           "scalar optimizer.decay_epoch 200.0"],
         "repeated name 'optimizer.momentum', first on line"),
    ])
    def test_inconsistent_checkpoint_names_the_line(self, rng, tmp_path, prefix, new_lines,
                                                    reason):
        state = OptimizerState()
        state.velocities["b1"] = np.ones(2)
        state.velocities["Wc"] = np.ones((5, 4))
        p = tmp_path / "ck.txt"
        save_checkpoint(p, init_model(3, 2, 4, rng), init_head(4, 5, rng), Optimizer(), state)
        lines = p.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        n_old = 1 + (int(lines[at].split()[2]) if prefix.startswith("array") else 0)
        p.write_text("\n".join(lines[:at] + new_lines + lines[at + n_old:]) + "\n")
        with pytest.raises(FormatError) as info:
            load_checkpoint(p)
        assert info.value.line == at + 1
        assert info.value.reason.startswith(reason)

    @pytest.mark.parametrize("name, value", [("W2", np.nan), ("b1", np.inf), ("W1", -np.inf)])
    def test_non_finite_value_names_its_line(self, rng, tmp_path, name, value):
        m = init_model(3, 2, 4, rng)
        getattr(m, name).flat[-1] = value
        p = tmp_path / "ck.txt"
        save_checkpoint(p, m, head_for(m), Optimizer(), OptimizerState())
        lines = p.read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith(f"array model.{name} "))
        rows = int(lines[header].split()[2])
        with pytest.raises(FormatError) as info:
            load_checkpoint(p)
        assert info.value.line == header + 1 + rows  # the array's last row
        assert info.value.reason == f"array 'model.{name}': non-finite value"

    @pytest.mark.parametrize("arrays, scalars", [
        ({"model.b1": np.zeros(2)}, {}),
        ({"head.extra": np.zeros(2)}, {}),
        ({"velocity.W1": np.zeros((2, 3))}, {}),
        ({}, {"optimizer.momentum": 0.5}),
        ({"buffer.t": np.zeros(1)}, {"buffer.t": 1.0}),
        ({"": np.zeros(1)}, {}),
        ({}, {"two words": 1.0}),
        ({"tab\tname": np.zeros(1)}, {}),
        ({}, {"line\nbreak": 1.0}),
    ])
    def test_unreadable_extra_names_refused_before_writing(self, rng, tmp_path, arrays, scalars):
        # Each of these would be written, then refused (or misread) by load_checkpoint.
        m = small_model(rng)
        p = tmp_path / "ck.txt"
        with pytest.raises(ContractError, match="extra checkpoint name"):
            save_checkpoint(p, m, head_for(m), Optimizer(), OptimizerState(),
                            extra_arrays=arrays, extra_scalars=scalars)
        assert not p.exists()

    def test_train_extra_names_load(self, rng, tmp_path):
        m = small_model(rng)
        p = tmp_path / "ck.txt"
        P, initialized = rng.standard_normal((3, 5)), np.ones(5)
        save_checkpoint(p, m, head_for(m), Optimizer(), OptimizerState(),
                        extra_arrays={"buffer.P": P, "buffer.initialized": initialized},
                        extra_scalars={"buffer.t": 7.0})
        loaded = load_checkpoint(p)
        assert np.array_equal(loaded.arrays["buffer.P"], P)
        assert np.array_equal(loaded.arrays["buffer.initialized"], initialized[None])
        assert loaded.scalars == {"buffer.t": 7.0}

    def test_save_twice_is_byte_identical(self, rng, tmp_path):
        m = small_model(rng)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        head = head_for(m)
        save_checkpoint(a, m, head, Optimizer(), OptimizerState())
        save_checkpoint(b, m, head, Optimizer(), OptimizerState())
        assert a.read_bytes() == b.read_bytes()


class TestInit:
    def test_he_scaling(self):
        rng = np.random.default_rng(0)
        m = init_model(d_in=100, hidden=400, d_embed=50, rng=rng)
        assert m.W1.std() == pytest.approx(np.sqrt(2.0 / 100), rel=0.1)
        assert m.W2.std() == pytest.approx(np.sqrt(2.0 / 400), rel=0.1)
        assert np.all(m.b1 == 0.0) and np.all(m.b2 == 0.0)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_init_finite_and_seeded(self, seed):
        a = init_model(6, 8, 4, np.random.default_rng(seed))
        b = init_model(6, 8, 4, np.random.default_rng(seed))
        assert np.array_equal(a.W1, b.W1) and np.array_equal(a.W2, b.W2)
        assert np.all(np.isfinite(a.W1)) and np.all(np.isfinite(a.W2))


class TestHead:
    def test_scores_shape_and_gradients(self, rng):
        from crosscam.model import head_backward, head_forward

        head = ClassifierHead(rng.standard_normal((4, 3)), rng.standard_normal(4))
        V = rng.standard_normal((5, 3))
        S = head_forward(head, V)
        assert S.shape == (5, 4)
        dS = rng.standard_normal((5, 4))
        grads, dV = head_backward(head, V, dS)
        np.testing.assert_allclose(grads["Wc"], dS.T @ V, rtol=1e-12)
        np.testing.assert_allclose(grads["bc"], dS.sum(axis=0), rtol=1e-12)
        np.testing.assert_allclose(dV, dS @ head.Wc, rtol=1e-12)
