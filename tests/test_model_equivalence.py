"""The embedding network's one-pass forward and bit-masked backward give
the bits of their allocating forms.

tests/slow_references.py keeps the forms the package ran before: the
forward with each bias sum and the ReLU allocated apart from the
products, and the backward that computes the first layer again from X
and gates the ReLU with np.where on the pre-activations.  Each test
compares results as bytes, so signed zeros and NaN payloads count: the
bit mask must write +0.0 wherever np.where did, whatever the gradient
held there.  The tripwire at the end trains warmup and C+D epochs through
both forms and compares the whole run.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slow_references as slow
from crosscam import ContractError, EmbeddingModel, TrainConfig, backward, evaluation, train
from crosscam import trainer
from crosscam.model import forward_batch, forward_with_hidden
from slow_references import same_bits
from test_batched_equivalence import points
from test_iteration_equivalence import plain, snapshot

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)
seeds = st.integers(min_value=0, max_value=2**31)

# Upstream gradient values the gate must pass or zero bit for bit.
SPECIAL = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 1e308, -1e308, 5e-324])


def model_case(rng, case):
    """(model, X) on a coarse grid, so that pre-activations of exactly
    +0.0 and -0.0 are common; "nan" puts NaN in some biases and inputs,
    "strided" and "one" give a strided X and a single row."""
    d_in, h, d = (int(v) for v in rng.integers(1, 9, size=3))
    n = 1 if case == "one" else int(rng.integers(1, 40))
    model = EmbeddingModel(points(rng, (h, d_in)), points(rng, h), points(rng, (d, h)), points(rng, d))
    model.W1[rng.random(h) < 0.3] = 0.0  # rows whose pre-activation is the bias alone
    model.b1[rng.random(h) < 0.3] = rng.choice([0.0, -0.0])
    X = points(rng, (n, d_in))
    if case == "nan":
        model.b1[rng.random(h) < 0.2] = np.nan
        X[rng.random(X.shape) < 0.05] = rng.choice([np.nan, np.inf])
    elif case == "strided":
        X = np.asfortranarray(points(rng, (n, 2 * d_in)))[:, ::2]
    return model, X


@SETTINGS
@given(seed=seeds, case=st.sampled_from(["grid", "nan", "strided", "one"]))
def test_forward_matches_allocating_forward(seed, case):
    model, X = model_case(np.random.default_rng(seed), case)
    with np.errstate(invalid="ignore"):
        V, H = forward_with_hidden(model, X)
        want = slow.forward_batch(model, X)
        pre = X @ model.W1.T + model.b1
        assert same_bits(V, want) and same_bits(forward_batch(model, X), want)
    assert same_bits(H, np.maximum(pre, 0.0))


@SETTINGS
@given(seed=seeds, case=st.sampled_from(["grid", "nan", "strided", "one"]),
       special=st.floats(min_value=0.0, max_value=0.5))
def test_backward_matches_recomputing_backward(seed, case, special):
    """dV holds NaN, infinities, -0.0 and values near overflow in a share
    `special` of its entries; pre-activations of exactly +0.0, -0.0 and
    NaN come from model_case."""
    rng = np.random.default_rng(seed)
    model, X = model_case(rng, case)
    dV = points(rng, (X.shape[0], model.d))
    mask = rng.random(dV.shape) < special
    dV[mask] = rng.choice(SPECIAL, size=int(mask.sum()))
    with np.errstate(all="ignore"):
        H = forward_with_hidden(model, X)[1]
        got = backward(model, X, dV, H)
        want = slow.backward(model, X, dV)
    assert got.keys() == want.keys() and all(same_bits(got[k], want[k]) for k in want)


def test_backward_gate_writes_positive_zero_over_every_value():
    """Where the ReLU is shut (an activation of +0.0, -0.0 or NaN) every
    upstream value, NaN and infinities included, leaves +0.0 behind."""
    shut = np.array([0.0, -0.0, np.nan])
    model = EmbeddingModel(np.zeros((shut.size + 1, 1)), np.zeros(shut.size + 1),
                           np.ones((1, shut.size + 1)), np.zeros(1))
    hidden = np.tile(np.append(shut, 1.0), (SPECIAL.size, 1))
    with np.errstate(invalid="ignore"):
        got = backward(model, np.ones((SPECIAL.size, 1)), SPECIAL[:, None], hidden)
    assert same_bits(got["b1"][:shut.size], np.zeros(shut.size))
    assert same_bits(got["W1"][:shut.size], np.zeros((shut.size, 1)))


@pytest.mark.parametrize("shape", [(3, 6), (3, 8), (2, 7), (7,)])
def test_backward_refuses_mismatched_activations(rng, shape):
    model = EmbeddingModel(rng.standard_normal((7, 5)), np.zeros(7), rng.standard_normal((2, 7)),
                           np.zeros(2))
    X = rng.standard_normal((3, 5))
    with pytest.raises(ContractError, match="hidden activations"):
        backward(model, X, np.zeros((3, 2)), np.zeros(shape))


def test_training_tripwire_against_recomputing_backward(monkeypatch, tiny_corpus):
    """Warmup and C+D epochs with per-epoch validation, once through the
    package and once with the allocating forward and the recomputing
    backward in place of the trainer's and evaluation's: the same log
    bytes, parameters, velocities, buffer and generator state."""
    config = TrainConfig(n_p=8, n_k=4, epochs=6, warmup_epochs=3, decay_epoch=5, hidden_dim=8,
                         embed_dim=4, class_batch_total=12, inter_mode="C+D", seed=7)
    data = (tiny_corpus["train"], config, tiny_corpus["query"], tiny_corpus["gallery"])
    got = train(*data)
    calls = []

    def recomputing_backward(model, X, dV, hidden):
        calls.append(1)
        return slow.backward(model, X, dV)

    # The recomputing backward ignores the activations it is handed.
    monkeypatch.setattr(trainer, "forward_with_hidden",
                        lambda model, X: (slow.forward_batch(model, X),
                                          np.zeros((X.shape[0], config.hidden_dim))))
    monkeypatch.setattr(trainer, "backward", recomputing_backward)
    monkeypatch.setattr(evaluation, "forward_batch", slow.forward_batch)
    want = train(*data)
    assert got.log.to_json() == want.log.to_json()
    assert all(r.inter_loss and r.val_map is not None for r in got.log.records[3:])
    # Each joint iteration back-propagates the intra, C, D-anchor and D-positive batches.
    assert len(calls) == 3 * 5 + 3 * 5 * 4
    a, b = snapshot(got), snapshot(want)
    assert a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)
    assert plain(got.rng.bit_generator.state) == plain(want.rng.bit_generator.state)
