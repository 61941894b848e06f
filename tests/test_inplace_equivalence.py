"""The joint-phase steps without full-width temporaries give the bits of
their allocating forms.

tests/slow_references.py keeps the forms the package ran before: the
head's scores as product plus bias, the softmax with a finiteness mask
and a new array per operation, the soft cross-entropy ("C") step that
always copies the kept rows out and scatters their gradient into zeros,
the momentum update that makes each velocity anew, and the 2-D
np.add.at row scatter.  Each test runs both forms on one case and
compares the results as bytes, so signed zeros count.  The contracts the
in-place code could break are checked here too: the softmax refuses
every non-finite score and leaves its input alone, a refused or
finished sgd_step touches only the parameters and velocities it names,
and the triplet losses, whose scatters need a C-contiguous gradient,
take a batch of any memory layout.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slow_references as slow
from slow_references import same_bits
from crosscam import (
    ContractError,
    Dataset,
    Optimizer,
    OptimizerState,
    PersonIndex,
    TrainConfig,
    TrainingError,
    TripletBatch,
    init_head,
    init_model,
    intra_triplet_loss,
    new_buffer,
    random_triplet_loss,
    sgd_step,
    softmax_probs,
    weighted_cross_entropy,
)
from crosscam import trainer
from crosscam.affinity import AffinityMatrix
from crosscam.losses import add_rows
from crosscam.model import head_forward
from crosscam.trainer import TrainState

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
seeds = st.integers(min_value=0, max_value=2**31)


def same_dicts(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)


def person_dataset(rng):
    """2-4 cameras of 2-6 persons, 1-4 samples per person, in shuffled order."""
    index = PersonIndex(tuple(int(c) for c in rng.integers(2, 7, size=int(rng.integers(2, 5)))))
    classes = rng.permutation(np.repeat(np.arange(index.total),
                                        rng.integers(1, 5, size=index.total)))
    cams = index.camera_of_class_array()[classes]
    local = classes - np.asarray(index.offsets)[cams]
    return Dataset(rng.standard_normal((classes.size, 3)), cams, local,
                   np.full(classes.size, -1), len(index.counts), "train")


def soft_label_weights(rng, C, k):
    """C dense soft-label rows of 1..k nonzero weights each, summing to one."""
    W = np.zeros((C, C))
    for c in range(C):
        cols = rng.choice(C, size=int(rng.integers(1, min(k, C) + 1)), replace=False)
        W[c, cols] = rng.choice([1.0, rng.random(), 1e-300], size=cols.size)
        W[c] /= W[c].sum()
    return W


@SETTINGS
@given(seed=seeds, degenerate=st.sampled_from(["none", "some", "all"]),
       lam=st.sampled_from([1.0, 0.3, 2.5]))
def test_soft_ce_step_matches_allocating_step(seed, degenerate, lam):
    """Loss, counts, score gradient, head and body gradients and the
    generator state are the allocating step's, whether every sampled row
    is kept (the loss's own gradient array is scaled in place), some are
    degenerate (copy and scatter) or all are (no terms)."""
    rng = np.random.default_rng(seed)
    ds = person_dataset(rng)
    C = ds.index.total
    config = dataclasses.replace(TrainConfig(), lam=lam, hidden_dim=5, embed_dim=4,
                                 class_batch_total=int(rng.integers(ds.n_cameras, 40)))
    model = init_model(ds.d_in, config.hidden_dim, config.embed_dim, rng)
    head = init_head(config.embed_dim, C, rng)
    head.bc[:] = rng.standard_normal(C) * float(rng.choice([1.0, 30.0]))
    draw_seed = int(rng.integers(2**31))
    places = slow.classification_places(ds, config.class_batch_total,
                                        np.random.default_rng(draw_seed))
    batch = ds.class_ids[trainer.classification_sampler(ds, config.class_batch_total, places)]
    W = soft_label_weights(rng, C, int(rng.integers(1, 8)))
    if degenerate == "some":
        W[batch[0]] = 0.0  # the last camera's samples are other persons, so they stay
    elif degenerate == "all":
        W[batch] = 0.0
    table = slow.label_table(W)
    # The step reads its soft labels from the epoch's affinity on the state.
    aff = AffinityMatrix(table, table, 1.0, ds.index.camera_of_class_array(), True)

    def state():
        return TrainState(model=model, head=head, optimizer=Optimizer(), opt_state=OptimizerState(),
                          buffer=new_buffer(config.embed_dim, C), rng=np.random.default_rng(draw_seed),
                          final_affinity=aff)

    want_state, got_state = state(), state()
    want = slow.soft_ce_step(want_state, ds, config, table, places)
    score_grads = []
    head_backward = trainer.head_backward

    def recording_head_backward(h, V, dS):
        score_grads.append(dS.copy())
        return head_backward(h, V, dS)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "head_backward", recording_head_backward)
        got = trainer._soft_ce_step(got_state, ds, config, places)
    assert got_state.rng.bit_generator.state == want_state.rng.bit_generator.state
    assert same_bits(got[0], want[0]) and got[1:3] == want[1:3]
    if degenerate == "some":
        assert 0 < got[1] < batch.size
    else:
        assert got[1] == (batch.size if degenerate == "none" else 0)
    if not got[1]:
        assert got[3] == [] and score_grads == []
        return
    assert len(score_grads) == 1 and same_bits(score_grads[0], want[4])
    assert len(got[3]) == len(want[3]) == 2
    assert all(same_dicts(g, w) for g, w in zip(got[3], want[3]))


@SETTINGS
@given(seed=seeds)
def test_head_scores_and_softmax_match_allocating_forms(seed):
    rng = np.random.default_rng(seed)
    n, C, d = int(rng.integers(1, 20)), int(rng.integers(1, 60)), int(rng.integers(1, 6))
    head = init_head(d, C, rng)
    head.bc[:] = rng.standard_normal(C)
    V = rng.standard_normal((n, d)) * float(rng.choice([1.0, 50.0]))
    scores = head_forward(head, V)
    assert same_bits(scores, slow.head_forward(head, V))
    scores[:, : C // 2] = np.round(scores[:, : C // 2])  # tied probabilities
    before = scores.copy()
    assert same_bits(softmax_probs(scores), slow.softmax_probs(scores))
    assert same_bits(softmax_probs(scores[0]), slow.softmax_probs(scores[0]))
    assert same_bits(softmax_probs(scores[:0]), slow.softmax_probs(scores[:0]))
    assert same_bits(scores, before)


@SETTINGS
@given(seed=seeds)
def test_softmax_into_out_matches_allocating_form(seed):
    """Into out, a separate array or the scores themselves, the softmax
    writes the allocating form's bits and returns out."""
    rng = np.random.default_rng(seed)
    n, C = int(rng.integers(1, 20)), int(rng.integers(1, 60))
    scores = rng.standard_normal((n, C)) * float(rng.choice([1.0, 50.0]))
    scores[:, : C // 2] = np.round(scores[:, : C // 2])  # tied probabilities
    want = slow.softmax_probs(scores)
    out = np.full_like(scores, np.nan)
    assert softmax_probs(scores, out=out) is out and same_bits(out, want)
    row = scores[0].copy()
    assert softmax_probs(row, out=row) is row and same_bits(row, want[0])
    assert softmax_probs(scores, out=scores) is scores and same_bits(scores, want)


def test_softmax_out_refusals_leave_out_untouched():
    scores = np.array([[0.0, 1.0], [2.0, np.inf]])
    out = np.zeros((2, 2))
    with pytest.raises(ContractError, match="finite"):
        softmax_probs(scores, out=out)
    assert not out.any()
    for bad in (np.zeros((2, 3)), np.zeros((2, 2), dtype=np.float32)):
        with pytest.raises(ContractError, match="out"):
            softmax_probs(np.zeros((2, 2)), out=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (1, 2), (2, 4)])
def test_softmax_refuses_every_non_finite_score(bad, where):
    """A lone -inf never reaches a row maximum, so the minimum must catch it."""
    scores = np.arange(15.0).reshape(3, 5)
    scores[where] = bad
    before = scores.copy()
    with pytest.raises(ContractError, match="finite"):
        softmax_probs(scores)
    with pytest.raises(ContractError, match="finite"):
        softmax_probs(scores[where[0]])
    assert same_bits(scores, before)


def test_softmax_refuses_a_row_of_minus_inf():
    with pytest.raises(ContractError, match="finite"):
        softmax_probs(np.array([[0.0, 1.0], [-np.inf, -np.inf]]))


def test_weighted_cross_entropy_leaves_probs_untouched(rng):
    probs = softmax_probs(rng.standard_normal((5, 5)))
    before = probs.copy()
    lv = weighted_cross_entropy(probs, slow.label_table(soft_label_weights(rng, 5, 3)))
    assert same_bits(probs, before)
    assert not np.shares_memory(lv.grads["scores"], probs)


def test_weighted_cross_entropy_refuses_a_mismatched_out(rng):
    probs = softmax_probs(rng.standard_normal((5, 5)))
    labels = slow.label_table(soft_label_weights(rng, 5, 3))
    for bad in (np.zeros((5, 4)), np.zeros((5, 5), dtype=np.float32)):
        with pytest.raises(ContractError, match="out"):
            weighted_cross_entropy(probs, labels, out=bad)


def sgd_case(rng):
    model = init_model(4, 5, 3, rng)
    head = init_head(3, 6, rng)
    return model, head


def gradients(rng, model, head, names):
    params = {**model.params(), **head.params()}
    return {n: rng.standard_normal(params[n].shape) * float(rng.choice([1e-3, 1.0, 1e3]))
            for n in names}


def copies(model, head, state):
    return ({n: a.copy() for n, a in {**model.params(), **head.params()}.items()},
            {n: a.copy() for n, a in state.velocities.items()})


@SETTINGS
@given(seed=seeds, momentum=st.sampled_from([0.0, 0.5, 0.9]), loaded=st.booleans())
def test_three_sgd_steps_match_allocating_update(seed, momentum, loaded):
    """Parameters and velocities after each of three steps, across the
    learning-rate decay, from empty or loaded velocities and with a
    parameter that joins late."""
    rng = np.random.default_rng(seed)
    model, head = sgd_case(rng)
    ref_model, ref_head = sgd_case(np.random.default_rng(seed))
    opt = Optimizer(momentum=momentum, decay_epoch=2)
    state, ref_state = OptimizerState(), OptimizerState()
    if loaded:
        state.velocities["W1"] = rng.standard_normal(model.W1.shape)
        ref_state.velocities["W1"] = state.velocities["W1"].copy()
    for epoch, names in ((1, ("W1", "b2", "Wc")), (2, ("W1", "b2", "Wc", "bc")), (3, ("b2", "bc"))):
        grads = gradients(rng, model, head, names)
        sgd_step(model, head, {n: g.copy() for n, g in grads.items()}, opt, state, epoch)
        slow.sgd_step(ref_model, ref_head, grads, opt, ref_state, epoch)
        assert same_dicts({**model.params(), **head.params()},
                          {**ref_model.params(), **ref_head.params()})
        assert same_dicts(state.velocities, ref_state.velocities)


def test_refused_sgd_step_changes_no_parameter_or_velocity(rng):
    model, head = sgd_case(rng)
    state = OptimizerState()
    sgd_step(model, head, gradients(rng, model, head, ("W1", "Wc")), Optimizer(), state, 1)
    params, velocities = copies(model, head, state)
    grads = gradients(rng, model, head, ("W1", "b1", "Wc"))
    grads["Wc"][2, 1] = np.nan  # the last parameter named
    with pytest.raises(TrainingError, match="Wc"):
        sgd_step(model, head, grads, Optimizer(), state, 1)
    assert same_dicts({**model.params(), **head.params()}, params)
    assert same_dicts(state.velocities, velocities)
    # Finite gradients whose update overflows in b2, named after W1.
    overflow = {"W1": np.ones_like(model.W1), "b2": np.full(3, 1e308)}
    with pytest.raises(TrainingError, match="b2"), np.errstate(over="ignore"):
        sgd_step(model, head, overflow, Optimizer(learning_rate_pretrained=10.0), state, 1)
    assert same_dicts({**model.params(), **head.params()}, params)
    assert same_dicts(state.velocities, velocities)


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_gradient_never_becomes_a_velocity(rng, momentum):
    model, head = sgd_case(rng)
    state = OptimizerState()
    opt = Optimizer(momentum=momentum)
    grads = gradients(rng, model, head, ("b2", "Wc"))
    sgd_step(model, head, grads, opt, state, 1)
    velocities = copies(model, head, state)[1]
    for g in grads.values():
        g[...] = 7.0
    assert same_dicts(state.velocities, velocities)
    held = state.velocities["Wc"]
    sgd_step(model, head, gradients(rng, model, head, ("Wc",)), opt, state, 1)
    assert state.velocities["Wc"] is held  # updated in place, as sgd_step documents
    assert not same_bits(held, velocities["Wc"])


terms = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 0.1, 3e-300])


@SETTINGS
@given(seed=seeds, data=st.data())
def test_flat_row_scatter_matches_2d_add_at(seed, data):
    """Repeated rows gain their terms in the same order, so sums that
    depend on the order (1e16 + 1 - 1e16) and signed zeros agree."""
    rng = np.random.default_rng(seed)
    n, d, A = int(rng.integers(1, 8)), int(rng.integers(1, 5)), int(rng.integers(0, 30))
    rows = rng.integers(0, n, size=A)
    values = np.array(data.draw(st.lists(terms, min_size=A * d, max_size=A * d))).reshape(A, d)
    out = np.where(rng.random((n, d)) < 0.5, -0.0, rng.standard_normal((n, d)))
    want = out.copy()
    slow.add_rows(want, rows, values)
    add_rows(out, rows, values)
    assert same_bits(out, want)


def test_flat_row_scatter_refuses_a_strided_output():
    out = np.zeros((3, 4)).T
    with pytest.raises(ContractError, match="C-contiguous"):
        add_rows(out, np.array([0, 0]), np.ones((2, 3)))
    assert not out.any()


@pytest.mark.parametrize("loss", ["intra", "random"])
def test_triplet_losses_take_a_strided_batch(loss, rng):
    """A batch whose embeddings are a transposed view, so that its flat
    (n, d) rows are not C-contiguous, gives the loss and gradient bits of
    its contiguous copy."""
    P, K, d = 4, 3, 5
    strided = rng.standard_normal((d, P, K)).transpose(1, 2, 0)
    classes = np.arange(P)
    assert not strided.reshape(P * K, d).flags.c_contiguous

    def run(embeddings):
        batch = TripletBatch(embeddings, classes)
        if loss == "intra":
            return intra_triplet_loss(batch, 5.0)
        return random_triplet_loss(batch, 5.0,
                                   slow.mining_places(np.repeat(classes, K), np.random.default_rng(3)))

    got, want = run(strided), run(np.ascontiguousarray(strided))
    assert want.counters["active_triplets"] > 0
    assert got.loss == want.loss and got.counters == want.counters
    assert same_bits(got.grads["embeddings"], want.grads["embeddings"])
