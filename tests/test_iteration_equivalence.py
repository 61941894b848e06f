"""The intra-camera iteration gives the bits of its allocating and per-row
forms, and a refused iteration leaves the state it found.

tests/slow_references.py keeps the forms the package ran before: the
batch-hard triplet loss with a square root of every distance as a new
array, a same-person mask, both masked copies and one scatter per triplet
end; the buffer update with one update_person call per person; the PK
draw with one Generator.choice call per person; the momentum update that
makes each velocity anew; and the weighted triplet loss's negative
distances as a 1-d dot per row.  Each test compares results as bytes, so
signed zeros and NaN payloads count.  The tripwire at the end trains a
few warmup and joint epochs through both forms and compares the whole
run, so that a change of float order anywhere in an iteration fails here
in seconds.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slow_references as slow
from crosscam import (
    Dataset,
    TrainConfig,
    TrainingError,
    TripletBatch,
    intra_triplet_loss,
    losses,
    new_buffer,
    train,
    update_person,
    weighted_triplet_loss,
)
from crosscam import trainer
from crosscam.draws import choice_rows
from crosscam.losses import LossValue, _row_lengths
from slow_references import same_bits
from test_batched_equivalence import points

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)
seeds = st.integers(min_value=0, max_value=2**31)


def plain(v):
    """A generator state with its arrays as lists, so states compare with ==."""
    if isinstance(v, dict):
        return {k: plain(x) for k, x in v.items()}
    return v.tolist() if isinstance(v, np.ndarray) else v


@SETTINGS
@given(seed=seeds, margin=st.sampled_from([0.0, 0.3, 4.0]),
       case=st.sampled_from(["grid", "coinciding", "nan", "far", "strided"]))
def test_intra_triplet_loss_matches_allocating_loss(seed, margin, case):
    """Repeated persons (a camera with fewer than n_p persons), coinciding
    embeddings and exact distance ties (a coarse grid), a NaN hinge, every
    negative of some anchors at +inf (the argmin then lands on a
    same-person entry, whose distance must be the one read), a strided
    batch and margin 0."""
    rng = np.random.default_rng(seed)
    n_p, n_k, d = int(rng.integers(2, 10)), int(rng.integers(2, 6)), int(rng.integers(1, 8))
    classes = rng.integers(0, max(2, n_p - 1), size=n_p)
    classes[:2] = [0, 1]
    emb = points(rng, (n_p, n_k, d))
    if case == "coinciding":
        emb[rng.random((n_p, n_k)) < 0.5] = emb[0, 0]
    elif case == "nan":
        emb[rng.integers(n_p), rng.integers(n_k), rng.integers(d)] = np.nan
    elif case == "far":
        emb[classes != classes[0]] += 1e200  # squared norms overflow: +inf or NaN distances
    elif case == "strided":
        emb = np.ascontiguousarray(emb.transpose(2, 0, 1)).transpose(1, 2, 0)
    batch = TripletBatch(emb, classes)
    with np.errstate(over="ignore", invalid="ignore"):
        got = intra_triplet_loss(batch, margin)
        loss, grad, counters = slow.intra_triplet_loss(batch, margin)
    assert same_bits(got.loss, loss)
    assert same_bits(got.grads["embeddings"], grad)
    assert got.counters == counters


@SETTINGS
@given(seed=seeds)
def test_update_buffer_matches_per_person_calls_with_distinct_and_repeated_persons(seed):
    """Every case updates with a batch of distinct persons (one
    update_person call) and one that repeats a person (one call per
    count of rows per person), over columns some of
    which are already seen, with -0.0 among the features.  This extends
    test_draws_equivalence.py's test_update_buffer_matches_per_person_calls,
    whose random draw of classes may give either kind or both."""
    rng = np.random.default_rng(seed)
    C, d = int(rng.integers(3, 12)), int(rng.integers(1, 9))
    n_p, n_k = int(rng.integers(2, C + 1)), int(rng.integers(1, 5))
    want, got = new_buffer(d, C), new_buffer(d, C)
    for c in np.flatnonzero(rng.random(C) < 0.5):
        f = points(rng, (1, 2, d))
        update_person(want, [c], f)
        update_person(got, [c], f)
    distinct = rng.permutation(C)[:n_p]
    repeated = rng.integers(0, C, size=n_p)
    repeated[-1] = repeated[0]
    calls = []
    for step, classes in enumerate((distinct, repeated), start=1):
        embeddings = points(rng, (n_p, n_k, d))
        embeddings[rng.random((n_p, n_k, d)) < 0.2] = -0.0
        slow.update_buffer(want, embeddings, classes)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer, "update_person", lambda *a: calls.append(step) or update_person(*a))
            trainer._update_buffer(got, TripletBatch(embeddings, classes))
        assert same_bits(got.P, want.P)
        assert got.initialized.tolist() == want.initialized.tolist()
        assert got.t == step
    assert calls.count(1) == 1
    rows_per_person = np.unique(np.unique(repeated, return_counts=True)[1])
    assert calls.count(2) == rows_per_person.size


@SETTINGS
@given(seed=seeds, scale=st.sampled_from([1.0, 1e-5, 1e4, 1e-170, 1e160]))
def test_row_lengths_match_row_dots(seed, scale):
    """The weighted triplet loss's negative distances: zero rows, one row,
    and values whose squares underflow or overflow."""
    rng = np.random.default_rng(seed)
    A, d = int(rng.choice([1, int(rng.integers(1, 200))])), int(rng.integers(1, 70))
    x = rng.standard_normal((A, d)) * scale * 10.0 ** rng.uniform(-2, 2, size=(A, 1))
    x[rng.random(A) < 0.2] = 0.0
    with np.errstate(over="ignore", under="ignore"):
        assert same_bits(_row_lengths(x), slow.weighted_triplet_negative_distances(x))
        anchor, negative = x, np.zeros_like(x)  # anchor - negative is x itself
        positives = np.repeat(x[:, None, :], 2, axis=1) * 3.0
        got = weighted_triplet_loss(anchor, positives, np.full((A, 2), 0.5), negative, 1.0)
        want = [slow.weighted_triplet_loss(anchor[a], positives[a], np.full(2, 0.5), negative[a], 1.0)
                for a in range(A)]
    assert same_bits(got.grads["negative"], np.stack([w[3] for w in want]))


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
def test_choice_rows_without_follow_ups_reject_as_numpy_does(bit_generator):
    """Without follow-up draws every choice draw goes through one
    Generator.integers call; bounds near 3 * 2**30 reject about a quarter
    of all words, and rows in numpy's tail-shuffle branch take the loop."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 5))
        pops = rng.integers(3 * 2**30 - 50, 3 * 2**30, size=int(rng.integers(1, 12)))
        pops[rng.random(pops.size) < 0.3] = rng.integers(1, 4)
        if seed % 10 == 0:
            size, pops = 201, np.array([3, 10_001, 250, 10_001])  # the second row is a tail shuffle
        ref, got = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        for g in (ref, got):
            g.integers(0, 2**32, size=seed % 3, dtype=np.uint32)
        want, _ = slow.choice_rows(ref, pops, size)
        out, follow = choice_rows(got, pops, size)
        assert plain(got.bit_generator.state) == plain(ref.bit_generator.state)
        assert out.tolist() == want.tolist() and follow is None


def snapshot(state) -> dict:
    return {
        **{f"param.{k}": a.copy() for k, a in {**state.model.params(), **state.head.params()}.items()},
        **{f"velocity.{k}": a.copy() for k, a in state.opt_state.velocities.items()},
        "buffer.P": state.buffer.P.copy(),
        "buffer.initialized": state.buffer.initialized.copy(),
        "buffer.t": np.array(state.buffer.t),
    }


@pytest.mark.parametrize("fault", ["loss", "update"])
def test_refused_iteration_leaves_the_last_completed_state(monkeypatch, tiny_train, fault):
    """A TrainingError inside train leaves the model, head, velocities and
    buffer as the last completed iteration left them.  "loss": a body
    learning rate of 1e4 diverges until the intra loss is non-finite.
    "update": in a joint iteration, the real sgd_step gets a b2 gradient
    of 1e308 at a body learning rate of 10, so b2's update overflows after
    W1, b1 and W2 have been computed."""
    config = TrainConfig(n_p=4, n_k=2, epochs=4, warmup_epochs=2, decay_epoch=4, hidden_dim=8,
                         embed_dim=4, class_batch_total=12, inter_mode="C+D", seed=3,
                         learning_rate_pretrained=1e4 if fault == "loss" else 0.1)
    seen = []
    intra_step = trainer._intra_step

    def recording_intra_step(state, *args):
        seen[:] = [state, snapshot(state)]  # the state the last iteration left
        return intra_step(state, *args)

    monkeypatch.setattr(trainer, "_intra_step", recording_intra_step)
    if fault == "update":
        sgd_step, calls = trainer.sgd_step, []

        def overflowing_sgd_step(model, head, grads, optimizer, *rest):
            calls.append(1)
            if len(calls) == 45:  # epoch 3, the first joint one, of 20 iterations each
                assert list(grads)[:4] == ["W1", "b1", "W2", "b2"] and "Wc" in grads
                grads = {**grads, "b2": np.full_like(grads["b2"], 1e308)}
                optimizer = dataclasses.replace(optimizer, learning_rate_pretrained=10.0)
            return sgd_step(model, head, grads, optimizer, *rest)

        monkeypatch.setattr(trainer, "sgd_step", overflowing_sgd_step)
    match = "intra loss at epoch 2" if fault == "loss" else "parameter 'b2' after update"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingError, match=match):
        train(tiny_train, config)
    state, before = seen
    after = snapshot(state)
    assert after.keys() == before.keys() and ("velocity.Wc" in before) == (fault == "update")
    assert all(same_bits(after[k], before[k]) for k in before)


def thinned(tiny_train):
    """The tiny corpus with 50 samples dropped, every person keeping 1-4 of its 4."""
    members, starts = tiny_train.class_members()
    dropped = np.random.default_rng(0).permutation(len(tiny_train))[:50]
    kept = np.union1d(np.setdiff1d(np.arange(len(tiny_train)), dropped),
                      members[starts[:-1]])  # every person keeps a sample
    ds = Dataset(tiny_train.features[kept], tiny_train.camera_ids[kept],
                 tiny_train.local_ids[kept], tiny_train.truth[kept], tiny_train.n_cameras, "train")
    assert set(np.diff(ds.class_members()[1]).tolist()) == {1, 2, 3, 4}
    return ds


def test_iteration_tripwire_against_slow_references(monkeypatch, tiny_train):
    """A few warmup and joint epochs of C+D training, once through the
    package and once with the slow references in place of the intra loss,
    the buffer update, the per-row draws (with no epoch plan, so every
    draw goes through them) and the momentum update: the same log bytes,
    parameters, velocities, buffer and generator state.
    The cameras hold 16, 13 and 11 persons, so n_p = 13 puts repeated
    persons in every batch of the last one and distinct ones in the
    others.  Persons keep 1-4 of their 4 samples, so n_k = 4 draws some
    with replacement, and a soft-triplet positive with one sample sends
    the rest of its batch to the per-row loop."""
    ds = thinned(tiny_train)
    config = TrainConfig(n_p=13, n_k=4, epochs=7, warmup_epochs=4, decay_epoch=6, hidden_dim=8,
                         embed_dim=4, class_batch_total=12, inter_mode="C+D", seed=5)
    got = train(ds, config)

    def allocating_intra_loss(batch, margin):
        loss, grad, counters = slow.intra_triplet_loss(batch, margin)
        return LossValue(loss, {"embeddings": grad}, counters)

    def per_person_buffer_update(buf, tb):
        slow.update_buffer(buf, tb.embeddings, tb.classes)
        buf.t += 1

    monkeypatch.setattr(trainer, "intra_triplet_loss", allocating_intra_loss)
    monkeypatch.setattr(trainer, "_update_buffer", per_person_buffer_update)
    monkeypatch.setattr(trainer, "choice_rows", slow.choice_rows)
    monkeypatch.setattr(losses, "choice_rows", slow.choice_rows)
    monkeypatch.setattr(trainer, "sgd_step", slow.sgd_step)
    monkeypatch.setattr(trainer, "plan_epoch", lambda *args, **kwargs: [])
    want = train(ds, config)
    assert got.log.to_json() == want.log.to_json()
    assert any(r.inter_loss for r in got.log.records)
    for name in ("model", "head"):
        a, b = getattr(got, name).params(), getattr(want, name).params()
        assert a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)
    a, b = got.opt_state.velocities, want.opt_state.velocities
    assert a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)
    assert same_bits(got.buffer.P, want.buffer.P) and got.buffer.t == want.buffer.t
    assert got.buffer.initialized.tolist() == want.buffer.initialized.tolist()
    assert plain(got.rng.bit_generator.state) == plain(want.rng.bit_generator.state)
