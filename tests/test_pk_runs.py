"""The PK batches of an epoch plan give the bits of one numpy call per
person of each camera, and train plans every epoch.

crosscam.plan.plan_epoch draws an epoch's PK batches (with no other
draws here) in one generator call, and pk_sampler maps its values.  The
tests compare classes, sample indices and the generator state afterwards
(PCG64's buffered half word included) with slow_references' per-camera
calls, on PCG64 and MT19937: plans whose first batch holds persons with
at most n_k samples (whose bound-1 draws read no word, which the plan
counts), cameras with fewer than n_p persons partway through an epoch
(numpy draws those through permutation), n_p equal to a camera's person
count (Floyd's first person draw reads no word), a slot word that
Lemire's method rejects (written into an MT19937 stream by hand) and
numpy's tail-shuffle branch.  The trainer tests train each schedule
twice, once with slow_references.plan_epoch (one numpy call per draw) in
place of the plan, on a corpus of 4-sample persons and on one thinned to
1-4 samples per person, and count pk_sampler calls per epoch.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slow_references as slow
from crosscam import Dataset, PersonIndex, TrainConfig, train, trainer
from crosscam.plan import plan_epoch
from crosscam.trainer import PKBatch, pk_sampler
from slow_references import same_bits
from test_draws_equivalence import state, twin_generators
from test_iteration_equivalence import thinned

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)
seeds = st.integers(min_value=0, max_value=2**31)
bit_generators = st.sampled_from([np.random.PCG64, np.random.MT19937])


def pk_dataset(rng, counts, samples):
    """Cameras of counts persons, class c with samples[c] samples, in shuffled file order."""
    index = PersonIndex(tuple(int(c) for c in counts))
    classes = rng.permutation(np.repeat(np.arange(index.total), samples))
    cams = index.camera_of_class_array()[classes]
    local = classes - np.asarray(index.offsets)[cams]
    return Dataset(rng.standard_normal((classes.size, 2)), cams, local,
                   np.full(classes.size, -1), len(counts), "train")


def per_camera(dataset, cameras, n_p, n_k, rng):
    """One numpy PK batch per camera, stacked on a leading axis."""
    batches = [slow.pk_sampler(dataset, int(c), n_p, n_k, rng) for c in cameras]
    return PKBatch(np.array([p for p, _ in batches]).reshape(-1, n_p, n_k),
                   np.array([c for _, c in batches]).reshape(-1, n_p))


def planned_run(dataset, cams, n_p, n_k, rng):
    """The batches of a PK-only epoch plan over cams, through pk_sampler;
    the plan gives every iteration."""
    plan = plan_epoch(rng, dataset, cams, n_p, n_k)
    assert len(plan) == len(cams)
    batches = [pk_sampler(dataset, int(c), *drawn.pk) for c, drawn in zip(cams, plan)]
    return PKBatch(np.array([b.sample_indices for b in batches]).reshape(-1, n_p, n_k),
                   np.array([b.classes for b in batches]).reshape(-1, n_p))


def assert_same_run(got, want):
    assert got.sample_indices.shape == want.sample_indices.shape
    assert got.sample_indices.tolist() == want.sample_indices.tolist()
    assert got.classes.tolist() == want.classes.tolist()


def pk_case(rng, case):
    """(dataset, cameras, n_p, n_k) of an epoch.  "settles": every camera
    has at least n_p persons (one of them exactly n_p) and every person
    more than n_k samples.  "first": the first camera has only persons
    of 1 to n_k samples.  "short": a camera with fewer than n_p persons
    first comes partway through the epoch, the last camera.  "mixed":
    persons of 1 to n_k + 2 samples and cameras of 2 to n_p + 3 persons."""
    n_p, n_k = int(rng.integers(3 if case == "short" else 2, 7)), int(rng.integers(2, 5))
    n_cams = int(rng.integers(2, 5))
    counts = rng.integers(n_p, n_p + 4, size=n_cams)
    counts[rng.integers(n_cams)] = n_p
    if case == "short":
        counts[-1] = rng.integers(2, n_p)
    elif case == "mixed":
        counts = rng.integers(2, n_p + 4, size=n_cams)
    first = np.concatenate([[0], np.cumsum(counts)])
    samples = rng.integers(n_k + 1, n_k + 3, size=first[-1])
    if case == "first":
        samples[first[0]:first[1]] = rng.integers(1, n_k + 1, size=counts[0])
    elif case == "mixed":
        samples = rng.integers(1, n_k + 3, size=first[-1])
    ds = pk_dataset(rng, counts, samples)
    cams = rng.integers(0, n_cams, size=int(rng.integers(0, 13))).tolist()
    if case == "first" and cams:
        cams[0] = 0
    if case == "short":
        cams = [c % (n_cams - 1) for c in cams]
        if len(cams) > 1:
            cams[int(rng.integers(1, len(cams)))] = n_cams - 1
    return ds, cams, n_p, n_k


@SETTINGS
@given(seed=seeds, bit_generator=bit_generators,
       case=st.sampled_from(["settles", "first", "short", "mixed"]))
def test_run_matches_one_call_per_camera(seed, bit_generator, case):
    """The epochs of pk_case, cameras with fewer than n_p persons included."""
    rng = np.random.default_rng(seed)
    ds, cams, n_p, n_k = pk_case(rng, case)
    ref, got = twin_generators(bit_generator, int(rng.integers(2**31)), int(rng.integers(0, 4)))

    want = per_camera(ds, cams, n_p, n_k, ref)
    out = planned_run(ds, cams, n_p, n_k, got)
    assert state(got) == state(ref)
    assert_same_run(out, want)


@pytest.mark.parametrize("case", ["mixed", "first", "thinned"])
def test_batched_calls_settle_every_row_they_are_given(tiny_train, case):
    # PCG64 on fixed seeds: each plan gives every iteration, cameras with
    # fewer than n_p persons included (the thinned corpus's camera of 11
    # persons with n_p = 12), as one numpy call per person.
    thin = thinned(tiny_train)
    short = 0
    for seed in range(30):
        ds, cams, n_p, n_k = ((thin, [0, 1, 2] * 5, 12, 2) if case == "thinned"
                              else pk_case(np.random.default_rng(seed), case))
        short += sum(ds.index.counts[c] < n_p for c in cams)
        ref, got = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_run(planned_run(ds, cams, n_p, n_k, got), per_camera(ds, cams, n_p, n_k, ref))
        assert state(got) == state(ref)
    assert short or case == "first"


def untemper(words):
    """MT19937 state words whose tempered outputs are words."""
    y = np.asarray(words, dtype=np.uint64)
    for shift, mask in ((18, None), (15, 0xEFC60000), (7, 0x9D2C5680), (11, None)):
        x = y
        for _ in range(32 // shift + 1):
            x = y ^ (x >> np.uint64(shift) if mask is None else (x << np.uint64(shift)) & np.uint64(mask))
        y = x & np.uint64(0xFFFFFFFF)
    return y.astype(np.uint32)


def generators_reading(words):
    """Two MT19937 generators whose next 624 32-bit words are words."""
    pair = []
    for _ in range(2):
        bits = np.random.MT19937(0)
        st_ = bits.state
        st_["state"]["key"], st_["state"]["pos"] = untemper(words), 0
        bits.state = st_
        pair.append(np.random.Generator(bits))
    return pair


@pytest.mark.parametrize("batch", [0, 1, 3])
def test_rejected_slot_word_is_skipped_in_its_batch(batch):
    # Cameras of 5, 6 and 7 persons with 6 samples each, n_p = 3, n_k = 4:
    # a batch reads 2 * 3 - 1 person words, then 3 * (2 * 4 - 1) slot
    # words.  Each person's first slot draw is in [0, 3), which rejects
    # word 0 (3 * 0 mod 2**32 < 2**32 mod 3 = 1).  The words are random
    # elsewhere, where a rejection has odds of about 2**-30.
    ds = pk_dataset(np.random.default_rng(1), [5, 6, 7], np.full(18, 6))
    words = np.random.default_rng(batch).integers(0, 2**32, size=624, dtype=np.uint64)
    per_batch = 5 + 21
    words[batch * per_batch + 5] = 0
    ref, got = generators_reading(words)
    cams = [0, 1, 2, 0, 1, 2]

    want = per_camera(ds, cams, 3, 4, ref)
    out = planned_run(ds, cams, 3, 4, got)
    assert state(got) == state(ref)
    assert_same_run(out, want)


def test_tail_shuffle_person_and_slot_draws_are_planned():
    # numpy shuffles a tail instead of running Floyd when pop > 10,000 and
    # size > pop // 50.  Camera 0's 10,001 persons, with n_p = 201, are
    # drawn that way; camera 1 holds a person of 10,001 samples, whose
    # slot draws with n_k = 201 are.  Camera 2 draws through Floyd.
    counts = [10_001, 201, 250]
    samples = np.full(sum(counts), 201 + 1)
    samples[:counts[0]] = 1
    samples[counts[0] + 7] = 10_001
    ds = pk_dataset(np.random.default_rng(2), counts, samples)
    for cams in ([2, 2, 0, 2], [2, 1, 2], [2, 2]):
        ref, got = twin_generators(np.random.PCG64, len(cams), 1)
        want = per_camera(ds, cams, 201, 201, ref)
        out = planned_run(ds, cams, 201, 201, got)
        assert state(got) == state(ref)
        assert_same_run(out, want)


@SETTINGS
@given(seed=seeds, bit_generator=bit_generators)
def test_plan_pk_draws_match_their_loop(seed, bit_generator):
    """A PK-only plan over one camera per row gives this loop's choices
    and state, whatever the member populations, one-sample members and
    members of at most sub_size included:

        for r in range(R):
            c[r] = rng.choice(pops[r], size, replace=False)
            for i, j in enumerate(c[r]):
                p = member_pops[first[r] + j]
                s[r, i] = rng.choice(p, size=sub_size, replace=p < sub_size)
    """
    rng = np.random.default_rng(seed)
    size, sub_size = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    pops = rng.integers(size, size + 4, size=int(rng.integers(1, 9)))
    first = np.concatenate([[0], np.cumsum(pops)[:-1]]).astype(np.int64)
    member_pops = rng.integers(1 if rng.random() < 0.3 else sub_size + 1, sub_size + 4,
                               size=int(pops.sum()))
    ds = pk_dataset(rng, pops, member_pops)

    def loop(gen):
        c = np.zeros((pops.size, size), dtype=np.int64)
        s = np.zeros((pops.size, size, sub_size), dtype=np.int64)
        for r in range(pops.size):
            c[r] = gen.choice(int(pops[r]), size, replace=False)
            for j, p in enumerate(member_pops[first[r] + c[r]].tolist()):
                s[r, j] = gen.choice(p, size=sub_size, replace=p < sub_size)
        return c, s

    ref, got = twin_generators(bit_generator, int(rng.integers(2**31)), int(rng.integers(0, 4)))
    want_c, want_s = loop(ref)
    plan = plan_epoch(got, ds, list(range(pops.size)), size, sub_size)
    assert len(plan) == pops.size
    assert state(got) == state(ref)
    assert [(d.pk[0] - first[r]).tolist() for r, d in enumerate(plan)] == want_c.tolist()
    want = ds.class_samples((first[:, None] + want_c)[..., None], want_s)
    assert [d.pk[1].tolist() for d in plan] == want.tolist()


SCHEDULES = {
    # 4 warmup epochs, then C+D epochs.
    "warmup then C+D": dict(n_p=2, n_k=2, epochs=6, warmup_epochs=4, decay_epoch=5,
                            inter_mode="C+D"),
    # The 11-person camera, third in the rotation, has n_p persons.
    "lam = 0": dict(n_p=11, n_k=2, epochs=5, warmup_epochs=2, decay_epoch=4, lam=0.0),
    "random mining": dict(n_p=4, n_k=2, epochs=4, warmup_epochs=4, decay_epoch=3,
                          lam=0.0, mining_mode="random"),
    # Random mining and both soft terms, with weighted nearest positives.
    "random mining C+D nearest W": dict(n_p=3, n_k=3, epochs=6, warmup_epochs=4, decay_epoch=5,
                                        inter_mode="C+D", mining_mode="random",
                                        positive_sampling="nearest", weighting_mode="W"),
}


@pytest.mark.parametrize("corpus", ["tiny", "thinned"])
@pytest.mark.parametrize("schedule", list(SCHEDULES))
def test_trainer_tripwire_against_one_call_per_camera(monkeypatch, tiny_train, schedule, corpus):
    """Each schedule trained with its epoch plans and with
    slow_references.plan_epoch, one numpy call per draw, in their place:
    the same log bytes, parameters, velocities, buffer and generator
    state.  Thinned to 1-4 samples per person, the D epochs with random
    positives hold candidate rows that mix one-sample persons with
    others."""
    ds = tiny_train if corpus == "tiny" else thinned(tiny_train)
    config = TrainConfig(hidden_dim=8, embed_dim=4, class_batch_total=12, seed=5,
                         **SCHEDULES[schedule])
    got = train(ds, config)
    monkeypatch.setattr(trainer, "plan_epoch", slow.plan_epoch)
    want = train(ds, config)
    assert got.log.to_json() == want.log.to_json()
    for name in ("model", "head"):
        a, b = getattr(got, name).params(), getattr(want, name).params()
        assert a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)
    a, b = got.opt_state.velocities, want.opt_state.velocities
    assert a.keys() == b.keys() and all(same_bits(a[k], b[k]) for k in a)
    assert same_bits(got.buffer.P, want.buffer.P) and got.buffer.t == want.buffer.t
    assert got.buffer.initialized.tolist() == want.buffer.initialized.tolist()
    assert state(got.rng) == state(want.rng)


def counted_calls(monkeypatch, dataset, config):
    """pk_sampler calls per epoch of one training run."""
    calls, epochs = [], []

    def counted(*args, **kwargs):
        calls.append(1)
        return pk_sampler(*args, **kwargs)

    monkeypatch.setattr(trainer, "pk_sampler", counted)
    train(dataset, config, epoch_callback=lambda epoch, s: epochs.append(len(calls)))
    return np.diff([0] + epochs).tolist()


def test_pk_sampler_calls_per_epoch(monkeypatch, tiny_train):
    """One pk_sampler call per iteration in every epoch, warmup, joint,
    lam = 0 or random mining, a camera with fewer than n_p persons
    included."""
    base = TrainConfig(n_p=6, n_k=2, epochs=4, warmup_epochs=2, decay_epoch=3, hidden_dim=8,
                       embed_dim=4, class_batch_total=12, seed=2)
    iters = -(-len(tiny_train) // 12)
    assert iters == 14
    assert counted_calls(monkeypatch, tiny_train, base) == [iters] * 4
    lam0 = dataclasses.replace(base, lam=0.0)
    assert counted_calls(monkeypatch, tiny_train, lam0) == [iters] * 4
    random = dataclasses.replace(lam0, mining_mode="random")
    assert counted_calls(monkeypatch, tiny_train, random) == [iters] * 4
    # Persons of 1-4 samples, and (n_p = 12) a camera of 11 persons, third in the rotation.
    ds = thinned(tiny_train)
    thin_iters = -(-len(ds) // 12)
    assert counted_calls(monkeypatch, ds, lam0) == [thin_iters] * 4
    short = dataclasses.replace(lam0, n_p=12)
    assert tiny_train.index.counts[2] == 11
    iters = -(-len(tiny_train) // 24)
    assert counted_calls(monkeypatch, tiny_train, short) == [iters] * 4
