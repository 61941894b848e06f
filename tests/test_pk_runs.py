"""The PK batches of an epoch plan give the bits of one pk_sampler call
per camera, and train plans every epoch.

crosscam.plan.plan_epoch draws an epoch's PK batches (with no other
draws here) in one generator call, ends its iterations before drawing at
the first camera it could not decode, and pk_sampler maps its values;
from there on pk_sampler draws one camera at a time.  The tests compare
classes, sample indices and the generator state afterwards (PCG64's
buffered half word included) with one call per camera, on PCG64 and
MT19937, and count the fallback draws, so that each case is known to
take the path it is meant to: plans that settle in full, plans whose
first batch holds persons with at most n_k samples (whose bound-1 draws
read no word, which the plan counts), cameras with fewer than n_p
persons partway through an epoch (numpy draws those through
permutation), n_p equal to a camera's person count (Floyd's first person
draw reads no word), a slot word that Lemire's method rejects (written
into an MT19937 stream by hand) and numpy's tail-shuffle branch.  Every
plan settles all the iterations its stop rule leaves it but for a
rejected word.  The trainer tests train each schedule twice, once with
the plan taken out (every draw one iteration at a time), on a corpus of
4-sample persons and on one thinned to 1-4 samples per person, and count
pk_sampler calls and fallback draws per epoch.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slow_references as slow
from crosscam import Dataset, PersonIndex, TrainConfig, train, trainer
from crosscam.draws import settled_rows
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
    """One pk_sampler call per camera, stacked on a leading axis."""
    batches = [pk_sampler(dataset, int(c), n_p, n_k, rng) for c in cameras]
    return PKBatch(np.array([b.sample_indices for b in batches]).reshape(-1, n_p, n_k),
                   np.array([b.classes for b in batches]).reshape(-1, n_p))


def run_and_fallbacks(dataset, cams, n_p, n_k, rng):
    """The batches of a PK-only epoch plan over cams, pk_sampler drawing
    those after its last settled iteration, and how many it drew."""
    plan = plan_epoch(rng, dataset, cams, n_p, n_k)
    batches = [pk_sampler(dataset, int(c), n_p, n_k, rng, plan[i].pk if i < len(plan) else None)
               for i, c in enumerate(cams)]
    return PKBatch(np.array([b.sample_indices for b in batches]).reshape(-1, n_p, n_k),
                   np.array([b.classes for b in batches]).reshape(-1, n_p)), len(cams) - len(plan)


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
    """The epochs of pk_case: nothing falls back before the first camera
    with fewer than n_p persons, and every batch from there on."""
    rng = np.random.default_rng(seed)
    ds, cams, n_p, n_k = pk_case(rng, case)
    ref, got = twin_generators(bit_generator, int(rng.integers(2**31)), int(rng.integers(0, 4)))

    want = per_camera(ds, cams, n_p, n_k, ref)
    out, fallbacks = run_and_fallbacks(ds, cams, n_p, n_k, got)
    assert state(got) == state(ref)
    assert_same_run(out, want)
    short = [i for i, c in enumerate(cams) if ds.index.counts[c] < n_p]
    assert fallbacks == (len(cams) - short[0] if short else 0)
    if case in ("settles", "first"):
        assert fallbacks == 0


@pytest.mark.parametrize("case", ["mixed", "first", "thinned"])
def test_batched_calls_settle_every_row_they_are_given(tiny_train, case):
    # PCG64 on fixed seeds, so that no word is rejected: each plan settles
    # every iteration up to its first camera with fewer than n_p persons,
    # whichever persons it chooses.
    thin = thinned(tiny_train)
    planned = 0
    for seed in range(30):
        ds, cams, n_p, n_k = ((thin, [0, 1, 2] * 5, 6, 2) if case == "thinned"
                              else pk_case(np.random.default_rng(seed), case))
        short = [i for i, c in enumerate(cams) if ds.index.counts[c] < n_p]
        plan = plan_epoch(np.random.default_rng(seed), ds, cams, n_p, n_k)
        assert len(plan) == (short[0] if short else len(cams))
        planned += len(plan)
    assert planned


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
def test_rejected_slot_word_falls_back_from_its_batch(batch):
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
    out, fallbacks = run_and_fallbacks(ds, cams, 3, 4, got)
    assert state(got) == state(ref)
    assert_same_run(out, want)
    assert fallbacks == len(cams) - batch


def test_tail_shuffle_person_and_slot_draws_fall_back():
    # numpy shuffles a tail instead of running Floyd when pop > 10,000 and
    # size > pop // 50.  Camera 0's 10,001 persons, with n_p = 201, are
    # drawn that way; camera 1 holds a person of 10,001 samples, whose
    # slot draws with n_k = 201 are.  Camera 2 settles.
    counts = [10_001, 201, 250]
    samples = np.full(sum(counts), 201 + 1)
    samples[:counts[0]] = 1
    samples[counts[0] + 7] = 10_001
    ds = pk_dataset(np.random.default_rng(2), counts, samples)
    for cams, fallbacks_want in (([2, 2, 0, 2], 2), ([2, 1, 2], 2), ([2, 2], 0)):
        ref, got = twin_generators(np.random.PCG64, len(cams), 1)
        want = per_camera(ds, cams, 201, 201, ref)
        out, fallbacks = run_and_fallbacks(ds, cams, 201, 201, got)
        assert state(got) == state(ref)
        assert_same_run(out, want)
        assert fallbacks == fallbacks_want


@SETTINGS
@given(seed=seeds, bit_generator=bit_generators)
def test_settled_rows_with_any_number_of_follow_ups(seed, bit_generator):
    """settled_rows over rows with 0 to 7 follow-up draws each, some of
    bound 1 and some near 3 * 2**30 (a quarter of words rejected),
    followed by the per-row loop from the first unsettled row, gives the
    loop's draws and state."""
    rng = np.random.default_rng(seed)
    size, follow = int(rng.integers(1, 5)), int(rng.integers(0, 8))
    pops = rng.integers(1, 9, size=int(rng.integers(0, 12)))
    table = rng.choice([1, 2, 5, 3 * 2**30 - 7], p=[0.05, 0.45, 0.45, 0.05],
                       size=(pops.size, follow))
    then = lambda rows, c: table[rows]  # noqa: E731
    ref, got = twin_generators(bit_generator, int(rng.integers(2**31)), int(rng.integers(0, 4)))

    want_c, want_d = slow.choice_rows(ref, pops, size, then, follow)
    choices, drawn, settled = settled_rows(got, pops, size, then, follow)
    rest_c, rest_d = slow.choice_rows(got, pops[settled:], size,
                                      lambda rows, c: table[settled + rows], follow)
    assert state(got) == state(ref)
    assert np.concatenate([choices, rest_c]).tolist() == want_c.tolist()
    assert np.concatenate([drawn, rest_d]).tolist() == want_d.tolist()


@SETTINGS
@given(seed=seeds, bit_generator=bit_generators)
def test_plan_pk_draws_match_their_loop(seed, bit_generator):
    """A PK-only plan over one camera per row, followed by this loop from
    its first unsettled row, gives the loop's choices and state; the rows
    settle up to the first short one (pops[r] < size), whatever the
    member populations, one-sample members and members of at most
    sub_size included:

        for r in range(R):
            c[r] = rng.choice(pops[r], size, replace=False)
            for i, j in enumerate(c[r]):
                p = member_pops[first[r] + j]
                s[r, i] = rng.choice(p, size=sub_size, replace=p < sub_size)
    """
    rng = np.random.default_rng(seed)
    size, sub_size = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    pops = rng.integers(size, size + 4, size=int(rng.integers(1, 9)))
    if rng.random() < 0.3:
        pops[rng.integers(pops.size)] = rng.integers(1, size + 1)
    first = np.concatenate([[0], np.cumsum(pops)[:-1]]).astype(np.int64)
    member_pops = rng.integers(1 if rng.random() < 0.3 else sub_size + 1, sub_size + 4,
                               size=int(pops.sum()))
    ds = pk_dataset(rng, pops, member_pops)

    def loop(gen, rows):
        c = np.zeros((rows.size, size), dtype=np.int64)
        s = np.zeros((rows.size, size, sub_size), dtype=np.int64)
        for i, r in enumerate(rows.tolist()):
            c[i] = gen.choice(int(pops[r]), size, replace=False)
            for j, p in enumerate(member_pops[first[r] + c[i]].tolist()):
                s[i, j] = gen.choice(p, size=sub_size, replace=p < sub_size)
        return c, s

    ref, got = twin_generators(bit_generator, int(rng.integers(2**31)), int(rng.integers(0, 4)))
    short = np.flatnonzero(pops < size)
    end = int(short[0]) if short.size else pops.size
    want_c, want_s = loop(ref, np.arange(end))
    plan = plan_epoch(got, ds, list(range(pops.size)), size, sub_size)
    assert len(plan) == end
    rest_c, rest_s = loop(got, np.arange(len(plan), end))
    assert state(got) == state(ref)
    chosen = [(d.pk[0] - first[r]).tolist() for r, d in enumerate(plan)]
    assert chosen + rest_c.tolist() == want_c.tolist()

    def samples(c, s, offset):
        return [ds.class_samples((first[r] + cr)[:, None], sr).tolist()
                for r, cr, sr in zip(range(offset, end), c, s)]

    got = [d.pk[1].tolist() for d in plan] + samples(rest_c, rest_s, len(plan))
    assert got == samples(want_c, want_s, 0)


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


def no_plan(*args, **kwargs):
    """An epoch plan of no iterations: every draw one iteration at a time."""
    return []


@pytest.mark.parametrize("corpus", ["tiny", "thinned"])
@pytest.mark.parametrize("schedule", list(SCHEDULES))
def test_trainer_tripwire_against_one_call_per_camera(monkeypatch, tiny_train, schedule, corpus):
    """Each schedule trained with its epoch plans and with the plan taken
    out: the same log bytes, parameters, velocities, buffer and generator
    state.  On the tiny corpus (persons of 4 samples) the plans settle
    every iteration; thinned to 1-4 samples per person, they still do but
    in the D epochs with random positives, whose candidate rows mix
    one-sample persons with others."""
    ds = tiny_train if corpus == "tiny" else thinned(tiny_train)
    config = TrainConfig(hidden_dim=8, embed_dim=4, class_batch_total=12, seed=5,
                         **SCHEDULES[schedule])
    one_camera, calls = trainer._pk_draws, Counter()

    def counted(*args):
        calls["one camera"] += 1
        return one_camera(*args)

    with monkeypatch.context() as mp:
        mp.setattr(trainer, "_pk_draws", counted)
        got = train(ds, config)
    monkeypatch.setattr(trainer, "plan_epoch", no_plan)
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
    iters = -(-len(ds) // (config.n_p * config.n_k))
    if corpus == "thinned" and schedule == "warmup then C+D":
        assert 0 < calls["one camera"] <= (config.epochs - config.warmup_epochs) * iters
    else:
        assert calls["one camera"] == 0


def counted_calls(monkeypatch, dataset, config):
    """pk_sampler calls and the draws it made itself, per epoch of one
    training run."""
    calls, drew, epochs = [], [], []
    one_camera = trainer._pk_draws

    def counted(*args, **kwargs):
        calls.append(1)
        return pk_sampler(*args, **kwargs)

    def counted_draws(*args):
        drew.append(1)
        return one_camera(*args)

    monkeypatch.setattr(trainer, "pk_sampler", counted)
    monkeypatch.setattr(trainer, "_pk_draws", counted_draws)
    train(dataset, config, epoch_callback=lambda epoch, s: epochs.append((len(calls), len(drew))))
    return (np.diff([0] + [c for c, _ in epochs]).tolist(),
            np.diff([0] + [d for _, d in epochs]).tolist())


def test_pk_sampler_calls_per_epoch(monkeypatch, tiny_train):
    """One pk_sampler call per iteration in every epoch, warmup, joint,
    lam = 0 or random mining; it draws a batch itself only from the first
    iteration the plan does not settle, here from the first batch of the
    camera with fewer than n_p persons."""
    base = TrainConfig(n_p=6, n_k=2, epochs=4, warmup_epochs=2, decay_epoch=3, hidden_dim=8,
                       embed_dim=4, class_batch_total=12, seed=2)
    iters = -(-len(tiny_train) // 12)
    assert iters == 14
    assert counted_calls(monkeypatch, tiny_train, base) == ([iters] * 4, [0] * 4)
    lam0 = dataclasses.replace(base, lam=0.0)
    assert counted_calls(monkeypatch, tiny_train, lam0) == ([iters] * 4, [0] * 4)
    random = dataclasses.replace(lam0, mining_mode="random")
    assert counted_calls(monkeypatch, tiny_train, random) == ([iters] * 4, [0] * 4)
    # Persons of 1-4 samples, and (n_p = 12) a camera of 11 persons, third in the rotation.
    ds = thinned(tiny_train)
    thin_iters = -(-len(ds) // 12)
    assert counted_calls(monkeypatch, ds, lam0) == ([thin_iters] * 4, [0] * 4)
    short = dataclasses.replace(lam0, n_p=12)
    assert tiny_train.index.counts[2] == 11
    iters = -(-len(tiny_train) // 24)
    assert counted_calls(monkeypatch, tiny_train, short) == ([iters] * 4, [iters - 2] * 4)
