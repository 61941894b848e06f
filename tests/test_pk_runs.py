"""A run of PK batches drawn in one generator call gives the bits of one
pk_sampler call per camera, and train draws runs in the epochs that
draw nothing else.

pk_sampler given a run of cameras draws it through one
draws.nested_choices call, which ends the run before drawing at the
first batch it could not decode, and falls back to one call per camera
from there.  The tests compare classes, sample indices and the
generator state afterwards (PCG64's buffered half word included) with
one call per camera, on PCG64 and MT19937, and count the fallback
calls, so that each case is known to take the path it is meant to: runs
that settle in full, runs whose first batch cannot (persons with at most
n_k samples draw bound-1 draws, which read no word), cameras with fewer
than n_p persons partway through a run (numpy draws those through
permutation), n_p equal to a camera's person count (Floyd's first person
draw reads no word), a slot word that Lemire's method rejects (written
into an MT19937 stream by hand) and numpy's tail-shuffle branch.  Every
batched call settles all the rows it is given but for a rejected word.
The trainer tests train each schedule twice, once with one pk_sampler
call per camera patched in, on a corpus where runs settle and on one
thinned so that they stop at their first batch, and count pk_sampler
calls per epoch.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slow_references as slow
from crosscam import Dataset, PersonIndex, TrainConfig, draws, train, trainer
from crosscam.draws import _decodable, _draw_bounds, lemire, nested_choices, settled_rows
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
    """One pk_sampler call per camera of the run, stacked as a run is."""
    if np.ndim(cameras) == 0:
        return pk_sampler(dataset, cameras, n_p, n_k, rng)
    batches = [pk_sampler(dataset, int(c), n_p, n_k, rng) for c in cameras]
    return PKBatch(np.array([b.sample_indices for b in batches]).reshape(-1, n_p, n_k),
                   np.array([b.classes for b in batches]).reshape(-1, n_p))


def run_and_fallbacks(dataset, cams, n_p, n_k, rng):
    """pk_sampler's run and the number of batches it drew one camera at a time."""
    one_camera, calls = trainer._pk_batch, []

    def counted(*args):
        calls.append(1)
        return one_camera(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "_pk_batch", counted)
        return pk_sampler(dataset, cams, n_p, n_k, rng), len(calls)


def assert_same_run(got, want):
    assert got.sample_indices.shape == want.sample_indices.shape
    assert got.sample_indices.tolist() == want.sample_indices.tolist()
    assert got.classes.tolist() == want.classes.tolist()


def pk_case(rng, case):
    """(dataset, cameras, n_p, n_k) of a run.  "settles": every camera has
    at least n_p persons (one of them exactly n_p) and every person more
    than n_k samples.  "first": the run's first camera has only persons
    of 1 to n_k samples.  "short": a camera with fewer than n_p persons
    first comes partway through the run, the last camera.  "mixed":
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
    """The runs of pk_case: nothing falls back where they settle, every
    batch where the first camera cannot, and every batch from the short
    camera on."""
    rng = np.random.default_rng(seed)
    ds, cams, n_p, n_k = pk_case(rng, case)
    ref, got = twin_generators(bit_generator, int(rng.integers(2**31)), int(rng.integers(0, 4)))

    want = per_camera(ds, cams, n_p, n_k, ref)
    out, fallbacks = run_and_fallbacks(ds, cams, n_p, n_k, got)
    assert state(got) == state(ref)
    assert_same_run(out, want)
    short = ds.n_cameras - 1
    if case == "short" and short in cams:
        assert fallbacks == len(cams) - cams.index(short)
    elif case in ("settles", "short"):
        assert fallbacks == 0
    elif case == "first":
        assert fallbacks == len(cams)


def settled_rows_calls(monkeypatch):
    """(rows given, rows settled) of every draws.settled_rows call from now on."""
    calls, real = [], draws.settled_rows

    def recorded(rng, pops, *args):
        out = real(rng, pops, *args)
        calls.append((len(pops), out[2]))
        return out

    monkeypatch.setattr(draws, "settled_rows", recorded)
    return calls


@pytest.mark.parametrize("case", ["mixed", "first", "thinned"])
def test_batched_calls_settle_every_row_they_are_given(monkeypatch, tiny_train, case):
    # PCG64 on fixed seeds, so that no word is rejected: each batch a run
    # hands to a batched call settles, whichever persons it chooses.
    thin = thinned(tiny_train)
    calls = settled_rows_calls(monkeypatch)
    for seed in range(30):
        ds, cams, n_p, n_k = ((thin, [0, 1, 2] * 5, 6, 2) if case == "thinned"
                              else pk_case(np.random.default_rng(seed), case))
        pk_sampler(ds, cams, n_p, n_k, np.random.default_rng(seed))
    assert any(given for given, _ in calls)
    assert all(settled == given for given, settled in calls)


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
def test_nested_choices_match_their_loop(seed, bit_generator):
    """nested_choices' settled rows, followed by the loop of its docstring
    from there, give the loop's choices and state; the rows settle up to
    the first one the stop rule names (short, or holding a member of at
    most sub_size), but where a placeholder word is rejected."""
    rng = np.random.default_rng(seed)
    size, sub_size = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    pops = rng.integers(size, size + 4, size=int(rng.integers(0, 9)))
    if pops.size and rng.random() < 0.3:
        pops[rng.integers(pops.size)] = rng.integers(1, size + 1)
    first = np.concatenate([[0], np.cumsum(pops)[:-1]]).astype(np.int64)
    member_pops = rng.integers(1 if rng.random() < 0.3 else sub_size + 1, sub_size + 4,
                               size=int(pops.sum()))

    def loop(gen, rows):
        c = np.zeros((rows.size, size), dtype=np.int64)
        s = np.zeros((rows.size, size, sub_size), dtype=np.int64)
        for i, r in enumerate(rows.tolist()):
            c[i] = gen.choice(int(pops[r]), size, replace=False)
            for j, p in enumerate(member_pops[first[r] + c[i]].tolist()):
                s[i, j] = gen.choice(p, size=sub_size, replace=p < sub_size)
        return c, s

    twins = int(rng.integers(2**31)), int(rng.integers(0, 4))
    ref, got = twin_generators(bit_generator, *twins)
    stop = [pops[r] < size or not _decodable(member_pops[first[r]:first[r] + pops[r]],
                                              sub_size).all() for r in range(pops.size)]
    end = stop.index(True) if any(stop) else pops.size
    want_c, want_s = loop(ref, np.arange(end))
    chosen, subs, settled = nested_choices(got, pops, size, first, member_pops, sub_size)
    rest_c, rest_s = loop(got, np.arange(settled, end))
    assert state(got) == state(ref)
    assert np.concatenate([chosen, rest_c]).tolist() == want_c.tolist()
    assert np.concatenate([subs, rest_s]).tolist() == want_s.tolist()
    if settled < end:  # then row settled's slot words hold a rejected one
        probe, _ = twin_generators(bit_generator, *twins)
        loop(probe, np.arange(settled))
        c = probe.choice(int(pops[settled]), size, replace=False)
        bounds = _draw_bounds(member_pops[first[settled] + c], sub_size, 0).reshape(-1)
        assert not lemire(probe.integers(np.full(bounds.size, 2**32)), bounds)[1].all()


SCHEDULES = {
    # 4 batched warmup epochs, then C+D epochs drawn one batch at a time.
    "warmup then C+D": dict(n_p=2, n_k=2, epochs=6, warmup_epochs=4, decay_epoch=5,
                            inter_mode="C+D"),
    # Every epoch batched; the 11-person camera, third in the rotation, has n_p persons.
    "lam = 0": dict(n_p=11, n_k=2, epochs=5, warmup_epochs=2, decay_epoch=4, lam=0.0),
    "random mining": dict(n_p=4, n_k=2, epochs=4, warmup_epochs=4, decay_epoch=3,
                          lam=0.0, mining_mode="random"),
}


@pytest.mark.parametrize("corpus", ["tiny", "thinned"])
@pytest.mark.parametrize("schedule", list(SCHEDULES))
def test_trainer_tripwire_against_one_call_per_camera(monkeypatch, tiny_train, schedule, corpus):
    """On the tiny corpus (persons of 4 samples) the hard-mining schedules
    draw their warmup and lam = 0 epochs as runs; thinned to 1-4 samples
    per person, those runs stop at their first batch, so every batch is
    drawn one camera at a time.  Either way: the same log bytes,
    parameters, velocities, buffer and generator state as one call per
    camera."""
    ds = tiny_train if corpus == "tiny" else thinned(tiny_train)
    config = TrainConfig(hidden_dim=8, embed_dim=4, class_batch_total=12, seed=5,
                         **SCHEDULES[schedule])
    one_camera, calls = trainer._pk_batch, Counter()

    def counted(*args):
        calls["one camera"] += 1
        return one_camera(*args)

    with monkeypatch.context() as mp:
        mp.setattr(trainer, "_pk_batch", counted)
        got = train(ds, config)
    monkeypatch.setattr(trainer, "pk_sampler", per_camera)
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
    one_camera_epochs = {"warmup then C+D": config.epochs - config.warmup_epochs,
                         "lam = 0": 0, "random mining": config.epochs}[schedule]
    if corpus == "thinned":
        one_camera_epochs = config.epochs
    assert calls["one camera"] == one_camera_epochs * iters


def counted_calls(monkeypatch, dataset, config):
    """pk_sampler calls per epoch of one training run, and its log."""
    calls, epochs = [], []

    def counted(*args):
        calls.append(1)
        return pk_sampler(*args)

    monkeypatch.setattr(trainer, "pk_sampler", counted)
    state_ = train(dataset, config, epoch_callback=lambda epoch, s: epochs.append(len(calls)))
    return np.diff([0] + epochs).tolist(), state_.log.to_json()


def test_pk_sampler_calls_per_epoch(monkeypatch, tiny_train):
    """One call per batched epoch (every hard-mining warmup epoch, every
    hard-mining epoch with lam = 0), whether or not its run settles, and
    one per iteration otherwise (joint C+D epochs, random mining)."""
    base = TrainConfig(n_p=6, n_k=2, epochs=4, warmup_epochs=2, decay_epoch=3, hidden_dim=8,
                       embed_dim=4, class_batch_total=12, seed=2)
    iters = -(-len(tiny_train) // 12)
    assert iters == 14
    assert counted_calls(monkeypatch, tiny_train, base)[0] == [1, 1, iters, iters]
    lam0 = dataclasses.replace(base, lam=0.0)
    assert counted_calls(monkeypatch, tiny_train, lam0)[0] == [1, 1, 1, 1]
    random = dataclasses.replace(lam0, mining_mode="random")
    assert counted_calls(monkeypatch, tiny_train, random)[0] == [iters] * 4
    # Persons of 1-4 samples, and (n_p = 12) a camera of 11 persons.
    ds = thinned(tiny_train)
    assert counted_calls(monkeypatch, ds, lam0)[0] == [1, 1, 1, 1]
    assert counted_calls(monkeypatch, ds, base)[0] == [1, 1] + [-(-len(ds) // 12)] * 2
    short = dataclasses.replace(lam0, n_p=12)
    assert counted_calls(monkeypatch, tiny_train, short)[0] == [1, 1, 1, 1]
