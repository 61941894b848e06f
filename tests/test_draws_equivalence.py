"""Draws decoded from raw words, the screened hardest negative and the
batched buffer update give the bits of their per-row loops.

Each test runs the package's batched form and the loop in
tests/slow_references.py, which calls numpy's own Generator.choice and
Generator.integers, and compares picks, values, losses and the
generator state afterwards (PCG64's buffered half word included), on
PCG64 and MT19937.  The choice rows are decoded from raw words as the
epoch plans decode them (draws._draw_bounds, placed_draws and _picks, a
rejected word taken out of the stream).  Cases include populations
smaller than and equal to the draw size (Floyd's first draw then has
range 0 and reads nothing), an odd number of words already read, words
that Lemire's method rejects, rows in numpy's tail-shuffle branch,
cameras with fewer persons than a batch takes, repeated persons in a
batch, near-tied distances and distances whose expanded form overflows
or underflows.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slow_references as slow
from crosscam import ContractError, new_buffer, select_hardest_negative, update_person
from crosscam.draws import _draw_bounds, _picks, lemire, placed_draws, word_counts
from crosscam.affinity import squared_distances
from crosscam.losses import TripletBatch, _triplet_terms, random_triplet_loss
from crosscam.plan import plan_epoch
from crosscam.trainer import _update_buffer, pk_sampler
from slow_references import same_bits
from test_batched_equivalence import person_dataset, points

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)
seeds = st.integers(min_value=0, max_value=2**31)
bit_generators = st.sampled_from([np.random.PCG64, np.random.MT19937])


def state(rng):
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v
    return plain(rng.bit_generator.state)


def twin_generators(bit_generator, seed, skip):
    """Two generators in one state, skip 32-bit words into their stream."""
    pair = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
    for g in pair:
        g.integers(0, 2**32, size=skip, dtype=np.uint32)
    return pair


def decoded_choice_rows(rng, pops, size):
    """(R, size) choices of size from each of pops, decoded from raw words
    as epoch plans decode them, and the words Lemire's method rejected:
    each is taken out of the stream and the rows decoded again; rng ends
    past the words the rows read."""
    pops = np.asarray(pops, dtype=np.int64)
    bounds, tail = _draw_bounds(pops, size)
    counts = word_counts(bounds)
    snapshot = rng.bit_generator.state
    words = rng.integers(0, 2**32, size=int(counts.sum()), dtype=np.uint32)
    skipped = 0
    while True:
        values, rejected = placed_draws(words, np.cumsum(counts) - counts, bounds)
        if not rejected.size:
            break
        words = np.append(np.delete(words, rejected.min()), rng.integers(0, 2**32, dtype=np.uint32))
        skipped += 1
    rng.bit_generator.state = snapshot
    rng.integers(0, 2**32, size=int(counts.sum()) + skipped, dtype=np.uint32)
    return _picks(values, pops, size, tail), skipped


@SETTINGS
@given(seed=seeds, bit_generator=bit_generators)
def test_choice_rows_matches_real_calls(seed, bit_generator):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 7))
    pops = rng.integers(1, 11, size=int(rng.integers(0, 26)))
    pops[rng.random(pops.size) < 0.25] = size  # Floyd's first draw in [0, 0]
    ref, got = twin_generators(bit_generator, int(rng.integers(2**31)), int(rng.integers(0, 4)))

    want = slow.choice_rows(ref, pops, size)
    out, _ = decoded_choice_rows(got, pops, size)
    assert state(got) == state(ref)
    assert out.tolist() == want.tolist()


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
def test_choice_rows_with_rejected_words(bit_generator):
    # Populations near 3 * 2**30 reject about a quarter of all words.
    rejections = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        pops = rng.integers(3 * 2**30 - 50, 3 * 2**30, size=int(rng.integers(1, 12)))
        pops[0] = rng.integers(1, 4)
        ref, got = twin_generators(bit_generator, seed, seed % 3)
        want = slow.choice_rows(ref, pops, 3)
        out, skipped = decoded_choice_rows(got, pops, 3)
        assert state(got) == state(ref)
        assert out.tolist() == want.tolist()
        rejections += skipped
    assert rejections > 20  # the cases do reject words


@pytest.mark.parametrize("size", [199, 200, 201, 202])
def test_tail_shuffle_rows_are_exact(size):
    # numpy shuffles a tail instead of running Floyd when pop > 10,000 and
    # size > pop // 50: pop 10,001 switches between sizes 200 and 201.
    pops = np.array([3, 10_001, 250, 20_000, 10_001])
    ref, got = twin_generators(np.random.PCG64, size, 1)
    want = slow.choice_rows(ref, pops, size)
    out, _ = decoded_choice_rows(got, pops, size)
    assert state(got) == state(ref)
    assert out.tolist() == want.tolist()


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox,
                                           np.random.SFC64])
@pytest.mark.parametrize("skip", [0, 1])
@pytest.mark.parametrize("size", [0, 1, 7, 1001])
def test_uint32_words_are_the_int64_words(bit_generator, skip, size):
    """The epoch plan draws its raw words as uint32: the same words, and
    the same generator state after them, as the int64 call."""
    ref, got = twin_generators(bit_generator, 5, skip)
    want = ref.integers(0, 2**32, size=size)
    assert got.integers(0, 2**32, size=size, dtype=np.uint32).tolist() == want.tolist()
    assert state(got) == state(ref)


def test_lemire_on_hand_made_words():
    # A draw in [0, 3) takes 3 * 2**31 >> 32 = 1 from word 2**31, and a
    # draw in [0, 5) takes 7 * 5 >> 32 = 0 from word 7; word 0 is rejected
    # in [0, 3) (3 * 0 mod 2**32 < 2**32 mod 3 = 1), so its draw is not
    # settled: numpy would read another word.
    values, settled = lemire(np.array([[2**31, 7, 0]], dtype=np.uint32), np.array([[3, 5, 3]]))
    assert values[0, :2].tolist() == [1, 0] and settled.tolist() == [[True, True, False]]
    # A draw in [0, 5) takes (2**32 - 1) * 5 >> 32 = 4.
    values, settled = lemire(np.array([2**32 - 1], dtype=np.uint32), np.array([5]))
    assert values.tolist() == [4] and settled.tolist() == [True]
    # A draw in [0, 1), a person with one sample (or a choice from a
    # population of 1), reads no word: not settled, though its value
    # happens to be right.  A bound of 2**32 hands out the word itself,
    # and one above it reads 64-bit words.
    values, settled = lemire(np.array([5, 9, 9], dtype=np.uint32), np.array([1, 2**32, 2**32 + 1]))
    assert values[:2].tolist() == [0, 9] and settled.tolist() == [False, True, False]
    # Words that do not match the bounds are refused.
    with pytest.raises(ContractError):
        lemire(np.array([7], dtype=np.uint32), np.array([3, 3]))


def test_choice_rows_without_follow_up_draws_on_hand_made_populations():
    # A population of 1 reads no word, so rows of population 1 leave the
    # generator as it was, and a row of population 3 reads what
    # Generator.choice reads.
    rng = np.random.default_rng(3)
    before = state(rng)
    assert decoded_choice_rows(rng, [1, 1], 1)[0].tolist() == [[0], [0]] and state(rng) == before
    ref = np.random.default_rng(3)
    out, _ = decoded_choice_rows(rng, [1, 3, 1], 1)
    assert out.tolist() == [[0], [int(ref.choice(3, 1, replace=False)[0])], [0]]
    assert state(rng) == state(ref)


@SETTINGS
@given(seed=seeds)
def test_pk_sampler_matches_per_person_choices(seed):
    """pk_sampler on a one-batch plan, n_p up to two more than the
    camera's persons (numpy then permutes the camera)."""
    rng = np.random.default_rng(seed)
    ds = person_dataset(rng, int(rng.integers(2, 4)), int(rng.integers(6, 30)))
    cam = int(np.argmax(ds.index.counts))
    n_p, n_k = int(rng.integers(2, ds.index.counts[cam] + 3)), int(rng.integers(2, 6))
    draw_seed = int(rng.integers(2**31))
    ref, got = np.random.default_rng(draw_seed), np.random.default_rng(draw_seed)
    want_picks, want_classes = slow.pk_sampler(ds, cam, n_p, n_k, ref)
    batch = pk_sampler(ds, cam, *plan_epoch(got, ds, [cam], n_p, n_k)[0].pk)
    assert state(got) == state(ref)
    assert batch.sample_indices.tolist() == want_picks.tolist()
    assert batch.classes.tolist() == want_classes.tolist()


@SETTINGS
@given(seed=seeds)
def test_update_buffer_matches_per_person_calls(seed):
    rng = np.random.default_rng(seed)
    C, d = int(rng.integers(2, 12)), int(rng.integers(1, 9))
    n_p, n_k = int(rng.integers(2, 10)), int(rng.integers(1, 5))
    classes = rng.integers(0, C, size=n_p)  # repeats are common
    embeddings = points(rng, (n_p, n_k, d))
    want, got = new_buffer(d, C), new_buffer(d, C)
    for c in np.flatnonzero(rng.random(C) < 0.5):  # some columns already seen
        f = points(rng, (2, d))
        update_person(want, [c], f[None])
        update_person(got, [c], f[None])
    slow.update_buffer(want, embeddings, classes)
    _update_buffer(got, TripletBatch(embeddings, classes))
    assert same_bits(got.P, want.P)
    assert got.initialized.tolist() == want.initialized.tolist()
    assert got.t == 1


def test_batched_update_person_matches_one_person_calls():
    rng = np.random.default_rng(3)
    for _ in range(500):
        R, m, d = (int(x) for x in rng.integers(1, [9, 30, 70]))
        C = R + int(rng.integers(0, 4))
        classes = rng.permutation(C)[:R]
        feats = rng.standard_normal((R, m, d)) * 10.0 ** float(rng.integers(-3, 4))
        want, got = new_buffer(d, C), new_buffer(d, C)
        seen = classes[rng.random(R) < 0.5]
        for buf in (want, got):
            update_person(buf, seen, np.ones((seen.size, 1, d)))
        for r in range(R):
            update_person(want, classes[r:r + 1], feats[r:r + 1])
        update_person(got, classes, feats)
        assert same_bits(got.P, want.P)
        assert got.initialized.tolist() == want.initialized.tolist()


def test_batched_update_person_rejects_repeated_classes():
    buf = new_buffer(2, 3)
    with pytest.raises(ContractError):
        update_person(buf, np.array([1, 1]), np.ones((2, 1, 2)))
    with pytest.raises(ContractError):
        update_person(buf, np.array([0, 1]), np.ones((3, 1, 2)))
    assert not buf.initialized.any()


@SETTINGS
@given(seed=seeds)
def test_random_triplet_loss_matches_two_draws_per_anchor(seed):
    rng = np.random.default_rng(seed)
    n_p, n_k, d = int(rng.integers(2, 9)), int(rng.integers(2, 6)), int(rng.integers(1, 6))
    classes = rng.integers(0, max(2, n_p - 1), size=n_p)
    classes[:2] = [0, 1]  # two persons at least; repeats allowed
    batch = TripletBatch(points(rng, (n_p, n_k, d)), classes)
    draw_seed = int(rng.integers(2**31))
    ref, got = np.random.default_rng(draw_seed), np.random.default_rng(draw_seed)
    E, labels = batch.flat()
    pos, neg = slow.random_triplet_picks(labels, ref)
    D, rows = np.sqrt(squared_distances(E, E)), np.arange(E.shape[0])
    want = _triplet_terms(batch, E, 0.3, pos, neg, D[rows, pos], D[rows, neg])
    out = random_triplet_loss(batch, 0.3, slow.mining_places(labels, got))
    assert state(got) == state(ref)
    assert same_bits(out.loss, want.loss)
    assert same_bits(out.grads["embeddings"], want.grads["embeddings"])
    assert out.counters == want.counters


def _negative_case(rng, scale):
    """Anchors and a batch with many near-ties, possibly far from the origin."""
    n, d = int(rng.integers(2, 24)), int(rng.integers(1, 40))
    centre = rng.standard_normal(d) * float(rng.choice([0.0, 1e3, 1e6]))
    batch = centre + points(rng, (n, d)) * float(rng.choice([1.0, 1e-4]))
    classes = rng.integers(0, 4, size=n)
    classes[:2] = [0, 1]
    a_idx = rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1)))
    anchors = np.where(rng.random((a_idx.size, 1)) < 0.7, batch[a_idx],
                       centre + points(rng, (a_idx.size, d)))
    # Two rows at a permuted or mirrored offset from an anchor lie at the
    # same distance from it up to rounding.
    for _ in range(int(rng.integers(0, 2 * n))):
        a = anchors[rng.integers(anchors.shape[0])]
        off = float(rng.choice([0.1, 1e-3, 1e-7])) * rng.standard_normal(d)
        j1, j2 = rng.integers(n, size=2)
        batch[j1] = a + off
        batch[j2] = a + rng.permutation(off) * rng.choice([-1.0, 1.0])
    return anchors * scale, batch * scale, classes, rng.integers(0, 4, size=a_idx.size)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=seeds, scale=st.sampled_from([1.0, 1e-150, 1e160]))
def test_screened_hardest_negative_matches_per_anchor_scan(seed, scale):
    rng = np.random.default_rng(seed)
    anchors, batch, classes, anchor_classes = _negative_case(rng, scale)
    keep = (anchor_classes[:, None] != classes).any(axis=1)
    anchors, anchor_classes = anchors[keep], anchor_classes[keep]
    if not anchors.shape[0]:
        return
    want = [slow.select_hardest_negative(a, batch, classes, c)
            for a, c in zip(anchors, anchor_classes)]
    got = select_hardest_negative(anchors, batch, classes, anchor_classes)
    assert got.tolist() == want
    one = select_hardest_negative(anchors[:1], batch, classes, anchor_classes[:1])  # a batch of one
    assert one.tolist() == want[:1]
