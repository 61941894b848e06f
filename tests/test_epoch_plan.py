"""An epoch plan gives every draw of the per-iteration loop in
tests/slow_references.py (epoch_draws: one numpy call per person, anchor
and camera), for every input train accepts, and leaves the generator
where that loop does at every epoch boundary, PCG64's buffered half word
included.

The tests run the plan with the inputs of each benchmark setting on
small corpora of 1-4 samples per person, some cameras with fewer than
n_p persons, on PCG64 and MT19937; and the cases numpy draws in ways of
its own: a camera with fewer than n_p persons (a permutation by masked
draws), numpy's tail-shuffle branch at each level, a candidate row
mixing one-sample persons with others, and a word Lemire's method
rejects at each level, served by a fake generator and read by
slow_references.WordReader.  They count the iterations the plan gives,
check where a TrainingError leaves the generator, and guard against a
second draw path in the samplers.
"""

import ast
import copy
import dataclasses
import inspect
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slow_references as slow
from crosscam import (
    ContractError, Dataset, TrainConfig, TrainingError, build_affinity, losses, new_buffer, plan,
    train, trainer,
)
from crosscam.affinity import SoftLabelTable
from crosscam.benchmark import BENCHMARK_SETTINGS, benchmark_config, benchmark_corpus
from crosscam.losses import TripletBatch, random_triplet_loss, select_positives
from crosscam.plan import plan_epoch
from crosscam.trainer import camera_shares, classification_sampler, pk_sampler
from slow_references import same_bits
from conftest import traced_peak
from test_batched_equivalence import sparse_affinity
from test_draws_equivalence import state, twin_generators
from test_pk_runs import pk_dataset

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
seeds = st.integers(min_value=0, max_value=2**31)
bit_generators = st.sampled_from([np.random.PCG64, np.random.MT19937])
decode_rows = st.sampled_from([1, 5, plan.DECODE_ROWS])  # D rows decoded per block


@dataclasses.dataclass
class Epoch:
    """One epoch's inputs: the dataset, its cameras and a setting's draws."""

    dataset: Dataset
    cams: list
    n_p: int
    n_k: int
    random_mining: bool = False
    batch_total: int | None = None
    aff: object = None
    weighting_mode: str = "AW"
    positive_sampling: str = "random"

    def plan(self, rng):
        return plan_epoch(
            rng, self.dataset, self.cams, self.n_p, self.n_k, random_mining=self.random_mining,
            shares=None if self.batch_total is None else camera_shares(self.dataset,
                                                                       self.batch_total),
            candidates=None if self.aff is None else self.aff.candidates,
            nearest=self.positive_sampling == "nearest")

    def reference(self, rng):
        return slow.epoch_draws(self.dataset, self.cams, self.n_p, self.n_k, rng,
                                self.random_mining, self.batch_total, self.aff,
                                self.weighting_mode, self.positive_sampling)

    def package(self, rng):
        """Each iteration's draws through a plan drawn from rng and the
        samplers that map its values, in epoch_draws' form; and the
        number of iterations planned."""
        planned = self.plan(rng)
        out = []
        for cam, drawn in zip(self.cams, planned):
            pk = pk_sampler(self.dataset, cam, *drawn.pk)
            labels = np.repeat(pk.classes, self.n_k)
            mining = cls = positives = None
            if self.random_mining:
                mining = mining_loss(pk.classes, self.n_k, drawn.mining)
            if self.batch_total is not None:
                cls = classification_sampler(self.dataset, self.batch_total, drawn.cls)
            if self.aff is not None:
                picks, weights, _ = select_positives(labels, self.aff, self.dataset,
                                                     *drawn.positives, self.weighting_mode)
                positives = picks, weights
            out.append((pk.sample_indices, pk.classes, mining, cls, positives))
        return out, len(planned)


def mining_loss(classes, n_k, places):
    """random_triplet_loss on fixed embeddings of a batch of these persons
    at the given mining places: (loss, gradient); at a margin of 10 every
    hinge is active, so the gradient shows the picks."""
    E = np.random.default_rng(0).standard_normal((classes.size * n_k, 3))
    lv = random_triplet_loss(TripletBatch(E.reshape(classes.size, n_k, 3), classes), 10.0, places)
    return lv.loss, lv.grads["embeddings"]


def assert_same_iteration(got, want, n_k):
    g_picks, g_classes, g_mining, g_cls, g_pos = got
    w_picks, w_classes, w_mining, w_cls, w_pos = want
    assert g_picks.tolist() == w_picks.tolist()
    assert g_classes.tolist() == w_classes.tolist()
    if w_mining is not None:
        want_loss, want_grad = mining_loss(w_classes, n_k, w_mining)
        assert same_bits(g_mining[0], want_loss) and same_bits(g_mining[1], want_grad)
    assert (g_cls is None) == (w_cls is None)
    if w_cls is not None:
        assert g_cls.tolist() == w_cls.tolist()
    assert (g_pos is None) == (w_pos is None)
    if w_pos is not None:
        assert g_pos[0].tolist() == w_pos[0].tolist()
        assert same_bits(g_pos[1], w_pos[1])


def epoch_case(rng, overrides, ones):
    """An Epoch for a benchmark setting's overrides: cameras of 2 to
    n_p + 3 persons (fewer than n_p in about a third of them), persons of
    1 (when ones) or 2 to 5 samples, and (D) either a built k-NN
    affinity or rows of 0 to k entries."""
    config = TrainConfig(epochs=2, warmup_epochs=1, decay_epoch=2, **overrides)
    use_c, use_d = trainer._soft_terms(config)
    n_p, n_k = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    counts = rng.integers(max(2, n_p - 2), n_p + 4, size=int(rng.integers(2, 4)))
    samples = rng.integers(1 if ones else 2, 5 if ones else 6, size=int(counts.sum()))
    ds = pk_dataset(rng, counts, samples)
    aff = None
    if use_d and rng.random() < 0.5:
        aff = sparse_affinity(rng, ds, int(rng.integers(1, 7)))
    elif use_d:
        buf = new_buffer(3, ds.index.total)
        buf.P[:] = rng.standard_normal(buf.P.shape)
        buf.initialized[:] = True
        aff = build_affinity(buf, ds.index, int(rng.integers(1, 7)), config.mask_same_camera)
    cams = rng.integers(0, counts.size, size=int(rng.integers(1, 9))).tolist()
    batch_total = int(rng.integers(counts.size, 20)) if use_c else None
    return Epoch(ds, cams, n_p, n_k, config.mining_mode == "random", batch_total, aff,
                 config.weighting_mode, config.positive_sampling)


@pytest.mark.parametrize("setting", list(BENCHMARK_SETTINGS))
@SETTINGS
@given(seed=seeds, bit_generator=bit_generators, decode=decode_rows)
def test_plan_matches_the_per_iteration_loop(setting, seed, bit_generator, decode):
    """Two epochs of a setting's draws: every iteration's PK batch, mining
    draws, C picks and D picks and weights, and the generator state at
    each epoch boundary, as the per-iteration loop, whatever block of D
    rows the plan decodes at once; the plan gives every iteration."""
    rng = np.random.default_rng(seed)
    epoch = epoch_case(rng, BENCHMARK_SETTINGS[setting], ones=rng.random() < 0.5)
    ref, got = twin_generators(bit_generator, int(rng.integers(2**31)), int(rng.integers(0, 4)))
    for _ in range(2):
        want = epoch.reference(ref)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(plan, "DECODE_ROWS", decode)
            out, planned = epoch.package(got)
        assert state(got) == state(ref)
        assert planned == len(epoch.cams)
        for g, w in zip(out, want):
            assert_same_iteration(g, w, epoch.n_k)


def plan_values(planned):
    """Every value of a plan's iterations, as nested lists."""
    return [[None if v is None else [np.asarray(a).tolist() for a in v]
             if isinstance(v, tuple) else v.tolist() for v in d] for d in planned]


def test_a_joint_plan_peaks_at_a_block_of_its_d_rows(monkeypatch):
    """The full setting's joint epoch on the benchmark corpus (23
    iterations, about 2,900 D rows): the plan holds its words as 32-bit
    integers and decodes its D rows in blocks of DECODE_ROWS, so its
    traced peak stays under 0.6 MB, half of what decoding every D row
    at once takes; one block of every row gives the same plan."""
    ds = benchmark_corpus()["train"]
    config = benchmark_config(**BENCHMARK_SETTINGS["full"])
    cams = trainer.check_corpus(ds, config)
    buf = new_buffer(config.embed_dim, ds.index.total)
    buf.P[:] = np.random.default_rng(3).standard_normal(buf.P.shape)
    buf.initialized[:] = True
    aff = build_affinity(buf, ds.index, config.k, config.mask_same_camera)
    shares = camera_shares(ds, config.class_batch_total)

    def planned():
        return plan_epoch(np.random.default_rng(1), ds, cams, config.n_p, config.n_k,
                          shares=shares, candidates=aff.candidates)

    got, peak, _ = traced_peak(planned)
    assert len(got) == len(cams) and all(d.positives is not None for d in got)
    assert peak <= 0.6 * 2**20
    monkeypatch.setattr(plan, "DECODE_ROWS", len(cams) * config.n_p * config.n_k)
    assert plan_values(got) == plan_values(planned())


def check_epoch(epoch, bit_generator=np.random.PCG64, seed=7):
    """The epoch through the plan and the samplers against the loop; the
    plan gives every iteration."""
    ref, got = twin_generators(bit_generator, seed, 1)
    want = epoch.reference(ref)
    out, planned = epoch.package(got)
    assert state(got) == state(ref)
    assert planned == len(epoch.cams)
    for g, w in zip(out, want):
        assert_same_iteration(g, w, epoch.n_k)


def dense_affinity(ds, rows):
    """An affinity whose row c holds weights at rows[c]'s columns (none: degenerate)."""
    A = np.zeros((ds.index.total, ds.index.total))
    for c, cols in rows.items():
        A[c, cols] = np.linspace(1.0, 0.5, len(cols))
    return slow.affinity_from_dense(A, 1.0, ds.index.camera_of_class_array(), False)


ALL_BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]


@pytest.mark.parametrize("bit_generator", ALL_BIT_GENERATORS)
def test_a_short_camera_is_drawn_as_numpy_draws_it(bit_generator):
    """A camera of m < n_p persons: numpy draws n_p - m persons with
    replacement, then permutes all m by masked draws, which reject up to
    half the words.  Cameras of 5, 2 and 4 persons with n_p = 3 under
    random mining (repeated persons change its bounds) and C; then cameras
    of 2, 9, 5 and 7 persons of 1-4 samples with n_p = 9 under C+D, whose
    candidate rows mix one-sample persons with others."""
    ds = pk_dataset(np.random.default_rng(3), [5, 2, 4], np.full(11, 3))
    for seed in range(10):
        check_epoch(Epoch(ds, [0, 2, 0, 1, 0, 2], 3, 2, random_mining=True, batch_total=9),
                    bit_generator, seed)
    one = pk_dataset(np.random.default_rng(3), [5, 1], np.full(6, 3))
    with pytest.raises(ContractError):  # no triplet batch from one person
        plan_epoch(np.random.default_rng(0), one, [0, 1], 3, 2)
    rng = np.random.default_rng(4)
    ds = pk_dataset(rng, [2, 9, 5, 7], rng.integers(1, 5, size=23))
    aff = sparse_affinity(rng, ds, 4)
    for seed in range(5):
        for sampling in ("random", "nearest"):
            check_epoch(Epoch(ds, [0, 1, 2, 3, 2, 0], 9, 2, random_mining=True, batch_total=8,
                              aff=aff, positive_sampling=sampling), bit_generator, seed)


def test_one_sample_persons_and_short_rows_do_not_stop_the_plan():
    # Persons of 1 to 3 samples (n_k = 3: bound-1 slot draws, draws with
    # replacement); candidate rows of 3, 2 and 1 entries and degenerate
    # ones, each of persons all of one sample or all of more.
    samples = np.array([1, 2, 3, 1, 3, 2, 1, 1, 2, 3, 3, 2])
    ds = pk_dataset(np.random.default_rng(4), [4, 4, 4], samples)
    multi, single = np.flatnonzero(samples > 1), np.flatnonzero(samples == 1)
    rows = {0: multi[-3:], 1: multi[:2], 2: single[:1], 4: multi[2:3], 5: single[1:4],
            9: multi[3:5], 10: single[:2]}
    aff = dense_affinity(ds, rows)
    cams = [0, 1, 2, 0, 1, 2, 1]
    for positive_sampling in ("random", "nearest"):
        for weighting_mode in ("AW", "W"):
            check_epoch(Epoch(ds, cams, 3, 3, batch_total=7, aff=aff,
                              weighting_mode=weighting_mode,
                              positive_sampling=positive_sampling))


@pytest.mark.parametrize("bit_generator", ALL_BIT_GENERATORS)
def test_a_mixed_candidate_row_is_placed_one_draw_after_another(bit_generator):
    """Random positives from a candidate row that mixes one-sample persons
    with others read a slot word for each pick of more than one sample,
    so each such row's words are counted from its own choice: with
    n_k = 2 a Floyd choice, with n_k = 4 from 3 candidates draws with
    replacement."""
    samples = np.array([2, 3, 4, 2, 1, 3, 2, 2, 3])
    ds = pk_dataset(np.random.default_rng(5), [3, 3, 3], samples)
    aff = dense_affinity(ds, {c: [(c + 3) % 9, (c + 4) % 9, (c + 5) % 9] for c in range(9)})
    # Class 4 has one sample and is a candidate of classes 0 and 1 (camera
    # 0) and 8 (camera 2), whose other candidates have more.
    assert {int(ds.index.camera_of_class_array()[c]) for c in range(9)
            if 4 in [(c + k) % 9 for k in (3, 4, 5)]} == {0, 2}
    cams = [1, 1, 0, 2, 1]
    for seed in range(5):
        for n_k in (2, 4):
            for sampling in ("random", "nearest"):
                check_epoch(Epoch(ds, cams, 2, n_k, random_mining=True, aff=aff,
                                  weighting_mode="W", positive_sampling=sampling),
                            bit_generator, seed)


def test_tail_shuffled_populations_are_planned_at_every_level():
    """numpy shuffles a tail instead of running Floyd when pop > 10,000 and
    size > pop // 50.  First a camera of 10,001 persons with n_p = 201
    (its persons) whose 10,001 samples give a C quota of 201 (a C camera),
    beside a camera of 2 persons; then n_k = 201 from a person of 10,001
    samples (a person's samples) and from candidate rows of 10,002
    persons, which mix one-sample persons with one of 5 (a candidate row).
    The candidate table repeats one row through a broadcast view, so it
    holds no C x 10,002 array."""
    ds = pk_dataset(np.random.default_rng(6), [10_001, 2], np.r_[np.ones(10_001, int), 3, 3])
    check_epoch(Epoch(ds, [1, 0, 1, 0], 201, 2, batch_total=402))
    check_epoch(Epoch(ds, [0, 1], 201, 2, batch_total=400))  # quota 200: Floyd

    ds = pk_dataset(np.random.default_rng(7), [3, 1, 10_001],
                    np.r_[10_001, 300, 1, 5, np.ones(10_001, int)])
    C = ds.index.total
    row = np.arange(3, C)  # the camera 1 person of 5 samples, then camera 2's
    count = np.where(np.arange(C) < 3, row.size, 0)
    table = SoftLabelTable(np.arange(C), np.broadcast_to(row, (C, row.size)),
                           np.broadcast_to(np.linspace(1.0, 0.5, row.size), (C, row.size)),
                           count, C)
    aff = types.SimpleNamespace(candidates=table, n_classes=C)
    check_epoch(Epoch(ds, [0, 0], 2, 201, aff=aff))


class WordServer:
    """A generator that serves hand-made 32-bit words: integers(0, 2**32,
    size, dtype=np.uint32) hands out the next size of them, and
    bit_generator.state is the number served so far."""

    def __init__(self, words):
        self.words, self.served = np.asarray(words, dtype=np.uint32), 0
        self.bit_generator = self

    @property
    def state(self):
        return {"served": self.served}

    @state.setter
    def state(self, value):
        self.served = value["served"]

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 2**32, np.uint32)
        assert self.served + size <= self.words.size, "more words than the case made"
        self.served += size
        return self.words[self.served - size:self.served].copy()


@pytest.mark.parametrize("bit_generator", ALL_BIT_GENERATORS)
def test_word_reader_reads_as_numpy_does(bit_generator):
    """WordReader on a generator's words gives its choices (Floyd's, with
    replacement, the tail shuffle, populations that reject a quarter of
    all words), permutations and scalar draws, and reads the words that
    generator reads."""
    for seed in range(30):
        cases = np.random.default_rng(seed)
        ref = np.random.Generator(bit_generator(seed))
        reader = slow.WordReader(
            np.random.Generator(bit_generator(seed)).integers(0, 2**32, 3000, dtype=np.uint32))
        for kind in cases.integers(0, 4, size=6).tolist():
            if kind == 0:
                a = np.arange(int(cases.integers(2, 20)))
                want, got = ref.permutation(a), reader.permutation(a)
            elif kind == 1:
                pop = int(cases.choice([3, 7, 3 * 2**30 - 5, 10_001]))
                size = int(cases.integers(1, min(pop, 250)))
                want, got = ref.choice(pop, size, replace=False), reader.choice(pop, size, False)
            elif kind == 2:
                pop, size = int(cases.integers(1, 9)), int(cases.integers(1, 12))
                want, got = ref.choice(pop, size, replace=True), reader.choice(pop, size, True)
            else:
                n = int(cases.choice([1, 5, 3 * 2**30 - 3]))
                want, got = ref.integers(n), reader.integers(n)
            assert np.array_equal(want, got)
        after = np.random.Generator(bit_generator(seed))
        after.integers(0, 2**32, size=reader.pos, dtype=np.uint32)
        assert state(after) == state(ref)


LEVELS = ["persons", "slots", "mining", "classification", "choices", "positives"]


def level_of(call, calls_per_iteration):
    """(iteration, level) of a numpy call of the word-test epoch below:
    per iteration 1 person choice, 4 slot choices, 16 mining draws, 3
    camera choices, then per anchor a choice and 2 slot draws."""
    i, c = divmod(call, calls_per_iteration)
    starts = [0, 1, 5, 21, 24]
    if c >= 24:
        return i, "choices" if (c - 24) % 3 == 0 else "positives"
    return i, LEVELS[int(np.searchsorted(starts, c, side="right")) - 1]


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("at", [0, 2])
def test_a_rejected_word_is_skipped_at_its_iteration(level, at):
    """A word 0, which Lemire's method rejects under any bound that is not
    a power of two, put at the first such draw of a level of iteration
    `at` (the first or the last): the plan gives every iteration as
    WordReader reads the words, skipping that one, and ends past the
    words it reads."""
    ds = pk_dataset(np.random.default_rng(8), [4, 5, 4], np.full(13, 5))
    buf = new_buffer(3, ds.index.total)
    buf.P[:] = np.random.default_rng(9).standard_normal(buf.P.shape)
    buf.initialized[:] = True
    aff = build_affinity(buf, ds.index, 3)
    assert aff.candidates.count.min() > 0  # every anchor draws its positives
    epoch = Epoch(ds, [0, 1, 2], 4, 2, random_mining=True, batch_total=6, aff=aff)
    words = np.random.default_rng(10).integers(0, 2**32, size=4000, dtype=np.uint32)
    probe = slow.WordReader(words)
    epoch.reference(probe)
    per_iteration = 1 + 4 + 16 + 3 + 3 * 8
    assert probe.calls == 3 * per_iteration
    pos = next(p for call, p, bound in probe.reads if level_of(call, per_iteration) == (at, level)
               and bound & (bound - 1))
    words[pos] = 0

    reader, server = slow.WordReader(words), WordServer(words)
    want = epoch.reference(reader)
    out, planned = epoch.package(server)
    assert any(p == pos for _, p, _ in reader.reads) and reader.reads[pos + 1][0] == \
        reader.reads[pos][0]  # the draw read the next word too
    assert server.served == reader.pos and planned == len(epoch.cams)
    for g, w in zip(out, want):
        assert_same_iteration(g, w, epoch.n_k)


def test_no_second_draw_path():
    """The samplers only map an epoch plan's draws: none takes a generator
    or an optional draw of its own, and the trainer and the losses read
    nothing from crosscam.draws."""
    for fn in (trainer.pk_sampler, trainer.classification_sampler, losses.select_positives,
               losses.random_triplet_loss):
        assert not {"rng", "drawn"} & set(inspect.signature(fn).parameters), fn.__name__
    for module in (trainer, losses):
        tree = ast.parse(Path(module.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.module not in ("draws", "crosscam.draws"), module.__name__
            if isinstance(node, ast.Import):
                assert "crosscam.draws" not in [a.name for a in node.names], module.__name__


def test_a_training_error_leaves_the_generator_past_the_planned_draws(monkeypatch, tiny_train):
    """At a body learning rate of 1e4 the intra loss turns non-finite in
    epoch 2, whose plan settles every iteration: the generator stands
    where the per-iteration loop leaves it after the whole epoch, past
    the failing iteration's draws and every later one's."""
    config = TrainConfig(n_p=4, n_k=2, epochs=4, warmup_epochs=2, decay_epoch=4, hidden_dim=8,
                         embed_dim=4, class_batch_total=12, inter_mode="C+D", seed=3,
                         learning_rate_pretrained=1e4)
    seen = []

    def recording(rng, dataset, cams, n_p, n_k, **kwargs):
        seen.append((rng, copy.deepcopy(rng), cams))
        planned = plan_epoch(rng, dataset, cams, n_p, n_k, **kwargs)
        assert len(planned) == len(cams)
        return planned

    monkeypatch.setattr(trainer, "plan_epoch", recording)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            TrainingError, match="intra loss at epoch 2"):
        train(tiny_train, config)
    rng, before, cams = seen[-1]
    assert len(seen) == 2
    slow.epoch_draws(tiny_train, cams, config.n_p, config.n_k, before)
    assert state(rng) == state(before)
