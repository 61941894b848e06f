"""An epoch plan, followed by the per-iteration samplers from its first
unsettled iteration on, gives every draw of the per-iteration loop in
tests/slow_references.py (epoch_draws: one numpy call per person, anchor
and camera) and leaves the generator where that loop does at every epoch
boundary, PCG64's buffered half word included.

The tests run the plan with the inputs of each benchmark setting on
small corpora of 1-4 samples per person and on PCG64 and MT19937, and
each of the plan's stops: a camera with fewer than n_p persons, numpy's
tail-shuffle branch, a candidate row mixing one-sample persons with
others, and a rejected word; one-sample persons, candidate rows shorter
than n_k or of one entry and degenerate rows do not stop it.  They count
the iterations the plan settles, so each case is known to take the path
it is meant to, and check where a TrainingError leaves the generator.
"""

import copy
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slow_references as slow
from crosscam import (
    Dataset, TrainConfig, TrainingError, build_affinity, new_buffer, plan, train, trainer,
)
from crosscam.benchmark import BENCHMARK_SETTINGS, benchmark_config, benchmark_corpus
from crosscam.losses import TripletBatch, random_triplet_loss, select_positives
from crosscam.plan import Draws, plan_epoch
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

    def package(self, rng, planned=None):
        """Each iteration's draws through the samplers, given the plan's
        values up to len(planned) (a plan drawn from rng by default), in
        epoch_draws' form; and the number of iterations planned."""
        planned = self.plan(rng) if planned is None else planned
        out = []
        for it, cam in enumerate(self.cams):
            drawn = planned[it] if it < len(planned) else Draws()
            pk = pk_sampler(self.dataset, cam, self.n_p, self.n_k, rng, drawn.pk)
            labels = np.repeat(pk.classes, self.n_k)
            mining = cls = positives = None
            if self.random_mining:
                mining = mining_loss(pk.classes, self.n_k, rng, drawn.mining)
            if self.batch_total is not None:
                cls = classification_sampler(self.dataset, rng, self.batch_total, drawn.cls)
            if self.aff is not None:
                picks, weights, _ = select_positives(
                    labels, self.aff, self.dataset, self.n_k, rng, self.weighting_mode,
                    self.positive_sampling, drawn.positives)
                positives = picks, weights
            out.append((pk.sample_indices, pk.classes, mining, cls, positives))
        return out, len(planned)


def mining_loss(classes, n_k, rng, drawn):
    """random_triplet_loss on fixed embeddings of a batch of these persons,
    with its own draws from rng or the given ones: (loss, gradient); at a
    margin of 10 every hinge is active, so the gradient shows the picks."""
    E = np.random.default_rng(0).standard_normal((classes.size * n_k, 3))
    lv = random_triplet_loss(TripletBatch(E.reshape(classes.size, n_k, 3), classes), 10.0, rng,
                             drawn)
    return lv.loss, lv.grads["embeddings"]


def assert_same_iteration(got, want, n_k):
    g_picks, g_classes, g_mining, g_cls, g_pos = got
    w_picks, w_classes, w_mining, w_cls, w_pos = want
    assert g_picks.tolist() == w_picks.tolist()
    assert g_classes.tolist() == w_classes.tolist()
    if w_mining is not None:
        want_loss, want_grad = mining_loss(w_classes, n_k, None, w_mining)
        assert same_bits(g_mining[0], want_loss) and same_bits(g_mining[1], want_grad)
    assert (g_cls is None) == (w_cls is None)
    if w_cls is not None:
        assert g_cls.tolist() == w_cls.tolist()
    assert (g_pos is None) == (w_pos is None)
    if w_pos is not None:
        assert g_pos[0].tolist() == w_pos[0].tolist()
        assert same_bits(g_pos[1], w_pos[1])


def epoch_case(rng, overrides, ones):
    """An Epoch for a benchmark setting's overrides: cameras of n_p to
    n_p + 3 persons, persons of 1 (when ones) or 2 to 5 samples, and
    (D) either a built k-NN affinity or rows of 0 to k entries."""
    config = TrainConfig(epochs=2, warmup_epochs=1, decay_epoch=2, **overrides)
    use_c, use_d = trainer._soft_terms(config)
    n_p, n_k = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    counts = rng.integers(n_p, n_p + 4, size=int(rng.integers(2, 4)))
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


def mixed_row_cameras(epoch):
    """The cameras holding a person whose candidate row mixes one-sample
    persons with others: the plan's stop under random positives."""
    if epoch.aff is None or epoch.positive_sampling == "nearest":
        return set()
    table, index = epoch.aff.candidates, epoch.dataset.index
    samples = np.diff(epoch.dataset.class_members()[1])
    out = set()
    for c in range(index.total):
        one = samples[table.index[c, :table.count[c]]] == 1
        if one.any() and not one.all():
            out.add(int(index.camera_of_class_array()[c]))
    return out


@pytest.mark.parametrize("setting", list(BENCHMARK_SETTINGS))
@SETTINGS
@given(seed=seeds, bit_generator=bit_generators, decode=decode_rows)
def test_plan_matches_the_per_iteration_loop(setting, seed, bit_generator, decode):
    """Two epochs of a setting's draws: every iteration's PK batch, mining
    draws, C picks and D picks and weights, and the generator state at
    each epoch boundary, as the per-iteration loop, whatever block of D
    rows the plan decodes at once; the plan settles up to the first
    camera with a mixed candidate row."""
    rng = np.random.default_rng(seed)
    epoch = epoch_case(rng, BENCHMARK_SETTINGS[setting], ones=rng.random() < 0.5)
    mixed = mixed_row_cameras(epoch)
    stops = [i for i, c in enumerate(epoch.cams) if c in mixed]
    ref, got = twin_generators(bit_generator, int(rng.integers(2**31)), int(rng.integers(0, 4)))
    for _ in range(2):
        want = epoch.reference(ref)
        with mock.patch.object(plan, "DECODE_ROWS", decode):
            out, planned = epoch.package(got)
        assert state(got) == state(ref)
        assert planned == (stops[0] if stops else len(epoch.cams))
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


def check_epoch(epoch, planned_want, bit_generator=np.random.PCG64, seed=7):
    """The epoch through the plan and the samplers against the loop, and
    the number of iterations the plan settles."""
    ref, got = twin_generators(bit_generator, seed, 1)
    want = epoch.reference(ref)
    out, planned = epoch.package(got)
    assert state(got) == state(ref)
    for g, w in zip(out, want):
        assert_same_iteration(g, w, epoch.n_k)
    assert planned == planned_want


def dense_affinity(ds, rows):
    """An affinity whose row c holds weights at rows[c]'s columns (none: degenerate)."""
    A = np.zeros((ds.index.total, ds.index.total))
    for c, cols in rows.items():
        A[c, cols] = np.linspace(1.0, 0.5, len(cols))
    return slow.affinity_from_dense(A, 1.0, ds.index.camera_of_class_array(), False)


def test_a_short_camera_stops_the_plan_at_its_first_batch():
    ds = pk_dataset(np.random.default_rng(3), [5, 2, 4], np.full(11, 3))
    check_epoch(Epoch(ds, [0, 2, 0, 1, 0, 2], 3, 2, random_mining=True, batch_total=9), 3)


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
                              positive_sampling=positive_sampling), len(cams))


def test_a_mixed_candidate_row_stops_random_positives_only():
    samples = np.array([2, 3, 4, 2, 1, 3, 2, 2, 3])
    ds = pk_dataset(np.random.default_rng(5), [3, 3, 3], samples)
    aff = dense_affinity(ds, {c: [(c + 3) % 9, (c + 4) % 9, (c + 5) % 9] for c in range(9)})
    # Class 4 has one sample and is a candidate of classes 0 and 1 (camera
    # 0) and 8 (camera 2), whose other candidates have more.
    assert {int(ds.index.camera_of_class_array()[c]) for c in range(9)
            if 4 in [(c + k) % 9 for k in (3, 4, 5)]} == {0, 2}
    cams = [1, 1, 0, 2, 1]
    check_epoch(Epoch(ds, cams, 2, 2, aff=aff), 2)
    check_epoch(Epoch(ds, cams, 2, 2, aff=aff, positive_sampling="nearest"), len(cams))


def test_a_tail_shuffled_camera_stops_the_c_plan_at_once():
    # quota 201 of camera 1's 10,001 samples takes numpy's tail-shuffle branch.
    counts = [3, 2]
    samples = np.array([3, 3, 3, 5_000, 5_001])
    ds = pk_dataset(np.random.default_rng(6), counts, samples)
    check_epoch(Epoch(ds, [0, 1, 0], 2, 2), 3)
    check_epoch(Epoch(ds, [0, 1, 0], 2, 2, batch_total=402), 0)
    check_epoch(Epoch(ds, [0, 1, 0], 2, 2, batch_total=398), 3)


LEVELS = ["persons", "slots", "mining", "classification", "choices", "positives"]


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("at", [0, 2])
def test_a_rejected_word_stops_the_plan_at_its_iteration(monkeypatch, level, at):
    """A word of iteration `at` taken as rejected (placed_draws reports it
    unsettled) at each level of the plan: the plan settles the
    iterations before it, and the samplers draw the rest from the
    generator state right after them."""
    ds = pk_dataset(np.random.default_rng(8), [4, 5, 4], np.full(13, 4))
    buf = new_buffer(3, ds.index.total)
    buf.P[:] = np.random.default_rng(9).standard_normal(buf.P.shape)
    buf.initialized[:] = True
    aff = build_affinity(buf, ds.index, 3)
    epoch = Epoch(ds, [0, 1, 2, 0], 3, 2, random_mining=True, batch_total=6, aff=aff)
    # Rows of each level per iteration: one, n_p slot rows, one, a row per
    # camera, then a choice and a positives row per anchor (every row has
    # candidates).
    per_iteration = {"persons": 1, "slots": 3, "mining": 1, "classification": 3,
                     "choices": 6, "positives": 6}
    real, calls = plan.placed_draws, []

    def rejecting(words, starts, bounds):
        values, settled = real(words, starts, bounds)
        if len(calls) == LEVELS.index(level):
            settled[at * per_iteration[level], -1] = False
        calls.append(1)
        return values, settled

    monkeypatch.setattr(plan, "placed_draws", rejecting)
    check_epoch(epoch, at)
    assert len(calls) == len(LEVELS)


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
