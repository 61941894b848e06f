import dataclasses
import weakref

import numpy as np
import pytest

from crosscam import (
    ConfigError,
    ContractError,
    Dataset,
    SynthSpec,
    TrainConfig,
    TrainLog,
    TrainingError,
    classification_sampler,
    generate_synthetic,
    new_buffer,
    pk_sampler,
    train,
)
from crosscam import trainer
from crosscam.affinity import PRODUCT_ELEMENTS, affinity_quality_map, squared_distances
from crosscam.data import dataclass_from_dict
from crosscam.model import Optimizer, OptimizerState, init_head, init_model
from crosscam.ranking import BLOCK_ELEMENTS
from crosscam.plan import plan_epoch
from crosscam.trainer import TRAINLOG_COLUMNS, TrainState, camera_shares
from conftest import traced_peak


def fast_config(**overrides):
    """Small but faithful settings for quick training runs in tests.

    n_p=24 is at least the person count of any camera in the tiny corpus,
    so every person enters every batch and the buffer is fully
    initialized before the first affinity build.
    """
    base = dict(
        n_p=24, n_k=2, epochs=2, warmup_epochs=2,
        hidden_dim=16, embed_dim=8, class_batch_total=6, seed=3,
    )
    base.update(overrides)
    return TrainConfig(**base)


def thin_camera_dataset():
    """Two cameras of 4 persons, and camera 2 with a single person (2 images each)."""
    features = np.random.default_rng(31).standard_normal((18, 4))
    cams = np.repeat([0, 1, 2], [8, 8, 2])
    local = np.r_[np.tile(np.repeat(np.arange(4), 2), 2), 0, 0]
    truth = np.where(cams < 2, cams * 4 + local, 99)
    return Dataset(features, cams, local, truth, 3, "train")


def params_of(model, head):
    out = dict(model.params())
    out.update({f"head.{k}": v for k, v in head.params().items()})
    return out


def assert_params_equal(a, b):
    for name in a:
        assert np.array_equal(a[name], b[name]), f"parameter {name} differs"


def planned_pk(dataset, camera_id, n_p, n_k, rng):
    """pk_sampler on an epoch plan's draws for one batch of the camera."""
    return pk_sampler(dataset, camera_id, *plan_epoch(rng, dataset, [camera_id], n_p, n_k)[0].pk)


def planned_places(dataset, batch_total, rng):
    """Each camera's places of an epoch plan's camera-balanced batch."""
    shares = camera_shares(dataset, batch_total)
    return plan_epoch(rng, dataset, [0], 2, 2, shares=shares)[0].cls


class TestPKSampler:
    def test_shapes_and_membership(self, tiny_train, rng):
        batch = planned_pk(tiny_train, 0, 4, 2, rng)
        assert batch.sample_indices.shape == (4, 2)
        for r in range(4):
            cls = int(batch.classes[r])
            assert tiny_train.index.camera_of_class_array()[cls] == 0
            for idx in batch.sample_indices[r]:
                assert int(tiny_train.class_ids[idx]) == cls

    def test_persons_unique_when_enough(self, tiny_train, rng):
        n_persons = int(tiny_train.index.counts[0])
        batch = planned_pk(tiny_train, 0, min(4, n_persons), 2, rng)
        assert len(set(batch.classes.tolist())) == len(batch.classes)

    def test_whole_camera_forced_when_oversized(self, tiny_train, rng):
        n_persons = int(tiny_train.index.counts[1])
        batch = planned_pk(tiny_train, 1, n_persons + 3, 2, rng)
        lo = tiny_train.index.offsets[1]
        assert set(batch.classes.tolist()) == set(range(lo, lo + n_persons))
        assert sorted(batch.classes[:n_persons].tolist()) == list(range(lo, lo + n_persons))

    def test_single_image_person_repeats(self, rng):
        ds = Dataset([[0.0], [1.0], [2.0]], [0, 0, 0], [0, 1, 1], [0, 1, 1], 1, "train")
        batch = planned_pk(ds, 0, 2, 3, rng)
        row = batch.sample_indices[batch.classes.tolist().index(0)]
        assert np.all(row == 0)

    def test_fixed_seed_reproducible(self, tiny_train):
        a = planned_pk(tiny_train, 0, 6, 2, np.random.default_rng(9))
        b = planned_pk(tiny_train, 0, 6, 2, np.random.default_rng(9))
        assert np.array_equal(a.sample_indices, b.sample_indices)
        assert np.array_equal(a.classes, b.classes)

    def test_too_few_persons_refused(self):
        ds = Dataset([[0.0], [1.0]], [0, 0], [0, 0], [0, 0], 1, "train")
        with pytest.raises(ContractError):
            pk_sampler(ds, 0, np.zeros(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int64))

    def test_bad_camera_refused(self, tiny_train):
        with pytest.raises(ContractError):
            pk_sampler(tiny_train, 99, np.zeros(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int64))


class TestClassificationSampler:
    def test_camera_balanced_quota(self, tiny_train, rng):
        idx = classification_sampler(tiny_train, 6, planned_places(tiny_train, 6, rng))
        assert len(idx) == 6
        cams = tiny_train.camera_ids[idx]
        for cam in range(tiny_train.n_cameras):
            assert int((cams == cam).sum()) == 2

    def test_floor_division_drops_remainder(self, tiny_train, rng):
        idx = classification_sampler(tiny_train, 64, planned_places(tiny_train, 64, rng))
        assert len(idx) == (64 // tiny_train.n_cameras) * tiny_train.n_cameras

    def test_zero_quota_refused(self, tiny_train):
        with pytest.raises(ConfigError):
            classification_sampler(tiny_train, 2, [np.zeros(0, dtype=np.int64)] * 3)

    def test_empty_camera_refused(self):
        ds = Dataset([[0.0], [1.0], [2.0]], [0, 0, 1], [0, 1, 0], [0, 1, 0], 3, "train")
        with pytest.raises(ContractError):
            classification_sampler(ds, 3, [np.zeros(1, dtype=np.int64)] * 3)


class TestConfig:
    def test_defaults_mirror_published_schedule(self):
        cfg = TrainConfig()
        assert (cfg.n_p, cfg.n_k, cfg.margin, cfg.lam, cfg.k) == (32, 4, 0.3, 1.0, 6)
        assert (cfg.epochs, cfg.warmup_epochs, cfg.decay_epoch) == (300, 100, 200)
        assert (cfg.learning_rate_pretrained, cfg.learning_rate_new) == (0.1, 0.01)
        assert cfg.momentum == 0.9
        assert cfg.class_batch_total == 64
        cfg.validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_p": 1},
            {"n_k": 1},
            {"margin": -0.1},
            {"lam": -1.0},
            {"k": 0},
            {"warmup_epochs": 10, "epochs": 5},
            {"decay_epoch": 0},
            {"inter_mode": "X"},
            {"weighting_mode": "mean"},
            {"mining_mode": "soft"},
            {"positive_sampling": "greedy"},
            {"momentum": 1.0},
            {"learning_rate_new": 0.0},
            {"learning_rate_pretrained": float("nan")},
            {"decay_factor": float("inf")},
        ],
    )
    def test_invalid_values_refused(self, overrides):
        with pytest.raises(ConfigError):
            dataclasses.replace(TrainConfig(), **overrides).validate()

    @pytest.mark.parametrize("lam", [1.0, 0.0])
    def test_joint_epochs_without_warmup_refused_before_training(self, tiny_train, lam):
        # Epoch 1 would be joint, and its affinity needs a buffer that only
        # warmup fills; the error names the fix instead of an AffinityError.
        cfg = dataclasses.replace(fast_config(), epochs=2, warmup_epochs=0, lam=lam)
        with pytest.raises(ConfigError, match="warmup_epochs to at least 1"):
            train(tiny_train, cfg)
        dataclasses.replace(cfg, epochs=0).validate()

    def test_dict_round_trip(self):
        cfg = fast_config(lam=0.5, inter_mode="D")
        assert dataclass_from_dict(TrainConfig, dataclasses.asdict(cfg)) == cfg

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="n_persons"):
            dataclass_from_dict(TrainConfig, {"n_persons": 8})

    def test_value_types_checked_against_fields(self):
        cfg = dataclass_from_dict(TrainConfig, {"margin": 1, "epochs": 4, "warmup_epochs": 2})
        assert cfg.margin == 1.0 and type(cfg.margin) is float
        for values in ({"epochs": 3.5}, {"epochs": True}, {"n_p": "x"}, {"lam": None},
                       {"mask_same_camera": "false"}, {"mask_same_camera": 0}):
            key = next(iter(values))
            with pytest.raises(ConfigError, match=f"'{key}'"):
                dataclass_from_dict(TrainConfig, values)

    def test_partial_dict_overrides_base(self):
        base = fast_config()
        cfg = dataclass_from_dict(TrainConfig, {"margin": 0.7}, base=base)
        assert cfg.margin == 0.7
        assert cfg.n_p == base.n_p


class TestTrainingRuns:
    def test_warmup_only_never_builds_affinity(self, tiny_train):
        result = train(tiny_train, fast_config())
        assert result.final_affinity is None
        assert len(result.log.records) == 2
        for r in result.log.records:
            assert r.inter_loss == 0.0
            assert r.affinity_map is None
            assert r.degenerate_rows == 0

    def test_joint_phase_builds_once_per_epoch(self, tiny_train):
        result = train(tiny_train, fast_config(epochs=4, warmup_epochs=2))
        # Each build logs its affinity mAP, so the mAP is set on exactly the joint epochs.
        assert [r.affinity_map is not None for r in result.log.records] == [False] * 2 + [True] * 2
        for r in result.log.records[2:]:
            assert 0.0 <= r.affinity_map <= 1.0
        # final_affinity is the last epoch's build.
        truth = tiny_train.truth_of_class_array()
        got = affinity_quality_map(result.final_affinity, truth)
        assert np.float64(got).tobytes() == np.float64(result.log.records[-1].affinity_map).tobytes()

    def test_buffer_touched_every_epoch(self, tiny_train):
        result = train(tiny_train, fast_config())
        assert result.buffer.uninitialized_classes() == []
        batch = 24 * 2
        import math
        iters = math.ceil(len(tiny_train) / batch)
        assert result.buffer.t == 2 * iters

    def test_bitwise_reproducible(self, tiny_train):
        cfg = fast_config(epochs=3, warmup_epochs=1, inter_mode="C+D")
        a = train(tiny_train, cfg)
        b = train(tiny_train, cfg)
        assert a.log.to_csv() == b.log.to_csv()
        assert_params_equal(params_of(a.model, a.head), params_of(b.model, b.head))
        assert np.array_equal(a.buffer.P, b.buffer.P)

    def test_seed_changes_trajectory(self, tiny_train):
        a = train(tiny_train, fast_config(seed=1))
        b = train(tiny_train, fast_config(seed=2))
        assert a.log.to_csv() != b.log.to_csv()

    def test_lam_zero_matches_warmup_only_bitwise(self, tiny_train):
        joint = train(tiny_train, fast_config(epochs=4, warmup_epochs=2, lam=0.0))
        warm = train(tiny_train, fast_config(epochs=4, warmup_epochs=4))
        assert_params_equal(
            params_of(joint.model, joint.head), params_of(warm.model, warm.head)
        )
        # The lam=0 run still measures affinity quality, it just never
        # lets the cross-camera losses touch the parameters.
        assert [r.affinity_map is not None for r in joint.log.records] == [False] * 2 + [True] * 2
        assert all(r.inter_loss == 0.0 for r in joint.log.records)

    def test_inter_loss_appears_in_joint_phase(self, tiny_train):
        result = train(tiny_train, fast_config(epochs=3, warmup_epochs=1, inter_mode="C"))
        assert result.log.records[0].inter_loss == 0.0
        assert all(r.inter_loss > 0.0 for r in result.log.records[1:])

    @pytest.mark.parametrize("mode", ["C", "D", "C+D"])
    def test_all_inter_modes_run(self, tiny_train, mode):
        result = train(tiny_train, fast_config(epochs=2, warmup_epochs=1, inter_mode=mode))
        assert len(result.log.records) == 2
        assert np.all(np.isfinite(result.model.W1))

    def test_random_mining_runs(self, tiny_train):
        result = train(tiny_train, fast_config(mining_mode="random"))
        assert np.all(np.isfinite(result.model.W1))

    def test_validation_metrics_logged_when_splits_given(self, tiny_corpus):
        result = train(
            tiny_corpus["train"], fast_config(),
            query=tiny_corpus["query"], gallery=tiny_corpus["gallery"],
        )
        for r in result.log.records:
            assert r.val_map is not None and 0.0 <= r.val_map <= 1.0
            assert r.val_rank1 is not None and 0.0 <= r.val_rank1 <= 1.0

    def test_metrics_absent_without_eval_splits(self, tiny_train):
        result = train(tiny_train, fast_config())
        assert all(r.val_map is None and r.val_rank1 is None for r in result.log.records)

    def test_epoch_callback_sees_every_epoch(self, tiny_train):
        seen = []
        train(tiny_train, fast_config(epochs=3, warmup_epochs=3),
              epoch_callback=lambda e, res: seen.append((e, len(res.log.records))))
        assert seen == [(1, 1), (2, 2), (3, 3)]

    def test_rejects_eval_split(self, tiny_corpus):
        with pytest.raises(ContractError):
            train(tiny_corpus["query"], fast_config())

    def test_thin_camera_excluded_from_intra_sampling(self):
        # Camera 2 holds a single person: unusable for triplets, but the
        # run proceeds on the remaining cameras.
        ds = thin_camera_dataset()
        assert ds.index.counts == (4, 4, 1)
        result = train(ds, fast_config(n_p=4, epochs=1, warmup_epochs=1))
        # Camera 2's lone person never enters an intra batch, so its buffer
        # column stays untouched while every other column is filled.
        lone_class = ds.index.offsets[2]  # local id 0 of camera 2
        assert result.buffer.uninitialized_classes() == [lone_class]
        assert not result.buffer.P[:, lone_class].any()

    @pytest.mark.parametrize("lam", [1.0, 0.0])
    def test_thin_camera_with_joint_epochs_refused_before_training(self, lam):
        # The lone person's buffer column is never filled, so the first
        # joint epoch could not build the affinity; no epoch runs at all.
        seen = []
        cfg = fast_config(n_p=4, epochs=2, warmup_epochs=1, lam=lam)
        with pytest.raises(ConfigError, match="camera 2 has a single person.*warmup_epochs"):
            train(thin_camera_dataset(), cfg, epoch_callback=lambda e, r: seen.append(e))
        assert seen == []

    def test_short_warmup_refused_at_first_joint_epoch(self):
        # Cameras of 10, 9 and 14 persons.  One warmup epoch makes five
        # 12-person batches, camera 2 gets one of them, and two of its
        # persons are never drawn: their buffer columns are still empty.
        ds = generate_synthetic(SynthSpec(n_identities=16, n_cameras=3, images_per_person=3,
                                          d_latent=3, d_in=8, seed=7))["train"]
        assert ds.index.counts == (10, 9, 14)
        seen = []
        with pytest.raises(ConfigError, match=(
            r"1 warmup epoch\(s\) never drew 2 of the 14 persons of camera 2 into an "
            r"intra-camera batch; raise warmup_epochs, or n_p to the camera's person count \(14\)"
        )):
            train(ds, fast_config(n_p=12, epochs=3, warmup_epochs=1),
                  epoch_callback=lambda e, state: seen.append(e))
        assert seen == [1]
        result = train(ds, fast_config(n_p=12, epochs=3, warmup_epochs=2))
        assert [r.affinity_map is not None for r in result.log.records] == [False, False, True]

    def test_epoch_too_short_to_reach_every_camera_refused_before_training(self, tiny_train):
        # One batch per epoch, and the camera rotation restarts every epoch,
        # so cameras 1 and 2 would never be drawn however long the warmup.
        cfg = fast_config(n_k=len(tiny_train), epochs=3, warmup_epochs=2)
        with pytest.raises(ConfigError, match="makes 1 intra-camera batch.*camera 1 never gets one"):
            train(tiny_train, cfg)
        assert len(train(tiny_train, dataclasses.replace(cfg, epochs=2)).log.records) == 2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("mining_mode", ["hard", "random"])
    def test_overflowing_intra_loss_is_a_training_error(self, tiny_train, mining_mode):
        # Squared distances between embeddings this large overflow, and the
        # triplet hinges become inf - inf = NaN.
        huge = Dataset(tiny_train.features * 1e200, tiny_train.camera_ids, tiny_train.local_ids,
                       tiny_train.truth, tiny_train.n_cameras, "train")
        with pytest.raises(TrainingError, match="non-finite intra loss at epoch 1, iteration 0"):
            train(huge, fast_config(mining_mode=mining_mode))

    def test_all_cameras_eligible_fill_every_column(self, tiny_train):
        assert min(tiny_train.index.counts) >= 2
        result = train(tiny_train, fast_config(epochs=1, warmup_epochs=1))
        assert result.buffer.uninitialized_classes() == []

    def test_single_camera_joint_schedule_refused(self, rng):
        spec = SynthSpec(n_identities=8, n_cameras=2, images_per_person=3, seed=5)
        ds = generate_synthetic(spec)["train"]
        # Restrict to camera 0 only.
        keep = ds.camera_ids == 0
        one_cam = Dataset(ds.features[keep], ds.camera_ids[keep], ds.local_ids[keep],
                          ds.truth[keep], 1, "train")
        cfg = fast_config(epochs=2, warmup_epochs=1, inter_mode="D")
        with pytest.raises(Exception) as exc_info:
            train(one_cam, cfg)
        assert "camera" in str(exc_info.value)


@pytest.fixture(scope="module")
def trained_log(tiny_train):
    return train(tiny_train, fast_config(epochs=3, warmup_epochs=1)).log


class TestTrainLogSerialization:
    def test_csv_shape(self, trained_log):
        lines = trained_log.to_csv().strip().split("\n")
        assert lines[0] == ",".join(TRAINLOG_COLUMNS)
        assert len(lines) == 1 + 3
        assert all(line.count(",") == len(TRAINLOG_COLUMNS) - 1 for line in lines)

    def test_none_serialized_as_empty_cell(self, trained_log):
        first_row = trained_log.to_csv().strip().split("\n")[1]
        cells = first_row.split(",")
        by_col = dict(zip(TRAINLOG_COLUMNS, cells))
        assert by_col["val_map"] == ""
        assert by_col["affinity_map"] == ""

    def test_json_round_trip_preserves_canonical_columns(self, trained_log):
        back = TrainLog.from_json(trained_log.to_json())
        assert back.to_csv() == trained_log.to_csv()
        assert back.to_json() == trained_log.to_json()

    def test_from_json_rejects_wrong_payload(self):
        with pytest.raises(ContractError):
            TrainLog.from_json('{"format": "something-else", "records": []}')

    def test_timing_sidecar_separate_from_canonical_log(self, trained_log):
        timing = trained_log.timing_csv().strip().split("\n")
        assert timing[0] == "epoch,wall_time_s"
        assert len(timing) == 1 + 3
        assert "wall_time" not in trained_log.to_csv()
        assert "wall_time" not in trained_log.to_json()


def epoch_start_case(C, n_cameras, d, rng):
    """A dataset of C persons in camera order, one sample each, and a state
    whose buffer holds every person."""
    cams = np.arange(C) * n_cameras // C
    local = np.arange(C) - np.searchsorted(cams, cams)
    ds = Dataset(rng.standard_normal((C, d)), cams, local, local, n_cameras, "train")
    buffer = new_buffer(d, C)
    buffer.P[:] = rng.standard_normal((d, C))
    buffer.initialized[:] = True
    state = TrainState(model=init_model(d, 4, 4, rng), head=init_head(4, C, rng),
                       optimizer=Optimizer(), opt_state=OptimizerState(), buffer=buffer, rng=rng)
    return ds, state


def test_epoch_start_leaves_only_the_sparse_tables(monkeypatch):
    """The last epoch's affinity is gone before the next build starts, and
    what an epoch start leaves of what it allocated is the new affinity's
    two k-sparse tables (candidates and soft labels), O(C k) bytes: a
    second pair of tables or any C x C array would exceed the bound."""
    C, n_cameras, d = 700, 4, 8
    rng = np.random.default_rng(5)
    ds, state = epoch_start_case(C, n_cameras, d, rng)
    config = TrainConfig(k=6)
    trainer._epoch_start(state, ds, config)
    previous = weakref.ref(state.final_affinity)
    released = []
    build = trainer.build_affinity

    def checked_build(*args, **kwargs):
        released.append(previous() is None)
        return build(*args, **kwargs)

    monkeypatch.setattr(trainer, "build_affinity", checked_build)
    out, _, held = traced_peak(trainer._epoch_start, state, ds, config)
    aff = state.final_affinity
    tables = [aff.candidates, aff.soft_labels]
    assert released == [True]
    assert out[0] == int(np.count_nonzero(aff.soft_labels.degenerate)) == 0
    assert all(t.index.shape == t.weights.shape == (C, config.k) for t in tables)
    table_bytes = sum(a.nbytes for t in tables for a in (t.class_index, t.index, t.weights, t.count))
    assert held <= 1.5 * table_bytes


def test_epoch_start_peaks_at_one_product_block():
    """An epoch start streams its distances in product blocks: at a C whose
    C x C matrix spans several blocks, its traced peak is one product block
    plus block-sized temporaries plus the O(C k) tables, far under the
    C x C matrix, and what it leaves is the affinity's k-sparse tables.
    The distance kernel peaks at its output plus one block."""
    C, n_cameras, d = 2400, 4, 8
    assert C * C >= 5 * PRODUCT_ELEMENTS
    rng = np.random.default_rng(5)
    ds, state = epoch_start_case(C, n_cameras, d, rng)
    config = TrainConfig(k=6)
    trainer._epoch_start(state, ds, config)
    out, peak, held = traced_peak(trainer._epoch_start, state, ds, config)
    assert out[0] == 0 and state.final_affinity.n_classes == C
    tables = 4 * C * config.k * 16  # the kept (position, distance) pairs and both tables
    assert peak <= PRODUCT_ELEMENTS * 8 + 16 * BLOCK_ELEMENTS * 8 + tables
    assert held <= tables

    a, b = rng.standard_normal((300, d)), rng.standard_normal((2000, d))
    d2, peak, _ = traced_peak(squared_distances, a, b)
    assert peak <= 1.1 * d2.nbytes + BLOCK_ELEMENTS * 8


def test_soft_ce_step_holds_one_batch_by_class_array():
    """The C step turns the head's scores into the probabilities and then
    into the score gradient in place: at C = 2,000 its traced peak is one
    batch x C array beyond the head-sized gradient it returns, where a
    second batch x C array would exceed the bound."""
    C, n_cameras, d = 2000, 4, 8
    rng = np.random.default_rng(5)
    ds, state = epoch_start_case(C, n_cameras, d, rng)
    config = TrainConfig(k=6)
    trainer._epoch_start(state, ds, config)
    places = planned_places(ds, config.class_batch_total, rng)
    trainer._soft_ce_step(state, ds, config, places)
    out, peak, _ = traced_peak(trainer._soft_ce_step, state, ds, config, places)
    assert out[1] == config.class_batch_total  # every sampled row adds a term
    batch_by_class = config.class_batch_total * C * 8
    head = state.head.Wc.nbytes + state.head.bc.nbytes
    assert peak <= batch_by_class + head + (1 << 16)
