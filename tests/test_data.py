import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crosscam import (
    ContractError,
    Dataset,
    FormatError,
    NonFiniteFeatureError,
    PersonIndex,
    SynthSpec,
    VersionError,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from crosscam.benchmark import BENCHMARK_SPEC
from crosscam.data import MAX_CAMERAS
import slow_references as slow


class TestPersonIndex:
    def test_contiguous_blocks(self):
        idx = PersonIndex((3, 2, 4))
        assert idx.total == 9
        assert idx.offsets == (0, 3, 5, 9)

    def test_bijective(self):
        # Class c is local id c - offsets[camera] of its camera: every
        # (camera, local id) pair below each camera's count, once.
        idx = PersonIndex((3, 2, 4))
        cams = idx.camera_of_class_array()
        local = np.arange(idx.total) - np.asarray(idx.offsets)[cams]
        pairs = set(zip(cams.tolist(), local.tolist()))
        assert pairs == {(cam, l) for cam, n in enumerate(idx.counts) for l in range(n)}
        assert len(pairs) == idx.total

    def test_camera_of_class_array(self):
        idx = PersonIndex((2, 0, 3))
        assert idx.camera_of_class_array().tolist() == [0, 0, 2, 2, 2]

    def test_rejects_negative_counts(self):
        with pytest.raises(ContractError):
            PersonIndex((2, -1))


class TestGenerate:
    def test_zero_distortion_identical_across_cameras(self):
        spec = SynthSpec(
            n_identities=6, n_cameras=3, images_per_person=3,
            camera_appearance_prob=1.0, camera_transform_scale=0.0,
            noise_sigma=0.0, seed=5,
        )
        ds = generate_synthetic(spec)["train"]
        for g in range(6):
            feats = ds.features[ds.truth == g]
            assert feats.shape[0] == 9
            assert np.all(feats == feats[0])

    def test_deterministic_under_fixed_seed(self, tmp_path):
        spec = SynthSpec(n_identities=20, n_cameras=3, images_per_person=4, seed=7)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        for split in ("train", "query", "gallery"):
            pa, pb = tmp_path / f"a_{split}.txt", tmp_path / f"b_{split}.txt"
            save_dataset(a[split], pa)
            save_dataset(b[split], pb)
            assert pa.read_bytes() == pb.read_bytes()

    def test_full_appearance_counts(self):
        # Every identity under every camera: 4 blocks of 50 persons each.
        spec = SynthSpec(n_identities=50, n_cameras=4, camera_appearance_prob=1.0, seed=3)
        ds = generate_synthetic(spec)["train"]
        assert ds.index.counts == (50, 50, 50, 50)
        assert ds.index.total == 200
        # Brute-force enumeration of the generated (camera, local) pairs.
        pairs = {(int(c), int(l)) for c, l in zip(ds.camera_ids, ds.local_ids)}
        assert len(pairs) == 200
        for cam in range(4):
            locals_here = sorted(l for c, l in pairs if c == cam)
            assert locals_here == list(range(50))

    def test_rejects_single_camera(self):
        with pytest.raises(ContractError):
            generate_synthetic(SynthSpec(n_cameras=1))

    def test_rejects_single_image_per_person(self):
        with pytest.raises(ContractError):
            generate_synthetic(SynthSpec(images_per_person=1))

    def test_train_persons_have_enough_samples(self, tiny_train):
        _, starts = tiny_train.class_members()
        assert np.diff(starts).min() >= 4

    def test_camera_limit(self):
        SynthSpec(n_cameras=MAX_CAMERAS).validate()
        with pytest.raises(ContractError, match="MAX_CAMERAS"):
            SynthSpec(n_cameras=MAX_CAMERAS + 1).validate()

    def test_benchmark_corpus_bytes(self, tmp_path):
        # save_dataset's bytes of the benchmark corpus, seed 0: the corpus
        # every benchmark run trains and scores on.
        want = {
            "train": "db80922d609dac597e317417dfdfbddd0d7b31b81da1bb7f875b8b80d7a4a8b7",
            "query": "1dfb5073bb642a80ef994f076c8fcfdd32de4309bf82631603ef30bab1521873",
            "gallery": "f6562527f84d4cc33dab38ef4b5fc0701223ebe6514206e4ec8f556b94de2fd1",
        }
        corpus = generate_synthetic(BENCHMARK_SPEC)
        assert BENCHMARK_SPEC.seed == 0
        assert [len(corpus[s]) for s in want] == [2940, 139, 695]
        for split, digest in want.items():
            save_dataset(corpus[split], tmp_path / split)
            assert hashlib.sha256((tmp_path / split).read_bytes()).hexdigest() == digest

    def test_eval_identities_disjoint_and_matchable(self, tiny_corpus):
        train, query, gallery = (tiny_corpus[s] for s in ("train", "query", "gallery"))
        train_ids = set(train.truth.tolist())
        eval_ids = set(query.truth.tolist()) | set(gallery.truth.tolist())
        assert train_ids.isdisjoint(eval_ids)
        # Every query sample has a cross-camera true match in the gallery.
        for i in range(len(query)):
            match = (gallery.truth == query.truth[i]) & (gallery.camera_ids != query.camera_ids[i])
            assert match.any()

    def test_distinct_pair_count_matches_index(self, tiny_train):
        pairs = {(int(c), int(l)) for c, l in zip(tiny_train.camera_ids, tiny_train.local_ids)}
        assert len(pairs) == tiny_train.index.total

    def test_truth_purity(self, tiny_train):
        by_person = {}
        for c, l, t in zip(tiny_train.camera_ids, tiny_train.local_ids, tiny_train.truth):
            by_person.setdefault((int(c), int(l)), set()).add(int(t))
        assert all(len(v) == 1 for v in by_person.values())


class TestDatasetContainer:
    def test_rejects_inconsistent_truth(self):
        with pytest.raises(ContractError) as err:
            Dataset(np.zeros((3, 2)), [0, 0, 1], [0, 0, 0], [1, 2, 1], 2, "train")
        assert str(err.value) == "person (0, 0) has inconsistent truth identities 1 and 2"
        assert err.value.sample == 1

    def test_rejects_sparse_local_ids(self):
        with pytest.raises(ContractError):
            Dataset(np.zeros((2, 2)), [0, 0], [0, 2], [-1, -1], 1, "train")

    def test_rejects_misshapen_columns(self):
        with pytest.raises(ContractError, match="2-d"):
            Dataset(np.zeros(3), [0], [0], [-1], 1, "train")
        with pytest.raises(ContractError, match="one entry per sample"):
            Dataset(np.zeros((1, 2)), [0, 0], [0, 0], [-1, -1], 1, "train")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_feature_naming_the_sample(self, bad):
        features = np.zeros((4, 3))
        features[2, 1] = bad
        with pytest.raises(NonFiniteFeatureError) as err:
            Dataset(features, np.zeros(4, dtype=int), np.array([0, 0, 1, 1]),
                    np.full(4, -1), 1, "train")
        assert err.value.sample == 2
        assert "sample 2" in str(err.value)

    def test_more_cameras_than_the_limit_refused(self):
        Dataset(np.zeros((1, 2)), [0], [0], [-1], MAX_CAMERAS, "train")
        with pytest.raises(ContractError, match="MAX_CAMERAS"):
            Dataset(np.zeros((1, 2)), [0], [0], [-1], MAX_CAMERAS + 1, "train")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_person_index_matches_per_camera_scan(self, seed):
        # Local ids from a few values, so cameras with and without gaps
        # are both common, and now and then one far out of range.
        rng = np.random.default_rng(seed)
        n_cameras, n = int(rng.integers(1, 6)), int(rng.integers(0, 30))
        cams = rng.integers(0, n_cameras, size=n)
        local = rng.integers(0, int(rng.integers(1, 5)), size=n)
        odd = rng.random(n) < 0.05
        local[odd] = rng.choice([-1, -7, n, 10**15], size=int(odd.sum()))
        try:
            want = slow.person_counts(cams, local, n_cameras)
        except ContractError as e:
            with pytest.raises(ContractError) as err:
                Dataset(np.zeros((n, 1)), cams, local, np.full(n, -1), n_cameras, "train")
            assert (str(err.value), err.value.sample) == (str(e), e.sample)
            return
        got = Dataset(np.zeros((n, 1)), cams, local, np.full(n, -1), n_cameras, "train")
        assert got.index.counts == want

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_truth_purity_matches_per_sample_scan(self, seed):
        # Valid local ids (0..k-1 on each camera) and truths from a few
        # values, unknown (-1) among them, so pure and impure persons are
        # both common.
        rng = np.random.default_rng(seed)
        n_cameras, n = int(rng.integers(1, 5)), int(rng.integers(0, 30))
        cams = rng.integers(0, n_cameras, size=n)
        local = np.zeros(n, dtype=np.int64)
        for cam in range(n_cameras):
            here = np.flatnonzero(cams == cam)
            k = max(1, min(int(rng.integers(1, 4)), here.size))
            local[here] = rng.permutation(np.arange(here.size) % k)
        truth = rng.integers(-1, 3, size=n)
        try:
            slow.truth_purity(cams, local, truth)
        except ContractError as e:
            with pytest.raises(ContractError) as err:
                Dataset(np.zeros((n, 1)), cams, local, truth, n_cameras, "train")
            assert (str(err.value), err.value.sample) == (str(e), e.sample)
            return
        Dataset(np.zeros((n, 1)), cams, local, truth, n_cameras, "train")


class TestRoundTrip:
    def test_roundtrip_equality(self, tiny_corpus, tmp_path):
        for split, ds in tiny_corpus.items():
            p = tmp_path / f"{split}.txt"
            save_dataset(ds, p)
            assert load_dataset(p) == ds

    def test_roundtrip_zero_distortion(self, tmp_path):
        spec = SynthSpec(
            n_identities=4, n_cameras=2, images_per_person=2,
            camera_transform_scale=0.0, noise_sigma=0.0, seed=1,
        )
        ds = generate_synthetic(spec)["train"]
        save_dataset(ds, tmp_path / "d.txt")
        assert load_dataset(tmp_path / "d.txt") == ds

    def test_empty_dataset_roundtrips(self, tmp_path):
        empty = Dataset(
            np.zeros((0, 5)), np.zeros(0, dtype=int), np.zeros(0, dtype=int),
            np.zeros(0, dtype=int), 3, "gallery",
        )
        save_dataset(empty, tmp_path / "e.txt")
        loaded = load_dataset(tmp_path / "e.txt")
        assert loaded == empty
        assert loaded.n_cameras == 3 and loaded.d_in == 5 and loaded.split == "gallery"

    def test_truncated_file_is_a_parse_error(self, tiny_train, tmp_path):
        p = tmp_path / "t.txt"
        save_dataset(tiny_train, p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        with pytest.raises(FormatError):
            load_dataset(p)

    def test_malformed_record_names_the_line(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text(
            "crosscam-dataset v1\nsplit train\nn_cameras 2\nd_in 2\nn_samples 1\n"
            "0 0 - 1.0 not-a-number\nend\n"
        )
        with pytest.raises(FormatError) as err:
            load_dataset(p)
        assert err.value.line == 6

    def test_nan_gallery_row_names_the_line(self, tiny_corpus, tmp_path):
        # A NaN feature used to load silently and score as a plausible mAP.
        p = tmp_path / "gallery.txt"
        save_dataset(tiny_corpus["gallery"], p)
        lines = p.read_text().splitlines()
        record = 7
        fields = lines[5 + record].split()
        fields[4] = "nan"
        lines[5 + record] = " ".join(fields)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as err:
            load_dataset(p)
        assert err.value.line == 6 + record
        assert f"record {record}" in str(err.value)

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("crosscam-dataset v9\nsplit train\nn_cameras 2\nd_in 2\nn_samples 0\nend\n")
        with pytest.raises(VersionError):
            load_dataset(p)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip_is_lossless_property(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        spec = SynthSpec(
            n_identities=int(rng.integers(2, 8)),
            n_cameras=int(rng.integers(2, 4)),
            d_latent=3,
            d_in=int(rng.integers(2, 6)),
            images_per_person=int(rng.integers(2, 4)),
            camera_appearance_prob=float(rng.uniform(0.3, 1.0)),
            seed=seed,
        )
        ds = generate_synthetic(spec)["train"]
        p = tmp_path_factory.mktemp("rt") / "ds.txt"
        save_dataset(ds, p)
        assert load_dataset(p) == ds
