import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from crosscam import (
    ConfigError,
    ContractError,
    Dataset,
    EvaluationError,
    EmbeddingModel,
    SynthSpec,
    TrainConfig,
    evaluate,
    generate_synthetic,
    init_model,
    run_ablation,
    train,
)
from crosscam import affinity
from crosscam.affinity import PRODUCT_ELEMENTS
from crosscam.benchmark import ABLATION_AXES, ABLATION_SETTINGS, parse_seeds
from crosscam.evaluation import CMC_KS
from crosscam.model import forward_batch
from crosscam.ranking import hit_aps
from oracles import oracle_average_precision, oracle_retrieval
from slow_references import hit_ap


def identity_model(d):
    """Exact identity map for arbitrary signed inputs: relu(x) - relu(-x) = x."""
    eye = np.eye(d)
    return EmbeddingModel(
        W1=np.vstack([eye, -eye]),
        b1=np.zeros(2 * d),
        W2=np.hstack([eye, -eye]),
        b2=np.zeros(d),
    )


def eval_split(split, *items):
    """A two-camera Dataset of (feature, camera, local id, truth) items."""
    features, cams, local, truth = zip(*items)
    return Dataset(np.array(features, dtype=np.float64), cams, local, truth, 2, split)


class TestAveragePrecision:
    """AP of one ranked list through ranking.hit_aps, the code evaluate runs."""

    def test_perfect_ranking(self):
        assert hit_ap(np.array([1, 1, 0, 0])) == 1.0

    def test_worked_example(self):
        ap = hit_ap(np.array([1, 0, 1]))
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)
        assert ap == pytest.approx(0.8333, abs=1e-4)

    def test_single_relevant_at_rank_r(self):
        for r in range(1, 6):
            rel = np.zeros(6, dtype=int)
            rel[r - 1] = 1
            assert hit_ap(rel) == pytest.approx(1.0 / r, abs=1e-12)

    def test_undefined_without_relevant(self):
        with pytest.raises(ContractError):
            hit_ap(np.zeros(4, dtype=int))
        # hit_aps gives such a list no row, so evaluate skips its query.
        rows, aps = hit_aps(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert rows.size == 0 and aps.size == 0

    @pytest.mark.parametrize("pattern", [[1], [0, 1], [1, 1, 1], [0, 1, 0, 1, 1]])
    def test_matches_definition_oracle(self, pattern):
        got = hit_ap(np.array(pattern))
        assert got == pytest.approx(oracle_average_precision(pattern), abs=1e-12)


class TestEvaluate:
    def test_zero_distortion_corpus_is_solved_by_identity(self):
        spec = SynthSpec(
            n_identities=12, n_cameras=3, d_latent=3, d_in=6,
            images_per_person=3, camera_transform_scale=0.0, noise_sigma=0.0, seed=4,
        )
        splits = generate_synthetic(spec)
        res = evaluate(identity_model(6), splits["query"], splits["gallery"])
        assert res.map == pytest.approx(1.0, abs=1e-12)
        assert all(res.cmc[k] == 1.0 for k in CMC_KS)
        assert res.n_skipped == 0

    def test_junk_rule_excludes_same_person_same_camera(self):
        query = eval_split("query", ([0.0, 0.0], 0, 0, 0))
        gallery = eval_split(
            "gallery",
            ([0.0, 0.0], 0, 0, 0),   # junk: same person, same camera
            ([0.5, 0.0], 1, 0, 1),   # distractor, nearer
            ([1.0, 0.0], 1, 1, 0),   # true cross-camera match
        )
        res = evaluate(identity_model(2), query, gallery)
        # The distance-zero junk copy must not count as the top hit.
        assert res.cmc[1] == 0.0
        assert res.map == pytest.approx(0.5, abs=1e-12)
        assert res.n_evaluated == 1

    def test_query_without_cross_camera_match_is_skipped(self):
        query = eval_split(
            "query",
            ([0.0, 0.0], 0, 0, 0),
            ([5.0, 0.0], 0, 1, 7),  # person 7 only exists on camera 0
        )
        gallery = eval_split(
            "gallery",
            ([5.1, 0.0], 0, 0, 7),  # junk for the second query
            ([0.2, 0.0], 1, 0, 0),
        )
        res = evaluate(identity_model(2), query, gallery)
        assert res.n_evaluated == 1
        assert res.n_skipped == 1
        assert res.map == pytest.approx(1.0, abs=1e-12)

    def test_all_queries_skipped_is_an_error(self):
        query = eval_split("query", ([0.0, 0.0], 0, 0, 3))
        gallery = eval_split("gallery", ([0.1, 0.0], 0, 0, 3))
        with pytest.raises(EvaluationError):
            evaluate(identity_model(2), query, gallery)

    def test_matches_definition_oracle(self, tiny_corpus, rng):
        model = init_model(tiny_corpus["query"].d_in, 16, 8, rng)
        res = evaluate(model, tiny_corpus["query"], tiny_corpus["gallery"])
        Vq = forward_batch(model, tiny_corpus["query"].features)
        Vg = forward_batch(model, tiny_corpus["gallery"].features)
        want_map, want_cmc = oracle_retrieval(
            Vq, tiny_corpus["query"].truth, tiny_corpus["query"].camera_ids,
            Vg, tiny_corpus["gallery"].truth, tiny_corpus["gallery"].camera_ids,
        )
        assert res.map == pytest.approx(want_map, abs=1e-9)
        for k in CMC_KS:
            assert res.cmc[k] == pytest.approx(want_cmc[k], abs=1e-12)

    def test_rank_k_accuracy_is_monotone(self, tiny_corpus, rng):
        model = init_model(tiny_corpus["query"].d_in, 16, 8, rng)
        res = evaluate(model, tiny_corpus["query"], tiny_corpus["gallery"])
        assert res.cmc[1] <= res.cmc[5] <= res.cmc[10] <= res.cmc[20]
        assert all(0.0 <= res.cmc[k] <= 1.0 for k in CMC_KS)
        assert 0.0 <= res.map <= 1.0

    def test_gallery_order_does_not_change_map(self, tiny_corpus, rng):
        model = init_model(tiny_corpus["query"].d_in, 16, 8, rng)
        g = tiny_corpus["gallery"]
        perm = np.random.default_rng(0).permutation(len(g))
        shuffled = Dataset(g.features[perm], g.camera_ids[perm], g.local_ids[perm], g.truth[perm],
                           g.n_cameras, "gallery")
        a = evaluate(model, tiny_corpus["query"], g)
        b = evaluate(model, tiny_corpus["query"], shuffled)
        assert a.map == pytest.approx(b.map, abs=1e-9)

    def test_read_only(self, tiny_corpus, rng):
        model = init_model(tiny_corpus["query"].d_in, 16, 8, rng)
        before = {k: v.copy() for k, v in model.params().items()}
        fq = tiny_corpus["query"].features.copy()
        evaluate(model, tiny_corpus["query"], tiny_corpus["gallery"])
        for k, v in model.params().items():
            assert np.array_equal(v, before[k])
        assert np.array_equal(tiny_corpus["query"].features, fq)

    def test_non_finite_embeddings_refused_with_their_count(self, tiny_corpus, rng):
        model = init_model(tiny_corpus["query"].d_in, 16, 8, rng)
        model.W2[0, 0] = np.nan  # every embedding's first coordinate
        nq, ng = len(tiny_corpus["query"]), len(tiny_corpus["gallery"])
        with pytest.raises(EvaluationError, match=rf"^{nq} of {nq} query and {ng} of {ng} "
                                                  "gallery embeddings are not finite"):
            evaluate(model, tiny_corpus["query"], tiny_corpus["gallery"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to the refusal
    def test_one_overflowing_gallery_embedding_refused(self):
        query = eval_split("query", ([0.0, 0.0], 0, 0, 3))
        gallery = eval_split("gallery", ([0.1, 0.0], 1, 0, 3), ([1e300, 0.0], 1, 1, 4))
        model = identity_model(2)
        model.W1 *= 1e10  # finite parameters, an infinite hidden unit for the second item
        with pytest.raises(EvaluationError, match=r"^0 of 1 query and 1 of 2 gallery embeddings"):
            evaluate(model, query, gallery)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to the refusal
    def test_overflowing_distances_refused_with_their_count(self):
        query = eval_split("query", ([0.0, 0.0], 0, 0, 3))
        gallery = eval_split("gallery", ([0.1, 0.0], 1, 0, 3), ([1e200, 0.0], 1, 1, 4))
        with pytest.raises(EvaluationError, match=r"^1 query-gallery squared distances overflow"):
            evaluate(identity_model(2), query, gallery)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to the refusal
    def test_overflow_counted_over_every_product_block(self):
        # One query row per product block: the first block is finite, and
        # each later one holds overflowing distances, all of them counted.
        query = eval_split("query", ([0.0, 0.0], 0, 0, 3), ([1e200, 0.0], 1, 0, 4),
                           ([0.0, 1e200], 0, 1, 5))
        gallery = eval_split("gallery", ([0.1, 0.0], 1, 0, 3), ([0.2, 0.0], 0, 0, 4),
                             ([0.3, 0.0], 1, 1, 5))
        with mock.patch.object(affinity, "PRODUCT_ELEMENTS", 1), \
                pytest.raises(EvaluationError, match=r"^6 query-gallery squared distances overflow"):
            evaluate(identity_model(2), query, gallery)

    def test_peak_far_under_a_query_gallery_matrix(self):
        """Distances come one product block of query rows at a time: with
        relevant items deep in each row (random features), the peak is that
        block plus its near prefix and its sorted copy, far under Q x G."""
        Q, G, d, n_cameras = 1500, 6000, 4, 3
        rng = np.random.default_rng(3)

        def split(n, name):
            truth, cams = rng.integers(0, 300, size=n), rng.integers(0, n_cameras, size=n)
            local = np.zeros(n, dtype=np.int64)
            for cam in range(n_cameras):
                local[cams == cam] = np.unique(truth[cams == cam], return_inverse=True)[1]
            return Dataset(rng.standard_normal((n, d)), cams, local, truth, n_cameras, name)

        query, gallery, model = split(Q, "query"), split(G, "gallery"), identity_model(d)
        gc.collect()
        tracemalloc.start()
        try:
            evaluate(model, query, gallery)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Three float blocks (the block, its near values, their sorted copy),
        # two masks of a block, and the pairs.
        assert peak <= 3 * PRODUCT_ELEMENTS * 8 + 2 * PRODUCT_ELEMENTS + (1 << 21)
        assert peak <= 0.5 * Q * G * 8

    def test_contract_violations(self, tiny_corpus, rng):
        model = init_model(tiny_corpus["query"].d_in, 16, 8, rng)
        other = eval_split("gallery", ([0.0], 0, 0, 0))
        with pytest.raises(ContractError):
            evaluate(model, tiny_corpus["query"], other)
        unlabeled = Dataset(np.zeros((1, tiny_corpus["query"].d_in)), [0], [0], [-1],
                            tiny_corpus["query"].n_cameras, "gallery")
        with pytest.raises(ContractError):
            evaluate(model, tiny_corpus["query"], unlabeled)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(
        SynthSpec(n_identities=16, n_cameras=3, images_per_person=3, d_in=12, seed=21)
    )


@pytest.fixture(scope="module")
def base_config():
    return TrainConfig(
        n_p=16, n_k=2, epochs=2, warmup_epochs=1,
        hidden_dim=12, embed_dim=6, class_batch_total=6,
    )


@pytest.fixture(scope="module")
def inter_result(corpus, base_config):
    return run_ablation(
        corpus["train"], base_config, "inter_mode",
        corpus["query"], corpus["gallery"], seeds=(1, 2),
    )


class TestAblationHarness:
    def test_axis_rows_and_labels(self, inter_result):
        assert [r.label for r in inter_result.rows] == ["baseline_intra_only", "C", "D"]
        for row in inter_result.rows:
            assert [run.seed for run in row.runs] == [1, 2]

    def test_logs_keyed_by_label_and_seed(self, inter_result):
        assert {(label, run.seed) for label, run in inter_result.runs()} == {
            (label, seed) for label in ("baseline_intra_only", "C", "D") for seed in (1, 2)
        }
        for _, run in inter_result.runs():
            assert len(run.log.records) == 2

    def test_medians_are_medians(self, inter_result):
        import statistics

        for row in inter_result.rows:
            assert row.median_map == statistics.median(r.map for r in row.runs)
            assert row.median_rank1 == statistics.median(r.rank1 for r in row.runs)

    def test_baseline_row_matches_direct_training(self, corpus, base_config, inter_result):
        import dataclasses

        cfg = dataclasses.replace(base_config, lam=0.0, seed=1)
        direct = train(corpus["train"], cfg, query=corpus["query"], gallery=corpus["gallery"])
        scored = evaluate(direct.model, corpus["query"], corpus["gallery"])
        baseline = inter_result.rows[0]
        assert baseline.runs[0].map == scored.map
        assert baseline.runs[0].rank1 == scored.cmc[1]

    def test_table_text_lists_every_row(self, inter_result):
        text = inter_result.table_text()
        for row in inter_result.rows:
            assert row.label in text
        assert text.splitlines()[0].startswith("setting")

    def test_jsonable_round_trips_through_json(self, inter_result):
        import json

        payload = json.loads(json.dumps(inter_result.to_jsonable()))
        assert payload["axis"] == "inter_mode"
        assert [r["label"] for r in payload["rows"]] == ["baseline_intra_only", "C", "D"]
        for row in payload["rows"]:
            assert len(row["runs"]) == 2

    def test_mining_axis_disables_cross_camera_objective(self, base_config):
        settings = ABLATION_SETTINGS["mining_mode"]
        assert all(overrides.get("lam") == 0.0 for overrides in settings.values())

    def test_every_declared_axis_has_settings(self, base_config):
        for axis in ABLATION_AXES:
            assert len(ABLATION_SETTINGS[axis]) >= 2

    @pytest.mark.parametrize("seeds", [(), (1, 2, 1)])
    def test_empty_or_repeated_seeds_refused(self, corpus, base_config, seeds):
        with pytest.raises(ConfigError, match="seeds must name at least one seed, each once"):
            run_ablation(corpus["train"], base_config, "inter_mode",
                         corpus["query"], corpus["gallery"], seeds=seeds)

    def test_seed_list_parsing(self):
        assert parse_seeds("3, 1,,2") == (3, 1, 2)
        with pytest.raises(ConfigError, match="comma-separated integer list"):
            parse_seeds("1,two")

    def test_unknown_axis_refused(self, corpus, base_config):
        with pytest.raises(ContractError, match="axis"):
            run_ablation(
                corpus["train"], base_config, "nonsense",
                corpus["query"], corpus["gallery"], seeds=(1,),
            )
