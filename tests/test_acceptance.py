"""Acceptance gate: seven numbered end-to-end checks, one test each.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion:

1. analytic gradients of all three losses, composed through the
   embedding network (and classifier head), match central finite
   differences;
2. triplet loss, hardest-negative selection, affinity construction, and
   retrieval metrics match independent brute-force oracles;
3. structural affinity invariants hold on randomized instances;
4. the committed benchmark reproduces every expected ablation ordering
   (median over five paired seeds);
5. affinity quality improves from the first joint epoch to the end of
   training on every benchmark seed;
6. training is bitwise reproducible from config + seed;
7. degenerate inputs behave as contracted (single camera rejected,
   lam=0 equals the warmup-only path bitwise, zero-distortion data is
   solved by warmup alone).

The benchmark fixture trains 8 settings x 5 seeds and takes a few
minutes; it runs once per session and is shared by criteria 4 and 5.
"""

import dataclasses
import statistics

import numpy as np
import pytest

import slow_references as slow
from crosscam import (
    AffinityError,
    Dataset,
    PersonIndex,
    SynthSpec,
    TripletBatch,
    evaluate,
    generate_synthetic,
    intra_triplet_loss,
    select_hardest_negative,
    softmax_probs,
    train,
    weighted_cross_entropy,
    weighted_triplet_loss,
)
from crosscam.affinity import build_affinity, soft_label_rows
from crosscam.benchmark import (
    benchmark_config,
    benchmark_corpus,
    run_benchmark,
)
from crosscam.buffer import new_buffer, update_person
from crosscam.model import (
    ClassifierHead,
    EmbeddingModel,
    backward,
    forward_with_hidden,
    head_backward,
    head_forward,
    init_head,
    init_model,
    save_checkpoint,
)
from oracles import (
    finite_difference_at,
    oracle_affinity,
    oracle_average_precision,
    oracle_hardest_negative,
    oracle_retrieval,
    oracle_triplet_loss,
    relative_error,
)


@pytest.fixture(scope="module")
def bench_corpus():
    return benchmark_corpus()


@pytest.fixture(scope="module")
def bench_outcome(bench_corpus):
    return run_benchmark(bench_corpus)


# --- criterion 1: gradients through the network ------------------------------

D_IN, HIDDEN, EMBED, N_CLASSES = 6, 8, 5, 7
FD_EPS = 1e-5
FD_TOL = 1e-4
N_COORDS = 20


def _flat_params(model, head=None):
    parts = [model.W1.ravel(), model.b1.ravel(), model.W2.ravel(), model.b2.ravel()]
    if head is not None:
        parts += [head.Wc.ravel(), head.bc.ravel()]
    return np.concatenate(parts)


def _from_flat(flat, with_head):
    sizes = [HIDDEN * D_IN, HIDDEN, EMBED * HIDDEN, EMBED]
    if with_head:
        sizes += [N_CLASSES * EMBED, N_CLASSES]
    chunks = np.split(np.asarray(flat, dtype=np.float64), np.cumsum(sizes)[:-1])
    model = EmbeddingModel(
        W1=chunks[0].reshape(HIDDEN, D_IN),
        b1=chunks[1].copy(),
        W2=chunks[2].reshape(EMBED, HIDDEN),
        b2=chunks[3].copy(),
    )
    head = None
    if with_head:
        head = ClassifierHead(Wc=chunks[4].reshape(N_CLASSES, EMBED), bc=chunks[5].copy())
    return model, head


def _grads_to_flat(grads, with_head):
    order = ["W1", "b1", "W2", "b2"] + (["Wc", "bc"] if with_head else [])
    return np.concatenate([grads[name].ravel() for name in order])


def _check_fd(loss_and_grads, flat0, with_head, rng):
    """Compare analytic gradients with central differences at N_COORDS spots."""
    loss0, analytic = loss_and_grads(flat0)
    assert loss0 > 0.0, "the probed loss must be active for the check to mean anything"
    coords = rng.choice(flat0.size, size=N_COORDS, replace=False)
    numeric = finite_difference_at(
        lambda flat: loss_and_grads(flat)[0], flat0, coords, eps=FD_EPS
    )
    for c, n in zip(coords, numeric):
        err = relative_error(analytic[c], n)
        assert err <= FD_TOL, (
            f"coordinate {c}: analytic {analytic[c]:.6e} vs numeric {n:.6e} (rel {err:.2e})"
        )


def test_criterion_1_gradient_suite():
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        model0 = init_model(D_IN, HIDDEN, EMBED, rng)
        head0 = init_head(EMBED, N_CLASSES, rng)
        coord_rng = np.random.default_rng(5000 + seed)

        # Within-camera triplet loss through the network.
        X_tri = rng.standard_normal((6, D_IN))
        tri_classes = np.array([0, 1, 2])

        def intra_case(flat):
            model, _ = _from_flat(flat, with_head=False)
            E, H = forward_with_hidden(model, X_tri)
            lv = intra_triplet_loss(
                TripletBatch(E.reshape(3, 2, EMBED), tri_classes), margin=0.5
            )
            grads = backward(model, X_tri, lv.grads["embeddings"].reshape(6, EMBED), H)
            return lv.loss, _grads_to_flat(grads, with_head=False)

        _check_fd(intra_case, _flat_params(model0), False, coord_rng)

        # Soft-label cross-entropy through the network and the head.
        X_ce = rng.standard_normal((4, D_IN))
        W_rows = rng.uniform(0.1, 1.0, size=(4, N_CLASSES))
        W_rows /= W_rows.sum(axis=1, keepdims=True)

        def ce_case(flat):
            model, head = _from_flat(flat, with_head=True)
            V, H = forward_with_hidden(model, X_ce)
            probs = softmax_probs(head_forward(head, V))
            lv = weighted_cross_entropy(probs, slow.label_table(W_rows))
            head_grads, dV = head_backward(head, V, lv.grads["scores"])
            grads = backward(model, X_ce, dV, H)
            grads.update(head_grads)
            return lv.loss, _grads_to_flat(grads, with_head=True)

        _check_fd(ce_case, _flat_params(model0, head0), True, coord_rng)

        # Weighted soft triplet loss through the network.
        X_wt = rng.standard_normal((5, D_IN))  # anchor, 3 positives, negative
        w = rng.uniform(0.2, 1.0, size=3)
        w /= w.sum()

        def wt_case(flat):
            model, _ = _from_flat(flat, with_head=False)
            V, H = forward_with_hidden(model, X_wt)
            lv = weighted_triplet_loss(V[None, 0], V[None, 1:4], w[None], V[None, 4], margin=1.0)
            dV = np.zeros_like(V)
            dV[0] = lv.grads["anchor"][0]
            dV[1:4] = lv.grads["positives"][0]
            dV[4] = lv.grads["negative"][0]
            grads = backward(model, X_wt, dV, H)
            return lv.loss, _grads_to_flat(grads, with_head=False)

        _check_fd(wt_case, _flat_params(model0), False, coord_rng)


# --- criterion 2: brute-force oracles ----------------------------------------


def _identity_model(d):
    eye = np.eye(d)
    return EmbeddingModel(
        W1=np.vstack([eye, -eye]), b1=np.zeros(2 * d),
        W2=np.hstack([eye, -eye]), b2=np.zeros(d),
    )


def _buffer_of(columns):
    buf = new_buffer(columns.shape[1], columns.shape[0])
    update_person(buf, np.arange(columns.shape[0]), columns[:, None, :])
    return buf


def test_criterion_2_oracle_suite():
    # Intra-camera triplet loss against pairwise enumeration.
    rng = np.random.default_rng(2000)
    for _ in range(10):
        n_p, n_k = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        E = rng.standard_normal((n_p, n_k, int(rng.integers(2, 5))))
        classes = rng.permutation(12)[:n_p]
        margin = float(rng.uniform(0.0, 1.0))
        got = intra_triplet_loss(TripletBatch(E, classes), margin).loss
        want = oracle_triplet_loss(
            E.reshape(n_p * n_k, -1), np.repeat(classes, n_k), margin
        )
        assert abs(got - want) <= 1e-9

    # Hardest-negative selection against a linear scan.
    for _ in range(20):
        n = int(rng.integers(2, 12))
        batch = rng.standard_normal((n, 3))
        classes = rng.integers(0, 4, size=n)
        if not (classes != 0).any():
            classes[-1] = 1
        anchor = rng.standard_normal(3)
        assert select_hardest_negative(anchor[None], batch, classes, np.array([0])).tolist() == [
            oracle_hardest_negative(anchor, batch, classes, 0)
        ]

    # Affinity construction (C <= 12) against exhaustive pair enumeration.
    for _ in range(10):
        n_cams = int(rng.integers(2, 4))
        counts = tuple(int(rng.integers(1, 5)) for _ in range(n_cams))
        C = sum(counts)
        if C > 12 or C < 2:
            counts = (2, 2)
            C = 4
        cols = rng.standard_normal((C, 3))
        k = int(rng.integers(1, C + 1))
        aff = build_affinity(_buffer_of(cols), PersonIndex(counts), k=k)
        A_ref, sig_ref = oracle_affinity(cols, PersonIndex(counts).camera_of_class_array(), k)
        assert abs(aff.sigma_sq - sig_ref) <= 1e-9 * max(1.0, abs(sig_ref))
        np.testing.assert_allclose(aff.A, A_ref, atol=1e-9)

    # Average precision against the definition.
    for _ in range(20):
        rel = (rng.uniform(size=int(rng.integers(1, 10))) < 0.4).astype(int)
        if not rel.any():
            rel[int(rng.integers(rel.size))] = 1
        assert abs(slow.hit_ap(rel) - oracle_average_precision(rel)) <= 1e-9

    # Full retrieval (<= 50 gallery items) against definition-level loops.
    for trial in range(5):
        nq, ng, d = int(rng.integers(3, 7)), int(rng.integers(20, 51)), 4
        q_feat = rng.standard_normal((nq, d))
        q_truth = rng.integers(0, 6, size=nq)
        q_cam = rng.integers(0, 3, size=nq)
        g_feat = rng.standard_normal((ng, d))
        g_truth = rng.integers(0, 6, size=ng)
        g_cam = rng.integers(0, 3, size=ng)
        # Guarantee every query a cross-camera match.
        for qi in range(nq):
            g_truth[qi] = q_truth[qi]
            g_cam[qi] = (q_cam[qi] + 1) % 3

        def _split(feats, cams, truths, split):
            # Each item its own person: a camera's local ids count its items.
            local = [int(np.sum(cams[:i] == cams[i])) for i in range(len(cams))]
            return Dataset(feats, cams, local, truths, 3, split)

        query = _split(q_feat, q_cam, q_truth, "query")
        gallery = _split(g_feat, g_cam, g_truth, "gallery")
        res = evaluate(_identity_model(d), query, gallery)
        want_map, want_cmc = oracle_retrieval(q_feat, q_truth, q_cam, g_feat, g_truth, g_cam)
        assert abs(res.map - want_map) <= 1e-9
        for k in (1, 5, 10, 20):
            assert abs(res.cmc[k] - want_cmc[k]) <= 1e-9


# --- criterion 3: affinity invariants ----------------------------------------


def test_criterion_3_affinity_invariants():
    rng = np.random.default_rng(3000)
    for trial in range(100):
        n_cams = int(rng.integers(2, 5))
        counts = tuple(int(rng.integers(1, 5)) for _ in range(n_cams))
        index = PersonIndex(counts)
        C = index.total
        cols = rng.standard_normal((C, int(rng.integers(2, 6))))
        k = int(rng.integers(1, C + 2))
        aff = build_affinity(_buffer_of(cols), index, k=k)
        cameras = index.camera_of_class_array()

        same_camera = cameras[:, None] == cameras[None, :]
        assert np.all(aff.A[same_camera] == 0.0), f"trial {trial}: same-camera leak"
        assert (np.count_nonzero(aff.A, axis=1) <= k).all(), f"trial {trial}: row sparsity"
        assert aff.A.min() >= 0.0 and aff.A.max() <= 1.0, f"trial {trial}: range"

        for row in soft_label_rows(aff):
            if row.degenerate:
                assert np.all(aff.A[row.class_index] == 0.0)
            else:
                assert abs(row.weights.sum() - 1.0) <= 1e-9, f"trial {trial}: row sum"


# --- criterion 4: benchmark ablation directions ------------------------------


def test_criterion_4_ablation_directions(bench_outcome):
    def med(label):
        return bench_outcome.row(label).median_map

    base = med("baseline_intra")

    assert med("soft_ce") > base, (
        f"soft cross-entropy {med('soft_ce'):.4f} must beat intra-only {base:.4f}"
    )
    assert med("soft_triplet") > base, (
        f"soft triplet {med('soft_triplet'):.4f} must beat intra-only {base:.4f}"
    )
    assert base > med("random_mining"), (
        f"hard mining {base:.4f} must beat random mining {med('random_mining'):.4f}"
    )
    assert med("soft_triplet") >= med("soft_triplet_unmasked"), (
        f"masked {med('soft_triplet'):.4f} must not trail unmasked "
        f"{med('soft_triplet_unmasked'):.4f}"
    )
    assert med("soft_triplet") >= med("soft_triplet_w"), (
        f"uniform weights {med('soft_triplet'):.4f} must not trail affinity weights "
        f"{med('soft_triplet_w'):.4f}"
    )
    assert med("soft_triplet") >= med("soft_triplet_nearest"), (
        f"random positives {med('soft_triplet'):.4f} must not trail nearest positives "
        f"{med('soft_triplet_nearest'):.4f}"
    )


# --- criterion 5: affinity-quality trend -------------------------------------


def test_criterion_5_affinity_quality_trend(bench_outcome):
    for run in bench_outcome.row("full").runs:
        quality = [r.affinity_map for r in run.log.records if r.affinity_map is not None]
        assert len(quality) >= 11, "need a first joint epoch plus a 10-epoch tail"
        first = quality[0]
        tail = statistics.median(quality[-10:])
        assert tail > first, (
            f"seed {run.seed}: affinity quality fell from {first:.4f} to {tail:.4f}"
        )


# --- criterion 6: bitwise determinism ----------------------------------------


def _checkpoint_bytes(path, result):
    save_checkpoint(
        str(path), result.model, result.head, result.optimizer, result.opt_state,
        extra_arrays={
            "buffer.P": result.buffer.P,
            "buffer.initialized": result.buffer.initialized.astype(np.float64),
        },
        extra_scalars={"buffer.t": float(result.buffer.t)},
    )
    with open(path) as fh:
        return fh.read()


def test_criterion_6_bitwise_determinism(bench_corpus, tmp_path):
    cfg = benchmark_config(epochs=16, warmup_epochs=8, decay_epoch=12, seed=9)
    a = train(bench_corpus["train"], cfg)
    b = train(bench_corpus["train"], cfg)

    assert a.log.to_csv() == b.log.to_csv()
    assert a.log.to_json() == b.log.to_json()
    assert _checkpoint_bytes(tmp_path / "a.txt", a) == _checkpoint_bytes(tmp_path / "b.txt", b)


# --- criterion 7: degenerate-case conformance --------------------------------


def test_criterion_7_degenerate_case_conformance(bench_corpus, tmp_path):
    # (i) a single-camera dataset is rejected when the affinity is built.
    rng = np.random.default_rng(7)
    cols = rng.standard_normal((4, 3))
    with pytest.raises(AffinityError):
        build_affinity(_buffer_of(cols), PersonIndex((4,)), k=2)

    persons = np.repeat(np.arange(4), 2)
    one_cam = Dataset(rng.standard_normal((8, 4)), np.zeros(8, dtype=int), persons, persons,
                      1, "train")
    joint_cfg = dataclasses.replace(
        benchmark_config(epochs=2, warmup_epochs=1, decay_epoch=2, inter_mode="D"),
        n_p=4, n_k=2, k=2, hidden_dim=8, embed_dim=4,
    )
    with pytest.raises(AffinityError):
        train(one_cam, joint_cfg)

    # (ii) lam=0 training is bitwise identical to the warmup-only path.
    lam0 = train(
        bench_corpus["train"],
        benchmark_config(epochs=12, warmup_epochs=8, decay_epoch=10, lam=0.0, seed=5),
    )
    warm = train(
        bench_corpus["train"],
        benchmark_config(epochs=12, warmup_epochs=12, decay_epoch=10, seed=5),
    )
    assert _checkpoint_bytes(tmp_path / "lam0.txt", lam0) == (
        _checkpoint_bytes(tmp_path / "warm.txt", warm)
    )
    for ra, rb in zip(lam0.log.records, warm.log.records):
        assert repr(ra.intra_loss) == repr(rb.intra_loss)

    # (iii) zero-distortion data is solved by warmup alone.
    zd = generate_synthetic(
        SynthSpec(
            n_identities=20, n_cameras=3, d_latent=3, d_in=12,
            images_per_person=3, camera_transform_scale=0.0, noise_sigma=0.0, seed=13,
        )
    )
    cfg = dataclasses.replace(
        benchmark_config(epochs=4, warmup_epochs=4, decay_epoch=3, seed=2),
        n_p=20, n_k=2, hidden_dim=16, embed_dim=8,
    )
    result = train(zd["train"], cfg)
    scored = evaluate(result.model, zd["query"], zd["gallery"])
    assert scored.cmc[1] == 1.0
