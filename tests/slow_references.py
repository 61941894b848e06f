"""Per-row and per-anchor references for the package's batched paths.

These are the loops the package ran before its D (weighted triplet) and
C (soft cross-entropy) paths were batched, one call per anchor or per
sample, in order, before affinity construction, retrieval scoring
and affinity quality counted ranks instead of sorting each row, before
an affinity's positive entries were packed in one pass, before the
per-row generator draws were replayed in one batch and the buffer was
updated once per batch, before the soft-label rows were normalized as
one block, before retrieval ranks were searched in sorted rows
instead of counted by one scan of the row per relevant item, before
the person index grouped a dataset's records by camera in one sort, and
before a dataset checked the truth of each person in one sort, and
before the soft cross-entropy step, the softmax, the head's scores and
the momentum update stopped allocating a full-width array per operation
and row scatters went through one flat index, before the batch-hard
triplet loss took its square root in place and scattered its terms once
and the weighted triplet loss took its negative distances from one
batched dot, before the embedding network's backward pass took the
forward's hidden activations and gated its ReLU by a bit mask, and
before the soft-triplet step drew its follow-up words in the same
integers call as its choice draws, screened the hardest negative with
one bound per row and computed the weighted triplet gradients on every
row (those three batched forms are frozen here as replayed_choice_rows,
screened_hardest_negative and gathered_weighted_triplet_loss).  The
distance kernel both slow scorers use is a frozen copy of the package's
one-expression form, applied to the package's product blocks of rows
(squared_distance_blocks); with one block it is the one-call kernel.
tests/test_batched_equivalence.py, tests/test_ranking_equivalence.py,
tests/test_draws_equivalence.py, tests/test_inplace_equivalence.py,
tests/test_iteration_equivalence.py, tests/test_model_equivalence.py,
tests/test_soft_triplet_layers.py and tests/test_data.py check that the
package gives the same bits (or errors), generator state included.

It also holds the helpers that only tests need, so that the package
keeps one call shape per layer: label_table and affinity_from_dense
build the package's k-sparse tables and affinities from dense rows (the
C loss takes a batch of table rows only), row_nonzeros
reads a dense soft-label row, hit_ap scores one ranked list through
ranking.hit_aps, the code evaluate runs, and same_bits is the bitwise
comparison every equivalence test makes.
"""

from __future__ import annotations

import numpy as np

from crosscam.affinity import AffinityMatrix, _pack, _soft_labels
from crosscam.buffer import update_person
from crosscam.errors import AffinityError, ContractError, EvaluationError, SelectionError
from crosscam.losses import weighted_cross_entropy as table_cross_entropy
from crosscam.model import BODY_PARAMS, forward_with_hidden, head_backward
from crosscam.model import backward as backward_from_hidden
from crosscam.ranking import hit_aps
from crosscam.trainer import classification_sampler

LOG_FLOOR = 1e-12


def same_bits(a, b) -> bool:
    """Whether two arrays (or scalars) have the same shape, dtype and bytes,
    so signed zeros and NaN payloads count."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def squared_distances(a, b):
    """(len(a), len(b)) squared Euclidean distances, clipped at 0: the
    package's distance kernel in its one-expression form, frozen here so
    that the slow evaluate and build_affinity do not use the kernel they
    check."""
    d2 = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0, out=d2)


def squared_distance_blocks(a, b, rows=None):
    """[(lo, block)]: the frozen kernel applied to each block of `rows` rows
    of a (by default one block of all of them)."""
    rows = rows or max(a.shape[0], 1)
    return [(lo, squared_distances(a[lo:lo + rows], b)) for lo in range(0, a.shape[0], rows)]


def _unit_difference(a, b, dist):
    """d/da of ||a - b||; zero at coinciding points."""
    if dist <= 0.0:
        return np.zeros_like(a)
    return (a - b) / dist


def label_table(W, class_index=None):
    """The nonzero entries of dense rows W as one SoftLabelTable, row r for
    class class_index[r] (by default r); each row's columns ascend."""
    W = np.asarray(W, dtype=np.float64)
    rows, cols = np.nonzero(W)
    class_index = np.arange(W.shape[0]) if class_index is None else np.asarray(class_index)
    return _pack(class_index, rows, cols, W[rows, cols], W.shape[1])


def affinity_from_dense(A, sigma_sq, camera_of_class, masked):
    """The AffinityMatrix whose dense matrix is A."""
    entries = label_table(A)
    return AffinityMatrix(entries, _soft_labels(entries), float(sigma_sq),
                          np.asarray(camera_of_class), bool(masked))


def row_nonzeros(row):
    """(columns, weights) of a SoftLabelRow's nonzero weights."""
    idx = np.flatnonzero(row.weights)
    return idx, row.weights[idx]


def hit_ap(relevant_in_rank_order):
    """AP of one ranked list by ranking.hit_aps, the code evaluate runs."""
    hits = np.flatnonzero(relevant_in_rank_order)
    if hits.size == 0:
        raise ContractError("average precision undefined without a relevant item")
    return float(hit_aps(np.zeros_like(hits), hits)[1][0])


def weighted_cross_entropy(probs, row):
    """(loss, score gradient, clamped logs, own class has zero weight) of one sample."""
    if row.degenerate:
        raise ContractError("weighted cross-entropy is undefined for a degenerate row")
    probs = np.asarray(probs, dtype=np.float64)
    idx, w = row_nonzeros(row)
    p = probs[idx]
    clamped = int(np.count_nonzero(p < LOG_FLOOR))
    loss = -float(np.sum(w * np.log(np.maximum(p, LOG_FLOOR))))
    return loss, probs - row.weights, clamped, int(row.weights[row.class_index] == 0.0)


def forward_batch(model, X):
    """The embeddings with each bias sum and the ReLU allocated apart
    from the products."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.d_in:
        raise ContractError(f"batch shape {X.shape} incompatible with d_in {model.d_in}")
    hidden = np.maximum(X @ model.W1.T + model.b1, 0.0)
    return hidden @ model.W2.T + model.b2


def backward(model, X, dV):
    """The body gradients with the first layer computed again from X and
    the ReLU gated by np.where on the pre-activations."""
    X = np.asarray(X, dtype=np.float64)
    dV = np.asarray(dV, dtype=np.float64)
    pre = X @ model.W1.T + model.b1
    hidden = np.maximum(pre, 0.0)
    dW2 = dV.T @ hidden
    db2 = dV.sum(axis=0)
    dhidden = dV @ model.W2
    dhidden = np.where(pre > 0.0, dhidden, 0.0)
    dW1 = dhidden.T @ X
    db1 = dhidden.sum(axis=0)
    return {"W1": dW1, "b1": db1, "W2": dW2, "b2": db2}


def head_forward(head, V):
    """Class scores with the bias sum allocated apart from the product."""
    return V @ head.Wc.T + head.bc


def softmax_probs(scores):
    """The allocating softmax: a finiteness mask, then the shifted scores,
    their exponentials and the quotient, each a new array."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ContractError("softmax requires finite scores")
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def soft_ce_step(state, dataset, config, table):
    """The C step with every full-width array it once made: (loss, terms,
    skipped, [body grads, head grads], score gradient); the kept rows are
    always copied out and their gradient scattered into zeros."""
    cls_idx = classification_sampler(dataset, state.rng, config.class_batch_total)
    Xc = dataset.features[cls_idx]
    Vc, Hc = forward_with_hidden(state.model, Xc)
    scores = head_forward(state.head, Vc)
    probs = softmax_probs(scores)
    z = dataset.class_ids[cls_idx]
    keep = ~table.degenerate[z]
    n = int(np.count_nonzero(keep))
    if not n:
        return 0.0, 0, keep.size, [], None
    wce = table_cross_entropy(probs[keep], table.take(z[keep]))
    dS = np.zeros_like(scores)
    dS[keep] = wce.grads["scores"]
    dS *= config.lam / n
    head_grads, dVc = head_backward(state.head, Vc, dS)
    return wce.loss, n, keep.size - n, [backward_from_hidden(state.model, Xc, dVc, Hc), head_grads], dS


def sgd_step(model, head, grads, optimizer, state, epoch):
    """Momentum SGD with a new velocity array per step: v = mu*v + g."""
    params = {**model.params(), **head.params()}
    lr_body, lr_head = optimizer.effective_rates(epoch)
    for name, g in grads.items():
        lr = lr_body if name in BODY_PARAMS else lr_head
        vel = state.velocities.get(name)
        if vel is None:
            vel = np.zeros_like(params[name])
        vel = optimizer.momentum * vel + g
        state.velocities[name] = vel
        params[name] -= lr * vel


def add_rows(out, rows, values):
    """The row scatter as one 2-D np.add.at."""
    np.add.at(out, rows, values)


def soft_ce_loop(probs, rows, sample_classes):
    """The per-sample C loop: (loss, dS, contributing, skipped, clamped, own_zero)."""
    dS = np.zeros_like(probs)
    loss = 0.0
    contributing = skipped = clamped = own_zero = 0
    for b, z in enumerate(sample_classes):
        row = rows[int(z)]
        if row.degenerate:
            skipped += 1
            continue
        l_b, g_b, c_b, o_b = weighted_cross_entropy(probs[b], row)
        loss += l_b
        dS[b] = g_b
        contributing += 1
        clamped += c_b
        own_zero += o_b
    return loss, dS, contributing, skipped, clamped, own_zero


def select_positives(anchor_class, aff, dataset, n_k, rng, weighting_mode="AW",
                     positive_sampling="random"):
    """(dataset sample index, weight) pairs for one anchor; SelectionError if degenerate."""
    row = aff.A[anchor_class]
    nz = np.flatnonzero(row > 0.0)
    if nz.size == 0:
        raise SelectionError(f"soft-label row of class {anchor_class} is degenerate")

    if positive_sampling == "nearest":
        order = nz[np.argsort(-row[nz], kind="stable")]
        drawn = np.array([order[i % order.size] for i in range(n_k)], dtype=np.int64)
    elif nz.size >= n_k:
        drawn = rng.choice(nz, size=n_k, replace=False)
    else:
        drawn = rng.choice(nz, size=n_k, replace=True)

    if weighting_mode == "AW":
        weights = np.full(n_k, 1.0 / n_k)
    else:
        a_vals = row[drawn]
        weights = a_vals / a_vals.sum()

    out = []
    order, starts = dataset.class_members()
    for person, w in zip(drawn, weights):
        candidates = order[starts[person]:starts[person + 1]]
        pick = int(candidates[rng.integers(candidates.size)])
        out.append((pick, float(w)))
    return out


def select_hardest_negative(anchor_embedding, batch_embeddings, batch_classes, anchor_class):
    eligible = np.flatnonzero(np.asarray(batch_classes) != anchor_class)
    if eligible.size == 0:
        raise SelectionError(f"no same-camera negative available for class {anchor_class}")
    diffs = np.asarray(batch_embeddings, dtype=np.float64)[eligible] - anchor_embedding[None, :]
    with np.errstate(over="ignore"):  # an overflowing distance is +inf
        dists = np.sqrt(np.sum(diffs * diffs, axis=1))
    return int(eligible[np.argmin(dists)])


def weighted_triplet_loss(anchor, positives, weights, negative, margin):
    """(loss, anchor gradient, positive gradients, negative gradient, active) of one anchor."""
    diffs = positives - anchor[None, :]
    pos_d = np.sqrt(np.sum(diffs * diffs, axis=1))
    neg_d = float(np.linalg.norm(anchor - negative))
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN hinge
        hinge = float(np.sum(weights * pos_d) - neg_d + margin)
    g_anchor = np.zeros_like(anchor)
    g_pos = np.zeros_like(positives)
    g_neg = np.zeros_like(negative)
    active = hinge > 0.0
    if active:
        u_n = _unit_difference(anchor, negative, neg_d)
        for i in range(positives.shape[0]):
            u_p = _unit_difference(anchor, positives[i], float(pos_d[i]))
            g_anchor += weights[i] * u_p
            g_pos[i] = -weights[i] * u_p
        g_anchor -= u_n
        g_neg = u_n
    return max(hinge, 0.0), g_anchor, g_pos, g_neg, int(active)


def soft_triplet_loop(model, dataset, aff, config, rng, E, labels):
    """The per-anchor D loop: (loss, anchors used, anchors skipped,
    gradient on E, positive inputs, gradient on their embeddings), both
    gradients scaled by lam / anchors used, as trainer._d_step hands them
    to backward; the last three are None when no anchor is used."""
    entries = []
    anchors = []  # (anchor row, entry base, negative row)
    skipped = 0
    for a in range(E.shape[0]):
        z = int(labels[a])
        try:
            sel = select_positives(
                z, aff, dataset, config.n_k, rng,
                weighting_mode=config.weighting_mode,
                positive_sampling=config.positive_sampling,
            )
            neg = select_hardest_negative(E[a], E, labels, z)
        except SelectionError:
            skipped += 1
            continue
        anchors.append((a, len(entries), neg))
        entries.extend(sel)
    if not anchors:
        return 0.0, 0, skipped, None, None, None
    pos_idx = np.array([e[0] for e in entries], dtype=np.int64)
    pos_w = np.array([e[1] for e in entries])
    Xp = dataset.features[pos_idx]
    Vp = forward_batch(model, Xp)
    dVp = np.zeros_like(Vp)
    dE = np.zeros_like(E)
    loss = 0.0
    for a, base, neg in anchors:
        l_a, g_a, g_p, g_n, _ = weighted_triplet_loss(
            E[a], Vp[base:base + config.n_k], pos_w[base:base + config.n_k], E[neg],
            config.margin,
        )
        loss += l_a
        dE[a] += g_a
        dVp[base:base + config.n_k] += g_p
        dE[neg] += g_n
    scale = config.lam / len(anchors)
    dE *= scale
    dVp *= scale
    return loss, len(anchors), skipped, dE, Xp, dVp


def average_precision(relevant_in_rank_order):
    hits = np.flatnonzero(relevant_in_rank_order)
    precisions = np.arange(1, hits.size + 1) / (hits + 1)
    return float(precisions.mean())


def evaluate(model, query, gallery, rows=None):
    """(mAP, {k: rank-k accuracy}, evaluated, skipped): one stable argsort per
    query, over distances in product blocks of `rows` query rows."""
    blocks = squared_distance_blocks(forward_batch(model, query.features),
                                     forward_batch(model, gallery.features), rows)
    d2 = np.vstack([block for _, block in blocks])
    aps = []
    cmc_hits = {k: 0 for k in (1, 5, 10, 20)}
    skipped = 0
    for qi in range(len(query)):
        junk = (gallery.truth == query.truth[qi]) & (gallery.camera_ids == query.camera_ids[qi])
        keep = np.flatnonzero(~junk)
        relevant = gallery.truth[keep] == query.truth[qi]
        if not relevant.any():
            skipped += 1
            continue
        rel_sorted = relevant[np.argsort(d2[qi, keep], kind="stable")]
        aps.append(average_precision(rel_sorted))
        first_hit = int(np.flatnonzero(rel_sorted)[0])
        for k in cmc_hits:
            if first_hit < k:
                cmc_hits[k] += 1
    if not aps:
        raise EvaluationError("every query was skipped: no query has an eligible true match")
    n = len(aps)
    return float(np.mean(aps)), {k: h / n for k, h in cmc_hits.items()}, n, skipped


def rank_positions(d2, q, g):
    """Each pair's place in the stable ascending sort of its row of d2, by
    one scan of the row per pair: the items below, then the equal ones at
    a lower column."""
    column = np.arange(d2.shape[1])
    pos = np.empty(len(q), dtype=np.int64)
    for i, (r, c) in enumerate(zip(np.asarray(q).tolist(), np.asarray(g).tolist())):
        row, t = d2[r], d2[r, c]
        pos[i] = np.count_nonzero(row < t) + np.count_nonzero((row == t) & (column < c))
    return pos


def soft_label_rows(A):
    """(weights, degenerate) of each affinity row normalized on its own."""
    rows = []
    for i in range(A.shape[0]):
        row = A[i]
        total = row.sum()
        if total <= 0.0:
            rows.append((np.zeros_like(row), True))
        else:
            rows.append((row / total, False))
    return rows


def build_affinity(feats, cameras, k, mask_same_camera=True, rows=None):
    """(A, sigma_sq) of the masked k-NN affinity over (C, d) person features,
    row by row, over distances in product blocks of `rows` rows; sigma_sq
    is each block's candidate sum, added in block order, over the count."""
    C = feats.shape[0]
    blocks = squared_distance_blocks(feats, feats, rows)
    d2 = np.vstack([block for _, block in blocks])
    if mask_same_camera:
        candidate = cameras[:, None] != cameras[None, :]
    else:
        candidate = ~np.eye(C, dtype=bool)
    total = 0.0
    for lo, block in blocks:
        total += block[candidate[lo:lo + block.shape[0]]].sum()
    sigma_sq = float(total / np.count_nonzero(candidate))
    A = np.zeros((C, C))
    for i in range(C):
        cand = np.flatnonzero(candidate[i])
        if cand.size == 0:
            continue
        keep = cand[np.argsort(d2[i, cand], kind="stable")[:k]]
        if sigma_sq == 0.0:
            A[i, keep] = 1.0
        else:
            A[i, keep] = np.exp(-d2[i, keep] / sigma_sq)
    return A, sigma_sq


def affinity_candidates(A):
    """(index, weights, count): each row's nonzero columns and values,
    zero-padded to a common width, one row at a time."""
    cols = [np.flatnonzero(row) for row in A]
    count = np.array([c.size for c in cols], dtype=np.int64)
    index = np.zeros((count.size, int(count.max(initial=1))), dtype=np.int64)
    weights = np.zeros(index.shape)
    for r, (row, c) in enumerate(zip(A, cols)):
        index[r, :c.size], weights[r, :c.size] = c, row[c]
    return index, weights, count


def affinity_quality_map(A, cameras, truth):
    """Mean AP of the affinity rows over true cross-camera matches, one sort per row."""
    aps = []
    for i in range(A.shape[0]):
        cand = np.flatnonzero(cameras != cameras[i])
        if cand.size == 0:
            continue
        relevant = truth[cand] == truth[i]
        if truth[i] < 0 or not relevant.any():
            continue
        order = np.argsort(-A[i, cand], kind="stable")
        hits = np.flatnonzero(relevant[order])
        aps.append(((np.arange(1, hits.size + 1)) / (hits + 1)).mean())
    if not aps:
        raise AffinityError("affinity quality undefined: no row has a cross-camera true match")
    return float(np.mean(aps))


def choice_rows(rng, pops, size, then=None, follow=None):
    """(choices, follow-up draws) of one real choice, then integers, call per
    row; then gives follow (by default size) follow-up bounds per row."""
    choices = np.zeros((len(pops), size), dtype=np.int64)
    drawn = np.zeros((len(pops), size if follow is None else follow), dtype=np.int64)
    for r, pop in enumerate(np.asarray(pops).tolist()):
        choices[r] = rng.choice(pop, size=size, replace=pop < size)
        if then is not None:
            drawn[r] = [rng.integers(h) for h in then(np.array([r]), choices[r:r + 1])[0].tolist()]
    return choices, (drawn if then is not None else None)


def pk_sampler(dataset, camera_id, n_p, n_k, rng):
    """(sample indices, classes) of one PK batch, one choice per person."""
    persons = np.arange(*dataset.index.offsets[camera_id:camera_id + 2], dtype=np.int64)
    if persons.size >= n_p:
        chosen = rng.choice(persons, size=n_p, replace=False)
    else:
        extra = rng.choice(persons, size=n_p - persons.size, replace=True)
        chosen = np.concatenate([rng.permutation(persons), extra])
    picks = np.zeros((n_p, n_k), dtype=np.int64)
    order, starts = dataset.class_members()
    for r, cls in enumerate(chosen):
        idxs = order[starts[cls]:starts[cls + 1]]
        picks[r] = rng.choice(idxs, size=n_k, replace=idxs.size < n_k)
    return picks, chosen


def epoch_draws(dataset, cams, n_p, n_k, rng, random_mining=False, batch_total=None, aff=None,
                weighting_mode="AW", positive_sampling="random"):
    """Each iteration's draws in train's order, one numpy call per person,
    anchor and camera: [(PK sample indices, classes, random mining draws
    or None, C sample indices or None, D (picks, weights) of the anchors
    that draw or None)] for the cameras cams in turn.  Mining draws, per
    anchor, a place among its other same-person rows, then one among the
    other persons' rows; C, batch_total // n_cameras samples of each
    camera; D, select_positives of each anchor whose row of aff is not
    zero."""
    out = []
    for cam in cams:
        picks, chosen = pk_sampler(dataset, cam, n_p, n_k, rng)
        labels = np.repeat(chosen, n_k)
        mining = cls = positives = None
        if random_mining:
            mining = np.array([[rng.integers(np.count_nonzero(labels == c) - 1),
                                rng.integers(np.count_nonzero(labels != c))]
                               for c in labels.tolist()], dtype=np.int64).reshape(-1, 2)
        if batch_total is not None:
            quota = batch_total // dataset.n_cameras
            cls = np.concatenate([rng.choice(idx, size=quota, replace=idx.size < quota)
                                  for idx in dataset.camera_members()])
        if aff is not None:
            rows = [select_positives(c, aff, dataset, n_k, rng, weighting_mode, positive_sampling)
                    for c in labels.tolist() if aff.A[c].any()]
            positives = (np.array([[p for p, _ in r] for r in rows], dtype=np.int64).reshape(-1, n_k),
                         np.array([[w for _, w in r] for r in rows]).reshape(-1, n_k))
        out.append((picks, chosen, mining, cls, positives))
    return out


def person_counts(camera_ids, local_ids, n_cameras):
    """Per-camera person counts, one scan of the samples per camera; a
    ContractError names the first camera whose local ids are not exactly
    0..k-1 and its first sample with an id out of that range."""
    counts = []
    for cam in range(n_cameras):
        here = np.flatnonzero(camera_ids == cam)
        uniq = np.unique(local_ids[here])
        if uniq.size and (uniq[0] != 0 or uniq[-1] != uniq.size - 1):
            bad = int(here[(local_ids[here] < 0) | (local_ids[here] >= uniq.size)][0])
            raise ContractError(f"camera {cam}: local person ids must be exactly "
                                f"0..{uniq.size - 1}, got {uniq.tolist()[:8]}...", sample=bad)
        counts.append(int(uniq.size))
    return tuple(counts)


def truth_purity(camera_ids, local_ids, truth):
    """One scan of the samples in file order; a ContractError names the
    first sample whose known truth differs from the first known truth of
    its (camera, local id) person."""
    seen = {}
    for i, (cam, loc, t) in enumerate(zip(camera_ids, local_ids, truth)):
        key = (int(cam), int(loc))
        if t == -1:
            continue
        if key in seen and seen[key] != int(t):
            raise ContractError(
                f"person {key} has inconsistent truth identities {seen[key]} and {int(t)}",
                sample=i,
            )
        seen.setdefault(key, int(t))


def update_buffer(buf, embeddings, classes):
    """One update_person call (a batch of one) per distinct person, in order
    of first appearance, over that person's rows in batch order."""
    groups = {}
    for r, cls in enumerate(np.asarray(classes).tolist()):
        groups.setdefault(cls, []).append(r)
    for cls, rows_of in groups.items():
        update_person(buf, [cls], embeddings[rows_of].reshape(1, -1, embeddings.shape[2]))


def unit_rows(diff, dist):
    """Row-wise diff/dist with zero rows where dist is zero."""
    out = np.zeros_like(diff)
    np.divide(diff, dist[:, None], out=out, where=dist[:, None] > 0.0)
    return out


def intra_triplet_loss(batch, margin):
    """The allocating batch-hard loss: (loss, (n_p, n_k, d) gradient,
    counters), with the square root of every distance as a new array, a
    (n, n) same-person mask, both masked distance arrays, and one scatter
    each for the anchor, positive and negative terms."""
    E, labels = batch.flat()
    if batch.n_persons < 2 or batch.n_images < 2 or np.unique(labels).size < 2:
        raise ContractError("triplet batch needs >= 2 persons and >= 2 images each")
    D = np.sqrt(squared_distances(E, E))
    same = labels[:, None] == labels[None, :]
    pos_pick = np.argmax(np.where(same, D, -np.inf), axis=1)
    neg_pick = np.argmin(np.where(same, np.inf, D), axis=1)
    idx = np.arange(E.shape[0])
    pos_d = D[idx, pos_pick]
    neg_d = D[idx, neg_pick]
    hinge = margin + pos_d - neg_d
    active = ~(hinge <= 0.0)
    grad = np.zeros(E.shape, E.dtype)
    if active.any():
        a_idx, p_idx, n_idx = idx[active], pos_pick[active], neg_pick[active]
        u_p = unit_rows(E[a_idx] - E[p_idx], pos_d[active])
        u_n = unit_rows(E[a_idx] - E[n_idx], neg_d[active])
        np.add.at(grad, a_idx, u_p - u_n)
        np.add.at(grad, p_idx, -u_p)
        np.add.at(grad, n_idx, u_n)
    loss = float(hinge[active].sum()) if active.any() else 0.0
    counters = {"active_triplets": int(active.sum()), "anchors": E.shape[0]}
    return loss, grad.reshape(batch.embeddings.shape), counters


def weighted_triplet_negative_distances(to_neg):
    """Each row's length as a 1-d dot of the row with itself, one row at a time."""
    return np.sqrt([row.dot(row) for row in to_neg])


def random_triplet_picks(labels, rng):
    """(positive, negative) index per anchor: two scalar draws per anchor."""
    n = labels.size
    pos_pick = np.zeros(n, dtype=np.int64)
    neg_pick = np.zeros(n, dtype=np.int64)
    for a in range(n):
        pos = np.flatnonzero(labels == labels[a])
        pos = pos[pos != a]
        neg = np.flatnonzero(labels != labels[a])
        pos_pick[a] = pos[rng.integers(pos.size)]
        neg_pick[a] = neg[rng.integers(neg.size)]
    return pos_pick, neg_pick


# Frozen batched forms the package ran before its soft-triplet step drew
# its follow-up words in the same integers call as the choice draws,
# screened the hardest negative with one bound per row, and computed the
# weighted triplet gradients on every row.

def _choice_bounds(pops, size):
    floyd = (pops >= size)[:, None]
    bounds = np.ones((pops.size, 2 * size - 1), dtype=np.int64)
    bounds[:, :size] = pops[:, None] + np.where(floyd, np.arange(1 - size, 1), 0)
    bounds[:, size:] = np.where(floyd, np.arange(size, 1, -1), 1)
    return bounds


def _picks(values, pops, size):
    out = values[:, :size].copy()
    floyd = np.flatnonzero(pops >= size)
    sel = out[floyd]
    top = pops[floyd, None] + np.arange(-size, 0)
    for t in range(1, size):
        np.copyto(sel[:, t], top[:, t], where=(sel[:, :t] == sel[:, t, None]).any(axis=1))
    flat = sel.reshape(-1)
    swaps = np.arange(0, flat.size, size)[:, None] + values[floyd, size:]
    for u, i in enumerate(range(size - 1, 0, -1)):
        j = swaps[:, u]
        flat[j], sel[:, i] = sel[:, i], flat[j]
    out[floyd] = sel
    return out


def replay(words, pops, size, then):
    """(choices, follow-up draws, rows settled, words they read) of the
    per-row loop over a raw uint32 word stream, each draw of range above
    1 and each follow-up draw given the next word."""
    pops = np.asarray(pops, dtype=np.int64)
    R, n_choice = pops.size, 2 * size - 1
    bounds = np.concatenate([_choice_bounds(pops, size), np.ones((R, size), dtype=np.int64)],
                            axis=1)
    reads = bounds > 1
    reads[:, n_choice:] = True
    pos = np.cumsum(reads).reshape(reads.shape) - 1
    need = int(reads.sum())
    if words.size < need:
        raise ContractError(f"replay needs {need} words, got {words.size}")
    w = np.zeros(need + 1, dtype=np.uint64)
    w[:need] = words[:need]

    def draw(cols):
        n = bounds[:, cols].astype(np.uint64)
        m = w[pos[:, cols]] * n
        return (m >> np.uint64(32)).astype(np.int64), m % np.uint64(2**32) >= np.uint64(2**32) % n

    values, ok = draw(slice(0, n_choice))
    choices = _picks(values, pops, size)
    bounds[:, n_choice:] = np.asarray(then(np.arange(R), choices))
    drawn, ok_then = draw(slice(n_choice, None))
    ok = np.concatenate([ok, ok_then & (bounds[:, n_choice:] > 1)], axis=1)
    wrong = ~ok.all(axis=1)
    settled = int(np.argmax(wrong)) if wrong.any() else R
    return choices, drawn, settled, int(reads[:settled].sum())


def replayed_choice_rows(rng, pops, size, then=None):
    """The word-replay batched choice_rows: one integers call over the
    choice bounds without follow-up draws; with them, a block of raw
    words, replay, a generator reset and re-read when the replay read
    fewer words than it drew, and the per-row loop from the first row
    the replay did not settle or the first tail-shuffle row."""
    pops = np.asarray(pops, dtype=np.int64)
    tail = (pops >= size) & (pops > 10_000) & (size > pops // 50)
    end = int(np.argmax(tail)) if tail.any() else pops.size
    if then is None:
        drawn, settled = None, end
        choices = _picks(rng.integers(_choice_bounds(pops[:end], size)), pops[:end], size)
    else:
        snapshot = rng.bit_generator.state
        words = rng.integers(0, 2**32, size=end * (3 * size - 1), dtype=np.uint32)
        choices, drawn, settled, read = replay(words, pops[:end], size, then)
        if read != words.size:
            rng.bit_generator.state = snapshot
            rng.integers(0, 2**32, size=read, dtype=np.uint32)
    out = np.zeros((pops.size, size), dtype=np.int64)
    out[:settled] = choices[:settled]
    follow = None
    if then is not None:
        follow = np.zeros_like(out)
        follow[:settled] = drawn[:settled]
    for r in range(settled, pops.size):
        pop = int(pops[r])
        out[r] = rng.choice(pop, size, replace=pop < size)
        if then is not None:
            bounds = np.asarray(then(np.array([r]), out[r:r + 1]))[0].tolist()
            follow[r] = [rng.integers(h) for h in bounds]
    return out, follow


def screened_hardest_negative(anchors, batch_embeddings, batch_classes, anchor_classes):
    """The per-pair screen: every pair's rounding bound from its own norms,
    (|a_i| + |b_j|)**2, and a row wild where any pair's screen plus bound
    is not finite."""
    batch_embeddings = np.asarray(batch_embeddings, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    classes = np.asarray(anchor_classes)
    same = classes[:, None] == np.asarray(batch_classes)
    lonely = same.all(axis=1)
    if lonely.any():
        raise SelectionError(f"no same-camera negative available for class {classes[lonely].min()}")
    rows = np.arange(classes.size)
    gamma = 4.0 * (anchors.shape[1] + 3) * 2.0**-53
    with np.errstate(over="ignore", invalid="ignore"):
        g = squared_distances(anchors, batch_embeddings)
        norms = np.sqrt(np.sum(anchors * anchors, axis=1))[:, None] + np.sqrt(
            np.sum(batch_embeddings * batch_embeddings, axis=1))
        err = gamma * (norms * norms + 2.0**-1021)
        wild = ~np.isfinite(g + err).all(axis=1)
    g[same] = np.inf
    m = np.argmin(g, axis=1)
    bound = (g[rows, m] + err[rows, m]) * (1.0 + 3.0 * gamma)
    keep = (g <= bound[:, None] + err) | wild[:, None]
    keep &= ~same
    ii, jj = np.divmod(np.flatnonzero(keep), keep.shape[1])
    diffs = batch_embeddings[jj] - anchors[ii]
    dist = np.full(keep.shape, np.inf)
    dist[ii, jj] = np.sqrt(np.sum(diffs * diffs, axis=1))
    picks = np.argmin(dist, axis=1)
    overflowed = ~keep[rows, picks]
    picks[overflowed] = np.argmax(keep[overflowed], axis=1)
    return picks


def gathered_weighted_triplet_loss(anchor, positives, weights, negative, margin):
    """(loss, {anchor, positives, negative} gradients, active count), the
    gradients computed on the gathered active rows and scattered back."""
    to_pos = anchor[:, None, :] - positives
    pos_d = np.sqrt(np.sum(to_pos * to_pos, axis=2))
    to_neg = anchor - negative
    neg_d = np.sqrt(np.matmul(to_neg[:, None, :], to_neg[:, :, None]).reshape(-1))
    hinge = np.sum(weights * pos_d, axis=1) - neg_d + margin
    active = hinge > 0.0
    grads = {name: np.zeros_like(x) for name, x in
             (("anchor", anchor), ("positives", positives), ("negative", negative))}
    if active.any():
        w = weights[active]
        u_n = unit_rows(to_neg[active], neg_d[active])
        u_p = unit_rows(to_pos[active].reshape(-1, anchor.shape[1]), pos_d[active].ravel())
        u_p = u_p.reshape(w.shape + (-1,))
        g = np.zeros_like(u_n)
        for i in range(w.shape[1]):
            g += w[:, i, None] * u_p[:, i]
        grads["anchor"][active] = g - u_n
        grads["positives"][active] = -w[:, :, None] * u_p
        grads["negative"][active] = u_n
    loss = 0.0
    for h in hinge.tolist():
        loss += max(h, 0.0)
    return loss, grads, int(np.count_nonzero(active))
