"""Epoch draw plans: an epoch's batch draws, drawn and decoded before its
first iteration.

Each iteration of train draws, in this order: its PK batch (n_p persons
of its camera through Generator.choice, then n_k sample slots of each
person), with random mining one (positive, negative) pick per anchor, in
a C epoch the camera-balanced batch (one choice per camera) and in a D
epoch each anchor's positives (n_k places in its candidate row, then a
sample slot of each place's person; with nearest positives the slots
alone).  None of these depends on the model: the affinity is fixed for
the epoch, and each population is known once the iteration's PK persons
are.

plan_epoch draws the raw 32-bit words of an epoch's iterations in one
Generator.integers call and decodes them level by level with
draws.placed_draws and draws._picks (numpy reads one word per draw of a
bound above 1, see draws).  Where an iteration's word count depends on
its persons (D anchors of a degenerate row draw nothing, candidate rows
have different lengths, persons different sample counts), their Floyd
draws are decoded first, one iteration after another, to find where the
next iteration's words start; the call draws as many words as the
dearest persons would take.  Where the settled iterations read fewer
words than were drawn, the generator goes back to its state before the
call and one more call reads exactly theirs, so it ends where the
per-iteration samplers would leave it after them.

The plan ends, before drawing, at the first iteration whose camera has
fewer than n_p persons (numpy draws those through a permutation), or
holds a population numpy would draw through its tail-shuffle branch
(the persons, or a person's samples, or a candidate row), or, with
random positives, a person whose candidate row mixes one-sample persons
with others (the slot draw of a one-sample person reads no word, so the
row's word count would depend on its draw); in a C epoch, a camera in
that branch ends it at the first iteration.  A word that Lemire's method
rejects ends it at that word's iteration.  From there on, the samplers
draw one iteration at a time, as they do for every iteration when
called without the plan's values.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .affinity import SoftLabelTable
from .data import Dataset
from .draws import WORD, _draw_bounds, _picks, _tail_shuffled, placed_draws, word_counts
from .losses import nearest_positions


class Draws(NamedTuple):
    """One iteration's planned draws; None where the sampler draws itself.

    pk: (classes (n_p,), sample indices (n_p, n_k)) for pk_sampler; mining:
    (n_p * n_k, 2) for random_triplet_loss; cls: one (quota,) array of
    places per camera for classification_sampler; positives: (at, slot),
    each (anchors that draw, n_k), for select_positives."""

    pk: tuple[np.ndarray, np.ndarray] | None = None
    mining: np.ndarray | None = None
    cls: np.ndarray | None = None
    positives: tuple[np.ndarray, np.ndarray] | None = None


def _floyd_set(words: list[int], pop: int, size: int) -> set[int]:
    """The picks of Floyd's algorithm (before its shuffle) for a choice of
    size from pop > 0, from its draws' words in order (none for j = 0)."""
    taken: set[int] = set()
    it = iter(words)
    for j in range(pop - size, pop):
        v = (next(it) * (j + 1)) >> 32 if j else 0
        taken.add(j if v in taken else v)
    return taken


def _segment_starts(counts: np.ndarray) -> np.ndarray:
    """Where each of an (R, m) array's cells starts when each row's cells
    follow each other: counts' exclusive cumulative sum along rows."""
    return np.cumsum(counts, axis=-1) - counts


def plan_epoch(
    rng: np.random.Generator,
    dataset: Dataset,
    cams: list[int],
    n_p: int,
    n_k: int,
    random_mining: bool = False,
    shares: tuple[int, tuple[np.ndarray, ...]] | None = None,
    candidates: SoftLabelTable | None = None,
    nearest: bool = False,
) -> list[Draws]:
    """The draws of the epoch's first settled iterations, one per camera
    of cams in turn; rng ends where the per-iteration samplers leave it
    after those iterations.

    random_mining adds random_triplet_loss's draws, shares (camera_shares'
    quota and cameras) classification_sampler's and candidates (the
    affinity's candidate table) select_positives', with nearest
    positives when nearest.  Every camera in cams[:settled] has at least
    n_p persons, so each PK batch holds n_p distinct persons.
    """
    index = dataset.index
    counts = np.asarray(index.counts, dtype=np.int64)
    first = np.asarray(index.offsets, dtype=np.int64)
    starts = dataset.class_members()[1]
    samples = np.diff(starts)
    n = n_p * n_k

    # Words an iteration spends per PK person: its slots, then its n_k
    # anchors' positives.
    slot_words = word_counts(_draw_bounds(samples, n_k, 0))
    per_person = slot_words.copy()
    blocked = _tail_shuffled(samples, n_k)
    if candidates is not None:
        pop = candidates.count
        drawing = np.flatnonzero(pop)
        if nearest:
            near = np.zeros((pop.size, n_k), dtype=np.int64)
            near[drawing] = nearest_positions(candidates, drawing, n_k)
            persons = np.take_along_axis(candidates.index[drawing], near[drawing], axis=1)
            row_words = word_counts(samples[persons])
        else:
            real = np.arange(candidates.index.shape[1]) < pop[drawing, None]
            many = np.count_nonzero((samples[candidates.index[drawing]] > 1) & real, axis=1)
            mixed = (many > 0) & (many < pop[drawing])
            row_words = (word_counts(_draw_bounds(pop[drawing], n_k, 0))
                         + np.where(many > 0, n_k, 0))
            blocked[drawing] |= mixed | _tail_shuffled(pop[drawing], n_k)
        per_row = np.zeros(pop.size, dtype=np.int64)
        per_row[drawing] = row_words
        per_person += n_k * per_row

    held = np.concatenate([[0], np.cumsum(blocked)])
    stop = ((counts < n_p) | _tail_shuffled(counts, n_p)
            | (held[first[1:]] > held[first[:-1]]))[cams]
    mining_bounds = np.tile([n_k - 1, n - n_k], n)  # each anchor's (positive, negative) pair
    mining_words = fixed = int(word_counts(mining_bounds)) if random_mining else 0
    if shares is not None:
        quota, cameras = shares
        sizes = np.array([idx.size for idx in cameras], dtype=np.int64)
        class_bounds = _draw_bounds(sizes, quota, 0)
        class_words = word_counts(class_bounds)
        fixed += int(class_words.sum())
        stop |= bool(_tail_shuffled(sizes, quota).any())
    end = int(np.argmax(stop)) if stop.any() else len(cams)
    cams = np.asarray(cams[:end], dtype=np.int64)
    if not end:
        return []

    pops = counts[cams]
    person_bounds = _draw_bounds(pops, n_p, 0)
    person_words = word_counts(person_bounds)
    # Each camera's cheapest and dearest person; a pad that neither
    # reduction keeps gives an empty last camera a valid index.
    low = np.minimum.reduceat(np.append(per_person, np.iinfo(np.int64).max), first[:-1])[cams]
    high = np.maximum.reduceat(np.append(per_person, 0), first[:-1])[cams]
    spans = person_words + fixed + n_p * high
    snapshot = rng.bit_generator.state
    words = rng.integers(0, WORD, size=int(spans.sum()))
    # Each iteration's first word; where a camera's persons differ in
    # cost, the chosen ones tell where the next iteration starts.
    begin = np.zeros(end + 1, dtype=np.int64)
    np.cumsum(spans, out=begin[1:])
    if (low < high).any():
        cost = per_person.tolist()
        o = 0
        for i, c in enumerate(cams.tolist()):
            begin[i], span = o, int(person_words[i]) + fixed
            if low[i] == high[i]:
                span += n_p * int(high[i])
            else:
                chosen = _floyd_set(words[o:o + int(person_words[i])].tolist(), int(pops[i]), n_p)
                span += sum(cost[first[c] + p] for p in chosen)
            o += span
        begin[end] = o

    values, ok = placed_draws(words, begin[:-1], person_bounds)
    classes = first[cams, None] + _picks(values, pops, n_p)
    settled = ok.all(axis=1)
    at_slots = begin[:-1] + person_words
    slot_counts = slot_words[classes]
    person_samples = samples[classes].ravel()
    values, ok = placed_draws(words, (at_slots[:, None] + _segment_starts(slot_counts)).ravel(),
                              _draw_bounds(person_samples, n_k, 0))
    picks = dataset.class_samples(classes[..., None],
                                  _picks(values, person_samples, n_k).reshape(end, n_p, n_k))
    settled &= ok.reshape(end, -1).all(axis=1)
    at = at_slots + slot_counts.sum(axis=1)
    mining = cls = positives = None
    if random_mining:
        mining, ok = placed_draws(words, at, np.tile(mining_bounds, (end, 1)))
        mining = mining.reshape(end, n, 2)
        settled &= ok.all(axis=1)
        at = at + mining_words
    if shares is not None:
        cam_at = (at[:, None] + _segment_starts(class_words)).ravel()
        values, ok = placed_draws(words, cam_at, np.tile(class_bounds, (end, 1)))
        cls = _picks(values, np.tile(sizes, end), quota).reshape(end, sizes.size, quota)
        settled &= ok.reshape(end, -1).all(axis=1)
        at = at + int(class_words.sum())
    if candidates is not None:
        anchor = np.repeat(classes, n_k, axis=1)
        iteration, col = np.nonzero(candidates.count[anchor])
        rows = anchor[iteration, col]
        row_at = _segment_starts(per_row[rows])  # then from each iteration's first row
        row_at += at[iteration] - row_at[np.searchsorted(iteration, iteration)]
        failed = np.zeros(rows.size, dtype=bool)
        if nearest:
            places = near[rows]
        else:
            choice_bounds = _draw_bounds(candidates.count[rows], n_k, 0)
            values, ok = placed_draws(words, row_at, choice_bounds)
            places = _picks(values, candidates.count[rows], n_k)
            failed |= ~ok.all(axis=1)
            row_at += word_counts(choice_bounds)
        persons = np.take_along_axis(candidates.index[rows], places, axis=1)
        picked, ok = placed_draws(words, row_at, samples[persons])
        failed |= ~ok.all(axis=1)
        settled &= np.bincount(iteration[failed], minlength=end) == 0
        row = np.searchsorted(iteration, np.arange(end + 1))
        positives = [(places[a:b], picked[a:b]) for a, b in zip(row[:-1], row[1:])]

    done = int(np.argmin(settled)) if not settled.all() else end
    if begin[done] != words.size:
        rng.bit_generator.state = snapshot
        rng.integers(0, WORD, size=int(begin[done]))
    return [Draws((classes[i], picks[i]), None if mining is None else mining[i],
                  None if cls is None else cls[i], None if positives is None else positives[i])
            for i in range(done)]
