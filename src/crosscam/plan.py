"""Epoch draw plans: every draw of an epoch, drawn and decoded before its
first iteration.

Each iteration of train draws, in this order: its PK batch (n_p persons
of its camera through Generator.choice, then n_k sample slots of each
person), with random mining one (positive, negative) pick per anchor, in
a C epoch the camera-balanced batch (one choice per camera) and in a D
epoch each anchor's positives (n_k places in its candidate row, then a
sample slot of each place's person; with nearest positives the slots
alone).  None of these depends on the model: the affinity is fixed for
the epoch, and each population is known once the iteration's PK persons
are.  A camera with m < n_p persons gives its batch every person once
and n_p - m more drawn with replacement: numpy draws those first, then
permutes the m persons with masked draws (for i = m - 1 .. 1, words
until one's lowest i.bit_length() bits are at most i).

plan_epoch draws the raw 32-bit words of an epoch's iterations in one
Generator.integers call, as uint32, and decodes them level by level with
draws.placed_draws and draws._picks (numpy reads one word per draw of a
bound above 1, see draws), the D rows in blocks of DECODE_ROWS.  Where
an iteration's word count depends on its persons (D anchors of a
degenerate row draw nothing, candidate rows have different lengths,
persons different sample counts), their Floyd draws are decoded first,
one iteration after another, to find where the next iteration's words
start; the call draws as many words as the dearest persons would take.
Where it depends on the iteration's own draws (a camera of fewer than
n_p persons, or, with random positives, a candidate row that mixes
one-sample persons with others: a one-sample person's slot draw reads
no word), its draws are placed one after another.  A word that Lemire's
method rejects is taken out of the stream and the epoch decoded again,
as numpy reads the next word in its place.  A decode that runs past the
words drawn draws more in one more call, which continues the stream;
where the epoch reads fewer words than were drawn, the generator goes
back to its state before the first call and one call reads exactly
theirs.  So the generator ends where numpy's per-iteration calls leave
it after the epoch, and a TrainingError in any iteration leaves it past
all of the epoch's planned draws.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .affinity import SoftLabelTable
from .data import Dataset
from .draws import WORD, _draw_bounds, _picks, placed_draws, word_counts
from .errors import ContractError
from .losses import nearest_positions

# The D positives of an epoch are decoded in blocks of this many anchor
# rows, so the decode's temporaries stay a few tens of KB however many
# anchors the epoch has.
DECODE_ROWS = 256


class Draws(NamedTuple):
    """One iteration's planned draws; None where the epoch makes none of
    that kind.

    pk: (classes (n_p,), sample indices (n_p, n_k)) for pk_sampler; mining:
    (n_p * n_k, 2) places for random_triplet_loss; cls: one (quota,)
    array of places per camera for classification_sampler; positives:
    (places, slots), each (anchors that draw, n_k), for select_positives."""

    pk: tuple[np.ndarray, np.ndarray]
    mining: np.ndarray | None
    cls: np.ndarray | None
    positives: tuple[np.ndarray, np.ndarray] | None


def _row_choice(words: np.ndarray, at: int, pop: int, size: int) -> np.ndarray:
    """The picks, in order, of one choice of size from pop whose draws
    read words from words[at] on; IndexError past the words drawn."""
    bounds, tail = _draw_bounds(np.array([pop]), size)
    if at + int(word_counts(bounds)[0]) > words.size:
        raise IndexError("the choice reads past the words drawn")
    values, _ = placed_draws(words, np.array([at]), bounds)
    return _picks(values, np.array([pop]), size, tail)[0]


def _floyd_set(words: np.ndarray, at: int, pop: int, size: int) -> set[int]:
    """The picks of Floyd's algorithm (before its shuffle) for a choice of
    size from pop > 0, its draws reading words from words[at] on (none
    for j = 0); IndexError where size words would run past the words
    drawn."""
    if at + size > words.size:
        raise IndexError("Floyd's draws read past the words drawn")
    taken: set[int] = set()
    it = iter(words[at:at + size].tolist())
    for j in range(pop - size, pop):
        v = (next(it) * (j + 1)) >> 32 if j else 0
        taken.add(j if v in taken else v)
    return taken


def _short_persons(words: np.ndarray, at: int, m: int, n_p: int) -> tuple[list[int], int]:
    """(places, words read) of the n_p persons of a camera of m < n_p,
    drawn from words[at] on as numpy draws them: n_p - m draws in [0, m)
    (Lemire's, a rejected word skipped), then a permutation of the m
    (masked draws), the permutation first; IndexError past the words."""
    pos, extra = at, []
    while len(extra) < n_p - m:
        x = int(words[pos]) * m
        pos += 1
        if x % WORD >= WORD % m:
            extra.append(x >> 32)
    perm = list(range(m))
    for i in range(m - 1, 0, -1):
        mask, j = (1 << i.bit_length()) - 1, i + 1
        while j > i:
            j = int(words[pos]) & mask
            pos += 1
        perm[i], perm[j] = perm[j], perm[i]
    return perm + extra, pos - at


def _mining_bounds(classes: np.ndarray, n_k: int) -> np.ndarray:
    """(R, 2 n_p n_k) bounds of the random-mining draws of batches of these
    (R, n_p) persons, n_k rows each: each anchor's (positive, negative)
    pair, over its person's other rows and the other persons' rows."""
    rows = n_k * np.count_nonzero(classes[:, :, None] == classes[:, None, :], axis=2)
    rows = np.repeat(rows, n_k, axis=1)
    return np.stack([rows - 1, classes.shape[1] * n_k - rows], axis=2).reshape(classes.shape[0], -1)


def _segment_starts(counts: np.ndarray) -> np.ndarray:
    """Where each of an (R, m) array's cells starts when each row's cells
    follow each other: counts' exclusive cumulative sum along rows."""
    return np.cumsum(counts, axis=-1) - counts


def _positive_draws(
    words: np.ndarray, rows: np.ndarray, row_at: np.ndarray, candidates: SoftLabelTable,
    samples: np.ndarray, n_k: int, near: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(places, slots, rejected) of the D positives of candidate rows rows,
    each row's draws read from words[row_at] on: the n_k places in the
    row (near[rows] with nearest positives, else a choice), then a sample
    slot of each place's person; rejected as placed_draws'."""
    if near is None:
        pops = candidates.count[rows]
        choice_bounds, tail = _draw_bounds(pops, n_k)
        values, rejected = placed_draws(words, row_at, choice_bounds)
        places = _picks(values, pops, n_k, tail)
        row_at = row_at + word_counts(choice_bounds)
        del values, choice_bounds  # before the slots' draws
    else:
        places, rejected = near[rows], np.zeros(0, dtype=np.int64)
    persons = np.take_along_axis(candidates.index[rows], places, axis=1)
    slots, more = placed_draws(words, row_at, samples[persons])
    return places, slots, np.concatenate([rejected, more])


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
    """The draws of the epoch's iterations, one per camera of cams in
    turn; rng ends where numpy's per-iteration calls leave it after them.
    A camera with fewer than n_p persons and fewer than two is refused
    with a ContractError, before anything is drawn.

    random_mining adds random_triplet_loss's draws, shares (camera_shares'
    quota and cameras) classification_sampler's and candidates (the
    affinity's candidate table) select_positives', with nearest
    positives when nearest.
    """
    index = dataset.index
    counts = np.asarray(index.counts, dtype=np.int64)
    first = np.asarray(index.offsets, dtype=np.int64)
    starts = dataset.class_members()[1]
    samples = np.diff(starts)
    n = n_p * n_k

    # Words an iteration spends per PK person: its slots, then its n_k
    # anchors' positives; a mixed candidate row's count is its most.
    slot_words = word_counts(_draw_bounds(samples, n_k)[0])
    per_person = slot_words.copy()
    mixed = np.zeros(index.total, dtype=bool)
    if candidates is not None:
        pop = candidates.count
        drawing = np.flatnonzero(pop)
        per_row = np.zeros(pop.size, dtype=np.int64)
        choice_words = np.zeros_like(per_row)
        row_tail = np.zeros(pop.size, dtype=bool)
        if nearest:
            near = np.zeros((pop.size, n_k), dtype=np.int64)
            near[drawing] = nearest_positions(candidates, drawing, n_k)
            persons = np.take_along_axis(candidates.index[drawing], near[drawing], axis=1)
            per_row[drawing] = word_counts(samples[persons])
        else:
            real = np.arange(candidates.index.shape[1]) < pop[drawing, None]
            many = np.count_nonzero((samples[candidates.index[drawing]] > 1) & real, axis=1)
            mixed[drawing] = (many > 0) & (many < pop[drawing])
            bounds, row_tail[drawing] = _draw_bounds(pop[drawing], n_k)
            choice_words[drawing] = word_counts(bounds)
            per_row[drawing] = choice_words[drawing] + np.where(many > 0, n_k, 0)
        per_person += n_k * per_row

    # Mining words of a batch of distinct persons; a short camera's repeats read more.
    mining_words = fixed = (int(word_counts(_mining_bounds(np.arange(n_p)[None], n_k)[0]))
                            if random_mining else 0)
    if shares is not None:
        quota, cameras = shares
        sizes = np.array([idx.size for idx in cameras], dtype=np.int64)
        class_bounds, class_tail = _draw_bounds(sizes, quota)
        class_words = word_counts(class_bounds)
        fixed += int(class_words.sum())
    end = len(cams)
    cams = np.asarray(cams, dtype=np.int64)
    if not end:
        return []

    pops = counts[cams]
    if pops.min() < min(n_p, 2):
        raise ContractError("a camera with fewer than n_p persons needs at least two")
    short = pops < n_p
    person_bounds, person_tail = _draw_bounds(pops, n_p)
    person_words = word_counts(person_bounds)
    # A short camera's masked draws read one or two words each, mostly.
    person_words[short] = n_p - pops[short] + 2 * (pops[short] - 1)
    # Each camera's cheapest and dearest person; a pad that neither
    # reduction keeps gives an empty last camera a valid index.
    low = np.minimum.reduceat(np.append(per_person, np.iinfo(np.int64).max), first[:-1])[cams]
    high = np.maximum.reduceat(np.append(per_person, 0), first[:-1])[cams]
    # Iterations placed one draw after another, and those whose persons'
    # Floyd draws tell their span.
    one_by_one = short | np.maximum.reduceat(np.append(mixed, False), first[:-1])[cams]
    one_by_one |= person_tail & (low < high)
    varying = (low < high) & ~one_by_one
    spans = person_words + fixed + n_p * high

    def place(words: np.ndarray) -> tuple[np.ndarray, dict]:
        """Each iteration's first word (and the epoch's end), and for each
        iteration placed one draw after another its PK places, person
        words and D row word counts; IndexError past the words drawn."""
        begin = np.zeros(end + 1, dtype=np.int64)
        np.cumsum(spans, out=begin[1:])
        placed = {}
        if not (varying | one_by_one).any():
            return begin, placed
        cost = per_person.tolist()
        multi = {}  # a mixed candidate row's places: whether its person has more than one sample
        o = 0
        for i, c in enumerate(cams.tolist()):
            begin[i], span = o, int(person_words[i]) + fixed
            if varying[i]:
                span += sum(cost[first[c] + p] for p in _floyd_set(words, o, int(pops[i]), n_p))
            elif one_by_one[i]:
                if short[i]:
                    local, read = _short_persons(words, o, int(pops[i]), n_p)
                else:
                    local, read = _row_choice(words, o, int(pops[i]), n_p).tolist(), span - fixed
                classes = first[c] + np.array(local)
                at = o + read + fixed + int(slot_words[classes].sum())
                if random_mining:
                    at += int(word_counts(_mining_bounds(classes[None], n_k))[0]) - mining_words
                rows = []
                for p in classes.tolist() if candidates is not None else ():
                    pop_p = int(candidates.count[p])
                    if not pop_p:
                        continue
                    if not mixed[p]:
                        rows += [int(per_row[p])] * n_k
                        at += int(per_row[p]) * n_k
                        continue
                    if p not in multi:
                        multi[p] = (samples[candidates.index[p, :pop_p]] > 1).tolist()
                    for _ in range(n_k):  # the row's choice, then a word per multi-sample pick
                        picks = (_floyd_set(words, at, pop_p, n_k)
                                 if pop_p >= n_k and not row_tail[p] else
                                 _row_choice(words, at, pop_p, n_k).tolist())
                        rows.append(int(choice_words[p]) + sum(multi[p][x] for x in picks))
                        at += rows[-1]
                span = at - o
                placed[i] = (local, read, rows)
            else:
                span += n_p * int(high[i])
            o += span
        begin[end] = o
        return begin, placed

    def decode(words, begin, placed) -> tuple[list[Draws], np.ndarray]:
        """The epoch's draws read from words at begin, and the stream
        positions of the words Lemire's method would reject."""
        rejected = []
        plain = ~short
        read = person_words.copy()
        classes = np.empty((end, n_p), dtype=np.int64)
        values, bad = placed_draws(words, begin[:-1][plain], person_bounds[plain])
        classes[plain] = _picks(values, pops[plain], n_p, person_tail[plain])
        rejected.append(bad)
        for i, (local, person_read, _) in placed.items():
            if short[i]:
                classes[i], read[i] = local, person_read
        classes += first[cams, None]
        at_slots = begin[:-1] + read
        slot_counts = slot_words[classes]
        person_samples = samples[classes].ravel()
        bounds, tail = _draw_bounds(person_samples, n_k)
        values, bad = placed_draws(
            words, (at_slots[:, None] + _segment_starts(slot_counts)).ravel(), bounds)
        picks = dataset.class_samples(
            classes[..., None], _picks(values, person_samples, n_k, tail).reshape(end, n_p, n_k))
        rejected.append(bad)
        del values, bounds
        at = at_slots + slot_counts.sum(axis=1)
        mining = cls = positives = None
        if random_mining:
            bounds = _mining_bounds(classes, n_k)
            mining, bad = placed_draws(words, at, bounds)
            mining = mining.reshape(end, n, 2)
            rejected.append(bad)
            at = at + word_counts(bounds)
        if shares is not None:
            cam_at = (at[:, None] + _segment_starts(class_words)).ravel()
            values, bad = placed_draws(words, cam_at, np.tile(class_bounds, (end, 1)))
            cls = _picks(values, np.tile(sizes, end), quota,
                         np.tile(class_tail, end)).reshape(end, sizes.size, quota)
            rejected.append(bad)
            at = at + int(class_words.sum())
        if candidates is not None:
            # Each PK person's n_k anchors draw in turn, those of a person with candidates.
            iteration, person = np.nonzero(candidates.count[classes])
            rows = np.repeat(classes[iteration, person], n_k)
            iteration = np.repeat(iteration, n_k)
            row = np.searchsorted(iteration, np.arange(end + 1))
            row_words = per_row[rows]
            for i, (_, _, costs) in placed.items():
                row_words[row[i]:row[i + 1]] = costs
            row_at = _segment_starts(row_words)  # then from each iteration's first row
            del row_words
            row_at += at[iteration] - row_at[row[iteration]]
            # Places and slots index short rows, so 32 bits hold them.
            places = np.empty((rows.size, n_k), dtype=np.int32)
            picked = np.empty_like(places)
            for lo in range(0, rows.size, DECODE_ROWS):
                block = slice(lo, lo + DECODE_ROWS)
                places[block], picked[block], bad = _positive_draws(
                    words, rows[block], row_at[block], candidates, samples, n_k,
                    near if nearest else None)
                rejected.append(bad)
            positives = [(places[a:b], picked[a:b]) for a, b in zip(row[:-1], row[1:])]
        draws = [Draws((classes[i], picks[i]), None if mining is None else mining[i],
                       None if cls is None else cls[i],
                       None if positives is None else positives[i]) for i in range(end)]
        return draws, np.concatenate(rejected)

    snapshot = rng.bit_generator.state
    words = rng.integers(0, WORD, size=int(spans.sum()), dtype=np.uint32)
    skipped = 0
    while True:
        try:
            begin, placed = place(words)
        except IndexError:
            more = words.size // 4 + 64
        else:
            more = int(begin[end]) - words.size
            if more <= 0:
                draws, rejected = decode(words, begin, placed)
                if not rejected.size:
                    break
                words = np.delete(words, rejected.min())  # numpy reads the next word instead
                skipped += 1
                continue
        words = np.concatenate([words, rng.integers(0, WORD, size=more, dtype=np.uint32)])
    if begin[end] != words.size:
        rng.bit_generator.state = snapshot
        rng.integers(0, WORD, size=int(begin[end]) + skipped, dtype=np.uint32)
    return draws
