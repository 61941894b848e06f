"""Numpy's bounded draws, decoded from the raw 32-bit words they read.

`Generator.choice` and `Generator.integers` read the bit generator's
32-bit stream (`next_uint32`, which for PCG64 hands out the two halves of
each 64-bit output in turn) through Lemire's bounded method (Lemire,
"Fast Random Integer Generation in an Interval", ACM TOMACS 2019,
arXiv 1805.10941): a draw in [0, n) takes a word w, forms m = w * n, and
accepts when m mod 2**32 >= 2**32 mod n, giving m >> 32; a rejected word
is dropped and the next one tried, and n = 1 reads no word at all.  A
choice of size from pop draws, with replacement, size times in
[0, pop).  Without replacement it runs Floyd's algorithm (Bentley &
Floyd, "A sample of brilliance", CACM 1987) for j = pop - size .. pop - 1
(a draw in [0, j]; j itself when the value was already taken), then
shuffles the picks with draws in [0, i] for i = size - 1 .. 1; when
pop > 10,000 and size > pop // 50 it instead shuffles the tail of
0 .. pop - 1 with draws in [0, i] for i = pop - 1 .. pop - size, and the
picks are that tail.

`_draw_bounds` gives each choice's draw bounds, `word_counts` the words
they read when none is rejected, `placed_draws` the values of draws read
from words already drawn at positions its caller counted, with the
positions of the words Lemire's method rejects, and `_picks` turns a
choice's draw values into its picks.  The epoch plans of `crosscam.plan`
decode a whole epoch's draws that way, before its first iteration, so a
TrainingError in train leaves the generator past all of the epoch's
planned draws.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

WORD = 2**32


def _draw_bounds(pops: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(bounds, tail): the (R, 2*size - 1) exclusive bounds of each row's
    draws in a choice of size from pops[r], in the order numpy reads
    them, bound-1 draws (which read no word) to fill; and the rows in
    numpy's tail-shuffle branch.  Floyd's size draws then its size - 1
    shuffle draws; with replacement size draws in [0, pop); in the
    tail-shuffle branch size draws in [0, pop - t) for t = 0 .. size - 1."""
    bounds = np.empty((pops.size, 2 * size - 1), dtype=np.int64)
    np.add(pops[:, None], np.arange(1 - size, 1), out=bounds[:, :size])
    bounds[:, size:] = np.arange(size, 1, -1)
    replace = pops < size
    tail = ~replace & (pops > 10_000) & (size > pops // 50)
    for rows, first in ((replace, pops[replace, None]),
                        (tail, pops[tail, None] - np.arange(size))):
        if rows.any():
            bounds[rows, :size] = first
            bounds[rows, size:] = 1
    return bounds, tail


def _picks(values: np.ndarray, pops: np.ndarray, size: int, tail: np.ndarray) -> np.ndarray:
    """Each row's choice from its draw values (_draw_bounds' columns):
    the draws themselves with replacement, Floyd's selection followed by
    its shuffle, or in a tail row the shuffled tail.  The Floyd rows are
    worked on one draw per row of a (size, rows) block."""
    floyd = (pops >= size) & ~tail
    every = bool(floyd.all())
    # Floyd's j of draw t is top + t.
    rows, top = (values, pops - size) if every else (values[floyd], pops[floyd] - size)
    sel = rows[:, :size].T.copy()
    for t in range(1, size):  # the first draw is never taken
        np.copyto(sel[t], top + t, where=(sel[:t] == sel[t]).any(axis=0))
    n = sel.shape[1]
    flat = sel.reshape(-1)  # a view: sel is a fresh C-contiguous array
    partner = rows[:, size:2 * size - 1].T * n + np.arange(n)  # flat place of each swap's j
    for u, i in enumerate(range(size - 1, 0, -1)):
        j = partner[u]
        taken = flat[j]
        flat[j] = sel[i]
        sel[i] = taken
    if every:
        return sel.T
    out = values[:, :size].copy()
    out[floyd] = sel.T
    for r in np.flatnonzero(tail).tolist():  # a partial Fisher-Yates shuffle of 0 .. pop - 1
        pop, moved = int(pops[r]), {}
        for i, j in zip(range(pop - 1, pop - size - 1, -1), values[r, :size].tolist()):
            moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
        out[r] = [moved.get(i, i) for i in range(pop - size, pop)]
    return out


def lemire(words: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, settled) of draws in [0, bounds) from raw 32-bit words by
    Lemire's method: value (w * n) >> 32, settled where numpy's draw
    would read exactly that word and keep it, that is where
    (w * n) mod 2**32 >= 2**32 mod n and 1 < n <= 2**32."""
    words, bounds = np.asarray(words), np.asarray(bounds)
    if words.shape != bounds.shape:
        raise ContractError(f"{words.shape} words for bounds of shape {bounds.shape}")
    m = words.astype(np.uint64)
    np.multiply(m, bounds, out=m, dtype=np.uint64, casting="unsafe")  # < 2**64 where n <= 2**32
    low = m.astype(np.uint32)  # m mod 2**32
    settled = low >= bounds  # 2**32 mod n < n, so only a low part below n needs the threshold
    near = ~settled
    if near.any():
        settled[near] = low[near] >= WORD % bounds[near]
    settled &= (bounds > 1) & (bounds <= WORD)
    m >>= np.uint64(32)
    return m.view(np.int64), settled


def word_counts(bounds: np.ndarray) -> np.ndarray:
    """The 32-bit words each row of draws in [0, bounds) reads when no
    word is rejected: one per draw, none for a bound of 1."""
    return np.count_nonzero(np.asarray(bounds) > 1, axis=-1)


def placed_draws(words: np.ndarray, starts: np.ndarray,
                 bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, rejected) of (R, m) draws in [0, bounds) read from a
    stream of raw 32-bit words, row r's from words[starts[r]] on, one
    word per draw but none for a bound-1 draw (value 0), as lemire; and
    the stream positions of the words it would reject.  A position past
    the stream reads its last word (or 0 from an empty one), which a
    caller that counted the words never keeps."""
    reads = bounds > 1

    def positions() -> np.ndarray:
        at = np.cumsum(reads, axis=1)
        at -= reads
        at += np.asarray(starts)[:, None]
        return at

    at = positions()
    read = words.take(at, mode="clip") if words.size else np.zeros(at.shape, dtype=np.uint32)
    del at  # the positions go before lemire's temporaries come
    values, settled = lemire(read, bounds)
    rejected = reads & ~settled
    return values, positions()[rejected] if rejected.any() else np.zeros(0, dtype=np.int64)
