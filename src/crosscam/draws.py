"""Exact batched form of per-row `Generator.choice` and `integers` draws.

`choice_rows` gives the picks, the follow-up draws and the generator
state that this loop gives, without a Python call per row on the rows
that one batched call settles:

    for r in range(R):
        c[r] = rng.choice(pops[r], size, replace=pops[r] < size)
        t[r] = [rng.integers(h) for h in then(r, c[r])]

Both calls read the bit generator's 32-bit stream (`next_uint32`, which
for PCG64 hands out the two halves of each 64-bit output in turn)
through Lemire's bounded method (Lemire, "Fast Random Integer Generation
in an Interval", ACM TOMACS 2019): a draw in [0, n) takes a word w,
forms m = w * n, and accepts when m mod 2**32 >= 2**32 mod n, giving
m >> 32; a rejected word is dropped and the next one tried, and n = 1
reads no word at all.  Without replacement, `choice` runs Floyd's
algorithm (Bentley & Floyd, "A sample of brilliance", CACM 1987) for
j = pop - size .. pop - 1 (a draw in [0, j]; j itself when the value
was already taken), then shuffles the picks with draws in [0, i] for
i = size - 1 .. 1; with replacement it makes size draws in [0, pop).

`Generator.integers` given an array of bounds draws each element
through that same bounded method, in order, rejections included, so
one such call makes all of a batch's choice draws, row by row, and the
picks are worked out from the values.  The follow-up draws' bounds wait
for each row's picks, so in that call each follow-up draw has the
placeholder bound 2**32: numpy hands out one raw word for it, which no
bound ever rejects.  `lemire` finishes the follow-up values from those
words.  A row is settled while each of its follow-up words is accepted
under the draw's true bound n and 1 < n <= 2**32 (a person with one
sample reads no word, and a bound above 2**32 takes 64-bit words);
every row before the first unsettled one is exact.  From that row on,
the generator goes back to its state before the call, one
`Generator.integers` call over the settled rows' true bounds advances
it past them, and the loop above draws the rest.  Every row from the
first one in numpy's other branch (a tail shuffle when pop > 10,000 and
size > pop // 50) on takes the loop as well.

`settled_rows` is that batched call alone: it stops at the first
unsettled row and leaves the rest to its caller, and its then may
return any fixed number of follow-up bounds per row.  `placed_draws`
decodes draws from raw words already drawn, at positions the caller
counted with `word_counts`; the epoch plans of `crosscam.plan` decode a
whole epoch's draws that way, and `_picks` turns their choice draws
into picks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError

Then = Callable[[np.ndarray, np.ndarray], np.ndarray]
WORD = 2**32


def _follow_up_bounds(then: Then, rows: np.ndarray, choices: np.ndarray,
                      follow: int) -> np.ndarray:
    bounds = np.asarray(then(rows, choices))
    if bounds.shape != (rows.size, follow):
        raise ContractError(f"follow-up bounds of shape {bounds.shape}, not {(rows.size, follow)}")
    if bounds.min(initial=1) < 1:
        raise ContractError("follow-up draws need bounds >= 1")
    return bounds


def _draw_bounds(pops: np.ndarray, size: int, follow: int) -> np.ndarray:
    """(R, 2*size - 1 + follow) exclusive bounds of each row's draws:
    Floyd's size draws, its size - 1 shuffle draws (with replacement the
    first size, the rest in [0, 1)), then follow placeholders of 2**32."""
    bounds = np.empty((pops.size, 2 * size - 1 + follow), dtype=np.int64)
    np.add(pops[:, None], np.arange(1 - size, 1), out=bounds[:, :size])
    bounds[:, size:2 * size - 1] = np.arange(size, 1, -1)
    bounds[:, 2 * size - 1:] = WORD
    replace = pops < size
    if replace.any():
        bounds[replace, :size] = pops[replace, None]
        bounds[replace, size:2 * size - 1] = 1
    return bounds


def _tail_shuffled(pops: np.ndarray, size: int) -> np.ndarray:
    """Where a choice of size without replacement from pops takes numpy's
    tail-shuffle branch instead of Floyd's algorithm."""
    return (pops >= size) & (pops > 10_000) & (size > pops // 50)


def _picks(values: np.ndarray, pops: np.ndarray, size: int) -> np.ndarray:
    """Each row's choice from its draw values: the draws themselves with
    replacement, else Floyd's selection followed by its shuffle.  The
    Floyd rows are worked on one draw per row of a (size, rows) block."""
    floyd = pops >= size
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
    """(values, settled) of (R, m) draws in [0, bounds) read from a stream
    of raw 32-bit words, row r's from words[starts[r]] on, one word per
    draw but none for a bound-1 draw (value 0, settled); elsewhere as
    lemire.  A position past the stream reads its last word (or 0 from
    an empty one), which a caller that counted the words never keeps."""
    reads = bounds > 1
    at = np.cumsum(reads, axis=1)
    at -= reads
    at += np.asarray(starts)[:, None]
    read = words.take(at, mode="clip") if words.size else np.zeros(at.shape, dtype=np.uint32)
    del at  # the positions go before lemire's temporaries come
    values, settled = lemire(read, bounds)
    settled |= ~reads
    return values, settled


def settled_rows(
    rng: np.random.Generator, pops: np.ndarray, size: int, then: Then | None = None,
    follow: int = 0,
) -> tuple[np.ndarray, np.ndarray | None, int]:
    """(choices, follow-up draws, settled): the (settled, size) choices and
    (settled, follow) follow-up draws of the module docstring's loop over
    its first settled rows, the ones one batched call settles; rng ends
    in the state the loop leaves after them.  then(rows, choices) returns
    those rows' (len(rows), follow) follow-up bounds; without then, every
    row before the first in numpy's tail-shuffle branch settles."""
    pops = np.asarray(pops, dtype=np.int64)
    if size < 1 or pops.ndim != 1 or (pops.size and pops.min() < 1):
        raise ContractError("batched choices need size >= 1 and populations >= 1")
    tail = _tail_shuffled(pops, size)
    end = int(np.argmax(tail)) if tail.any() else pops.size
    n_choice = 2 * size - 1
    bounds = _draw_bounds(pops[:end], size, 0 if then is None else follow)
    snapshot = None if then is None else rng.bit_generator.state
    values = rng.integers(bounds)
    choices = _picks(values, pops[:end], size)
    if then is None:
        return choices, None, end
    later = _follow_up_bounds(then, np.arange(end), choices, follow)
    drawn, ok = lemire(values[:, n_choice:], later)
    if ok.all():
        return choices, drawn, end
    settled = int(np.argmin(ok.all(axis=1)))
    rng.bit_generator.state = snapshot
    bounds[:settled, n_choice:] = later[:settled]
    rng.integers(bounds[:settled])
    return choices[:settled], drawn[:settled], settled


def choice_rows(
    rng: np.random.Generator, pops: np.ndarray, size: int, then: Then | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """(R, size) choices of the module docstring's loop, and the (R, size)
    follow-up draws when then is given; rng ends in the state the loop
    leaves.  then(rows, choices) returns the bounds of those rows' draws."""
    pops = np.asarray(pops, dtype=np.int64)
    choices, drawn, settled = settled_rows(rng, pops, size, then, size)
    if settled == pops.size:
        return choices, drawn
    out = np.zeros((pops.size, size), dtype=np.int64)
    out[:settled] = choices
    if then is not None:
        drawn, kept = np.zeros_like(out), drawn
        drawn[:settled] = kept
    for r in range(settled, pops.size):
        pop = int(pops[r])
        out[r] = rng.choice(pop, size, replace=pop < size)
        if then is not None:
            row_bounds = _follow_up_bounds(then, np.array([r]), out[r:r + 1], size)[0].tolist()
            drawn[r] = [rng.integers(h) for h in row_bounds]
    return out, drawn
