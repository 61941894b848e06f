"""Exact batched replay of per-row `Generator.choice` and `integers` draws.

`choice_rows` gives the picks, the follow-up draws and the generator
state that this loop gives, without a Python call per row on the rows
that the replay settles:

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

Without follow-up draws (then is None) every bound is known before the
first draw, and `Generator.integers` given an array of bounds draws each
element through that same bounded method, in order, rejections
included; so `choice_rows` makes all the choice draws in one such call
and only turns them into picks.  With follow-up draws, whose bounds wait
for each row's picks, `replay` is the pure core: it reads a raw word
array and replays all rows as array operations, giving each draw of
range above 1 the next word.  That holds up to the first rejected word
(odds below n / 2**32 per draw) and the first follow-up draw of range 1
(a person with one sample, which reads no word); the rows before it are
exact, and `choice_rows` draws the rows from there on through the loop
above.  Either way every row from the first one in numpy's other branch
(a tail shuffle when pop > 10,000 and size > pop // 50) on takes the
loop.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError

Then = Callable[[np.ndarray, np.ndarray], np.ndarray]
WORD = np.uint64(2**32)


def _follow_up_bounds(then: Then, rows: np.ndarray, choices: np.ndarray) -> np.ndarray:
    bounds = np.asarray(then(rows, choices))
    if bounds.min(initial=1) < 1:
        raise ContractError("follow-up draws need bounds >= 1")
    return bounds


def _choice_bounds(pops: np.ndarray, size: int) -> np.ndarray:
    """(R, 2*size - 1) exclusive bounds of each row's choice draws: Floyd's
    size draws, then its size - 1 shuffle draws; with replacement the
    first size, the rest in [0, 1)."""
    floyd = (pops >= size)[:, None]
    bounds = np.ones((pops.size, 2 * size - 1), dtype=np.int64)
    bounds[:, :size] = pops[:, None] + np.where(floyd, np.arange(1 - size, 1), 0)
    bounds[:, size:] = np.where(floyd, np.arange(size, 1, -1), 1)
    return bounds


def _picks(values: np.ndarray, pops: np.ndarray, size: int) -> np.ndarray:
    """Each row's choice from its draw values: the draws themselves with
    replacement, else Floyd's selection followed by its shuffle."""
    out = values[:, :size].copy()
    floyd = np.flatnonzero(pops >= size)
    sel = out[floyd]
    top = pops[floyd, None] + np.arange(-size, 0)  # Floyd's j of each draw
    for t in range(1, size):  # the first draw is never taken
        np.copyto(sel[:, t], top[:, t], where=(sel[:, :t] == sel[:, t, None]).any(axis=1))
    flat = sel.reshape(-1)  # a view: sel is a fresh C-contiguous array
    swaps = np.arange(0, flat.size, size)[:, None] + values[floyd, size:]
    for u, i in enumerate(range(size - 1, 0, -1)):
        j = swaps[:, u]
        flat[j], sel[:, i] = sel[:, i], flat[j]
    out[floyd] = sel
    return out


def replay(words: np.ndarray, pops: np.ndarray, size: int, then: Then):
    """(choices, follow-up draws, rows settled, words they read) of
    choice_rows' loop over a raw uint32 word stream.

    Every row takes 2*size - 1 choice draws (Floyd's size, then its
    size - 1 shuffle draws; with replacement the first size, the rest in
    [0, 1)) and size follow-up draws, whose bounds wait for the picks.
    words must hold a word for each choice draw of range above 1 and
    each follow-up draw.  The first `settled` rows are exact: every draw
    in and before them of range above 1 had its word accepted, and no
    follow-up draw of range 1 was given one.  The other rows' values are
    not the loop's.
    """
    pops = np.asarray(pops, dtype=np.int64)
    R, n_choice = pops.size, 2 * size - 1
    bounds = np.concatenate([_choice_bounds(pops, size), np.ones((R, size), dtype=np.int64)],
                            axis=1)
    reads = bounds > 1
    reads[:, n_choice:] = True
    pos = np.cumsum(reads).reshape(reads.shape) - 1  # a draw of range 1 gets any word
    need = int(reads.sum())
    if words.size < need:
        raise ContractError(f"replay needs {need} words, got {words.size}")
    w = np.zeros(need + 1, dtype=np.uint64)
    w[:need] = words[:need]

    def draw(cols: slice):
        n = bounds[:, cols].astype(np.uint64)
        m = w[pos[:, cols]] * n
        return (m >> np.uint64(32)).astype(np.int64), m % WORD >= WORD % n

    values, ok = draw(slice(0, n_choice))
    choices = _picks(values, pops, size)
    bounds[:, n_choice:] = _follow_up_bounds(then, np.arange(R), choices)
    drawn, ok_then = draw(slice(n_choice, None))
    ok = np.concatenate([ok, ok_then & (bounds[:, n_choice:] > 1)], axis=1)
    wrong = ~ok.all(axis=1)
    settled = int(np.argmax(wrong)) if wrong.any() else R
    return choices, drawn, settled, int(reads[:settled].sum())


def choice_rows(
    rng: np.random.Generator, pops: np.ndarray, size: int, then: Then | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """(R, size) choices of the module docstring's loop, and the (R, size)
    follow-up draws when then is given; rng ends in the state the loop
    leaves.  then(rows, choices) returns the bounds of those rows' draws."""
    pops = np.asarray(pops, dtype=np.int64)
    if size < 1 or pops.ndim != 1 or (pops.size and pops.min() < 1):
        raise ContractError("choice_rows needs size >= 1 and populations >= 1")
    tail = (pops >= size) & (pops > 10_000) & (size > pops // 50)
    end = int(np.argmax(tail)) if tail.any() else pops.size
    if then is None:
        # Every bound is known before the first draw, so numpy draws them
        # all in one call, rejected words included, as the loop would.
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
            bounds = _follow_up_bounds(then, np.array([r]), out[r:r + 1])[0].tolist()
            follow[r] = [rng.integers(h) for h in bounds]
    return out, follow
