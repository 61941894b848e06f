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
return any fixed number of follow-up bounds per row.  `nested_choices`
uses it for follow-up draws that are themselves choices (the PK
sampler's persons, then each person's samples): each chosen member's
choice gets one placeholder word per draw, and `_picks` decodes them
once the members are known.  It ends its rows, before drawing, at the
first one whose words it could not decode that way, so only a rejected
word stops a row earlier.
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


def _decodable(pops: np.ndarray, size: int) -> np.ndarray:
    """Where a choice of size from pops reads one word per draw, so its
    values can be decoded from placeholder words: Floyd's algorithm with
    pop > size (pop == size starts with a draw in [0, 1), which reads no
    word, and pop < size draws with replacement and pads with such draws)."""
    return (pops > size) & ~_tail_shuffled(pops, size)


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
    n = bounds.astype(np.uint64)
    m = words.astype(np.uint64) * n  # below 2**64 wherever n <= 2**32
    low = m & np.uint64(WORD - 1)
    settled = (low >= np.uint64(WORD) % n) & (n > 1) & (n <= WORD)
    return (m >> np.uint64(32)).astype(np.int64), settled


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


def nested_choices(
    rng: np.random.Generator, pops: np.ndarray, size: int, first: np.ndarray,
    member_pops: np.ndarray, sub_size: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """(choices, sub-choices, settled): the (settled, size) choices and
    (settled, size, sub_size) sub-choices of this loop over its first
    settled rows; rng ends in the state the loop leaves after them:

        for r in range(R):
            c[r] = rng.choice(pops[r], size, replace=False)
            for i, j in enumerate(c[r]):
                p = member_pops[first[r] + j]
                s[r, i] = rng.choice(p, size=sub_size, replace=p < sub_size)

    The rows end, before anything is drawn, at the first row r that is
    short (pops[r] < size), in numpy's tail-shuffle branch, or holds a
    member in member_pops[first[r]:first[r] + pops[r]] that _decodable
    rejects; one settled_rows call draws the rows before it and settles
    them all but from a rejected placeholder word on."""
    pops = np.asarray(pops, dtype=np.int64)
    first, member_pops = np.asarray(first, dtype=np.int64), np.asarray(member_pops, dtype=np.int64)
    undecodable = np.concatenate([[0], np.cumsum(~_decodable(member_pops, sub_size))])  # before i
    stop = ((pops < size) | _tail_shuffled(pops, size)
            | (undecodable[first + pops] > undecodable[first]))
    end = int(np.argmax(stop)) if stop.any() else pops.size
    per = 2 * sub_size - 1  # Floyd's sub_size draws and its sub_size - 1 shuffle draws

    def members(rows: np.ndarray, chosen: np.ndarray) -> np.ndarray:
        return member_pops[first[rows, None] + chosen].reshape(-1)

    def then(rows: np.ndarray, chosen: np.ndarray) -> np.ndarray:
        return _draw_bounds(members(rows, chosen), sub_size, 0).reshape(rows.size, size * per)

    chosen, drawn, settled = settled_rows(rng, pops[:end], size, then, size * per)
    subs = _picks(drawn.reshape(-1, per), members(np.arange(settled), chosen), sub_size)
    return chosen, subs.reshape(settled, size, sub_size), settled
