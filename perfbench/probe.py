"""A fixed reference computation, timed next to the program to factor out host speed.

On a shared host the same job can run 1.7 times slower for a minute or
two while a neighbour is busy.  The ``*_rel`` metrics divide each timed
piece of the program by the time of this probe, run in the same process
right after it, so a slow spell slows both and cancels.  The probe does
the kinds of work the package does, at its sizes: small matrix products,
a pairwise-distance matrix, per-row Python loops over small NumPy
arrays, and row sorts.

The probe is part of the benchmark's definition: changing it rescales
every ``*_rel`` metric, so it never changes in a change that is measured
with it.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20190815)
_E = _RNG.standard_normal((128, 32))
_W = _RNG.standard_normal((32, 64))
_G = _RNG.standard_normal((700, 32))
REPEATS = 3  # about 16 ms on a 2 GHz Xeon core


def probe() -> float:
    """Seconds taken by one run of the fixed reference computation."""
    t = time.perf_counter()
    for _ in range(REPEATS):
        hidden = np.maximum(_E @ _W, 0.0)
        hidden.T @ _E
        sq = (_E * _E).sum(axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (_E @ _E.T)
        np.argmin(np.where(d2 > 0.0, d2, np.inf), axis=1)
        for a in range(_E.shape[0]):
            diff = _E - _E[a]
            np.sqrt(np.sum(diff * diff, axis=1)).argmin()
        dq = (_E[:40] ** 2).sum(axis=1)[:, None] + (_G ** 2).sum(axis=1)[None, :] - 2.0 * (_E[:40] @ _G.T)
        for q in range(40):
            np.argsort(dq[q], kind="stable")
    return time.perf_counter() - t
