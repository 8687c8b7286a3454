"""Fixed reference work that measures how fast the host runs right now.

The benchmark shares a few cores of a host with other tenants, and their
load slows every instruction stream on it by up to 1.7x, in spells that last
from seconds to many minutes: longer than one benchmark run. No choice among
a run's own samples (fastest, median) can remove a spell that covers the
whole run. So every timed call of the program is bracketed by this fixed
piece of work, which uses neither ``dynhop`` nor anything a change to it can
touch, and the benchmark reports the program's time divided by the mean of
the two reference times: the program's cost in units of the host's current
speed. ``REFERENCE_S`` turns
that ratio back into seconds as they read on the uncontended host.

The work mixes what the pipeline spends its time on: Python dict and tuple
building, windowed correlation on small arrays, a 111x111 ``eigh`` and a
loop of small matrix-vector products. It touches a few hundred kilobytes, so
it does not flush the caches the program is about to use.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_rng = np.random.default_rng(20241022)
_SERIES = _rng.standard_normal((120, 60))
_SYM = _rng.standard_normal((111, 111))
_SYM = _SYM + _SYM.T
_SMALL = _rng.standard_normal((26, 26))
_VEC = _rng.standard_normal(26)

# seconds one call of reference_work() takes on an uncontended 2-core Xeon
# (Sapphire Rapids, KVM guest; Python 3.11, numpy 2.4, OpenBLAS one thread):
# the fastest of 600 calls in a row (their median was 0.031 s)
REFERENCE_S = 0.0205


def reference_work() -> float:
    """Do the fixed work once; return a value that depends on all of it."""
    table: dict[tuple[int, int], float] = {}
    for i in range(6000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0.0) + 0.5 * i
    acc = sum(v for _, v in sorted(table.items())[:3])

    windows = sliding_window_view(_SERIES, 20, axis=0)
    centered = windows - windows.mean(axis=2, keepdims=True)
    sumsq = np.einsum("tnw,tnw->tn", centered, centered)
    for k in range(250):
        i, j = k % 60, (7 * k) % 60
        num = np.einsum("tw,tw->t", centered[:, i, :], centered[:, j, :])
        acc += float(np.clip(np.abs(num) / np.sqrt(sumsq[:, i] * sumsq[:, j]), 0.0, 1.0)[0])

    for _ in range(4):
        acc += float(np.linalg.eigh(_SYM)[0][0])

    y = _VEC
    for _ in range(1500):
        y = _SMALL @ y
        y = y / np.linalg.norm(y)
    return acc + float(y[0])


def reference_seconds() -> float:
    """Wall seconds one call of the reference work takes now."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start
