"""Machine-speed probe: scale wall times to a fixed reference speed.

On a shared host the CPU's speed moves by up to 2x over seconds to
minutes, and every wall-clock metric moves with it.  The benchmark
therefore times a fixed piece of work, :func:`probe`, right after every
drive window and around every set-up, and reports each wall-clock value
scaled by ``REFERENCE_S / median(probe times)`` of the same pass: the
time the run would have taken on a machine where the probe takes
``REFERENCE_S``.  The probe uses no library code, so a change to the
library moves the scaled values and a change in the machine's speed does
not.  The raw wall values are printed beside the scaled ones.

The probe mixes interpreter work (a dict of string keys) with small
NumPy kernels (sort, cumulative sum), as the serving hot paths do.  It
runs on cold caches: :func:`timed_probe` first writes a buffer larger
than the per-core caches, so a probe beside a set-up sees the machine as
a probe after a drive window does.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe time of the reference machine, in seconds: a round figure
#: between the probe's times on a 2.1 GHz Xeon VM core of a shared host
#: (75-160 us, by the host's load).  The scaled values are wall values
#: on a machine where the probe takes this long.
REFERENCE_S = 100e-6

_DATA = np.random.default_rng(0).random(4096)
_KEYS = [f"k{i}" for i in range(200)]
_FLUSH = np.zeros(1 << 19)  # 4 MiB


def probe() -> float:
    """Run the fixed probe work once."""
    table = {}
    for i, key in enumerate(_KEYS):
        table[key] = i * 3 % 7
    total = 0
    for key in _KEYS:
        total += table[key]
    return total + float(np.cumsum(np.sort(_DATA))[-1])


def timed_probe() -> float:
    """Wall seconds of one :func:`probe`, run after evicting the caches."""
    np.add(_FLUSH, 1.0, out=_FLUSH)
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


def scale(probe_s) -> float:
    """Factor that turns wall seconds into reference seconds."""
    return REFERENCE_S / statistics.median(probe_s)
