"""Machine-speed probe: times normalised to a reference speed.

On a small shared virtual machine the host's load changes how fast the same
code runs.  On the 2-vCPU machine where this benchmark was defined, a fixed
Python loop ran up to 1.7 times faster or slower from one 5-second window to
the next, in phases lasting tens of seconds.  Process CPU time drifted with
wall time, so the change is in speed, not in waiting.  Drift of this size
is larger than any useful bound, and it does not average out within one
run.

So every operation is bracketed by a short probe that never touches
hofchain.  The probe mixes Python complex arithmetic with small numpy and
LAPACK calls, like the workloads do.  Each operation's time is scaled by
REF_PROBE_S over the mean probe time around it.  The result is the time
the operation would take when the probe runs at its reference speed.  The
raw wall times are reported next to the normalised ones.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

REF_PROBE_S = 5.5e-4   # the probe's steady-state time on that machine

_M = (np.arange(49).reshape(7, 7) % 5 + 1j) / 7


def probe() -> float:
    """Best of two runs of a fixed kernel, in seconds."""
    best = math.inf
    for _ in range(2):
        t0 = perf_counter()
        x, acc = 0.3 + 0.1j, 1.0 + 0j
        for _ in range(400):
            acc *= 1.0 - x
            x *= 0.999 + 0.01j
        B = np.kron(_M, _M)
        for _ in range(3):
            B = B @ B.T / 50.0
        np.linalg.eigvals(B[:20, :20])
        np.linalg.svd(B[:30, :30], compute_uv=False)
        best = min(best, perf_counter() - t0)
    return best


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time between two probes into reference time."""
    return 2 * REF_PROBE_S / (before + after)
