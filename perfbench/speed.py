"""Host-speed probe: reference-speed seconds for the end-to-end timings.

On a shared 2-core host one pure-Python loop was measured at anywhere
from 0.52 s to 0.81 s within a minute, drifting over seconds as
neighbours come and go, and process CPU time drifts with it. The
benchmark therefore times a fixed probe next to every op and reports
each op's wall time scaled to the probe's reference duration:

    normalized = wall * REFERENCE_S / median(probes around the op)

A change to the program moves the op's wall time but not the probe, so
the scaled time still moves with it; a slower or faster host moves both
and cancels. The raw wall times are printed beside the scaled ones.

The probe must not share an interpreter with the work while that work
runs, or it would slow down with the program and hide a regression. A
closed loop probes between its ops; ``serve`` probes in the client,
which only waits on sockets while the daemon works; set-up is probed
in the parent just before each fresh interpreter starts.
"""

from __future__ import annotations

import statistics
import time

#: loop iterations of one probe (about 10 ms of CPython on the host the
#: benchmark was tuned on)
ITERATIONS = 100_000
#: the probe duration that scaled times refer to
REFERENCE_S = 0.010
#: probes within this many seconds of an op scale it
WINDOW_S = 1.0


def sample() -> tuple[float, float]:
    """One probe: (midpoint time, duration)."""
    t0 = time.perf_counter()
    x = 0
    for j in range(ITERATIONS):
        x += j * j % 7
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


def factor(probes: list[tuple[float, float]], t0: float, t1: float) -> float:
    """REFERENCE_S over the median probe near [t0, t1]."""
    near = [d for t, d in probes if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
    if not near:
        near = [min(probes, key=lambda p: min(abs(p[0] - t0),
                                               abs(p[0] - t1)))[1]]
    return REFERENCE_S / statistics.median(near)
