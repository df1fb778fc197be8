"""Host-speed reference for normalizing latencies on a shared machine.

On a machine shared with other tenants the same Python code runs up to
about 1.9x faster or slower from one second to the next, and CPU time
moves with wall time, so the drift comes from the host, not the program.
A fixed pure-Python probe (`spin`), timed right before every op, tracks
that drift.  Each op's latency is scaled by REFERENCE_S / (median probe
time around the op), which turns it into milliseconds at a fixed
reference host speed.  The run record keeps the raw figures next to the
normalized ones.

The probe composes small lookup tables into tuples and checks set
membership, the same mix of work as perdec's scans, and it does not call
perdec, so a change to perdec cannot move it.  Of the probes tried on a
2-core shared VM (an integer/dict loop, Fraction sums, a pointer chase
through a large list, this one), it tracked the speed of the `search`
workload best: one-second passes of the same 60 search trials varied by
18% raw and by 2.5% once normalized.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from typing import List

_TABLES = [tuple(random.Random(k).randrange(40) for _ in range(40))
           for k in range(6)]
# probe time on the reference host state (2-core shared VM, Python 3.11);
# only the scale of the normalized numbers depends on it
REFERENCE_S = 0.15e-3
WINDOW = 3  # probes on each side of an op that set its host speed


def spin() -> float:
    """Seconds for one fixed probe that does not touch perdec."""
    start = time.perf_counter()
    seen = set()
    found = 0
    for t in _TABLES:
        for u in _TABLES:
            row = tuple(t[u[x]] for x in range(40))
            seen.add(row[:5])
            for x in range(0, 40, 4):
                found += row[x] in seen
    return time.perf_counter() - start


def calibrate(samples: int = 51) -> float:
    """Median probe time now: the run record's before/after host speed."""
    return statistics.median(spin() for _ in range(samples))


class HostSpeed:
    """Probe times taken right before each op, with their timestamps."""

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self.spins: List[float] = []

    def sample(self) -> None:
        self.stamps.append(time.perf_counter())
        self.spins.append(spin())

    def scale_at(self, when: float) -> float:
        """REFERENCE_S over the median probe time around `when`."""
        i = bisect.bisect_left(self.stamps, when)
        window = self.spins[max(0, i - WINDOW):i + WINDOW]
        return REFERENCE_S / statistics.median(window)
