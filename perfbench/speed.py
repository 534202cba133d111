"""Machine-speed reference for scaling measured times.

On a shared machine the speed of a core drifts by up to a quarter within
seconds, with the same code and no other process of ours running. The
benchmark therefore runs a fixed reference loop, independent of retroflow,
between slices of program work, and scales each slice by REFERENCE_S over
the mean of the reference times measured just before and just after it.
A scaled time reads as the time the work takes on a core that runs the
reference loop in REFERENCE_S.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import time

REFERENCE_S = 0.005  # the loop's typical time on the 2-core x86 machine the baseline was taken on
SAMPLE_EVERY_S = 0.25  # longest stretch of program time between two samples

_N = 300
_rng = random.Random(0)
_ADJ = tuple(tuple((_rng.random(), _rng.randrange(_N)) for _ in range(4)) for _ in range(_N))


def reference() -> float:
    """Seconds for a fixed batch of Dijkstra searches, the same mix of
    dict, set, tuple and heap work as the program's own. The cyclic
    collector is paused meanwhile: a collection would walk the program's
    whole heap and charge it to the reference."""
    paused = gc.isenabled()
    gc.disable()
    try:
        return _searches()
    finally:
        if paused:
            gc.enable()


def _searches() -> float:
    start = time.perf_counter()
    for src in range(0, _N, 30):
        dist = {src: 0.0}
        heap = [(0.0, src)]
        done = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for w, v in _ADJ[u]:
                if d + w < dist.get(v, math.inf):
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
    return time.perf_counter() - start


class Timeline:
    """Program time of one pass, cut into segments by reference samples."""

    def __init__(self):
        self.refs = [reference()]
        self.raw: list[float] = []  # program seconds of each closed segment
        self._start = time.perf_counter()

    @property
    def segment(self) -> int:
        """Index of the segment now open."""
        return len(self.raw)

    def cut(self, force: bool = False):
        """Close the open segment and sample the reference, if forced or
        once SAMPLE_EVERY_S of program time has passed."""
        now = time.perf_counter()
        if force or now - self._start >= SAMPLE_EVERY_S:
            self.raw.append(now - self._start)
            self.refs.append(reference())
            self._start = time.perf_counter()

    def scale(self, i: int) -> float:
        return 2 * REFERENCE_S / (self.refs[i] + self.refs[i + 1])

    def total(self) -> float:
        return sum(raw * self.scale(i) for i, raw in enumerate(self.raw))
