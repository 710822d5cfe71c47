"""Host-speed calibration for the throughput metric.

On a shared machine the same code runs up to ~25% slower or faster from
one minute to the next.  Other tenants load the cores, and CPU time
grows with wall time, so no clock can tell the two apart.  To keep
``sim_s_per_wall_s_at_ref`` steady, ``run.py`` interleaves short slices
of a fixed pure-Python kernel with the workload and times them.  It then
rescales the measured throughput by how slowly those slices ran against
:data:`REFERENCE_SLICE_S`.

Each workload calls :meth:`HostSpeed.checkpoint` from its own event
bus, between sessions or shards, so the slices sample the same seconds
the workload runs in.  Their time is left out of the round's wall time.
In a ``jobs=2`` fleet the slice runs in the parent while it commits a
shard, before it hands out the next one, so it has a core to itself.

The kernel shares no code with the program, so a faster program still
shows as a higher figure.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter
from typing import List

#: Mean seconds of one :func:`kernel_slice` on the reference host: an
#: Intel Xeon at 2.1 GHz (2 vCPUs) running CPython 3.11.
REFERENCE_SLICE_S = 0.025
#: Loop steps in one slice (~25 ms on the reference host).
SLICE_STEPS = 20_000


def kernel_slice(steps: int = SLICE_STEPS) -> float:
    """Seconds for a fixed mix of heap, dict and float work, the kind of
    interpreter work the simulator does."""
    began = perf_counter()
    heap: list = []
    totals: dict = {}
    acc = 0.0
    for i in range(steps):
        heapq.heappush(heap, ((i * 7919) % 1000 / 7.0, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
        totals[i % 97] = totals.get(i % 97, 0.0) + acc * 1e-9
        acc = min(acc * 0.999 + i % 13, 1e6)
    return perf_counter() - began


class HostSpeed:
    """Kernel-slice timings taken over one run."""

    def __init__(self, slices: int = 1):
        self.slices = slices
        self.samples: List[float] = []

    def checkpoint(self) -> None:
        """Time ``slices`` kernel slices."""
        self.samples.extend(kernel_slice() for _ in range(self.slices))

    def slowdown(self, first: int = 0) -> float:
        """Mean time of ``samples[first:]`` over the reference:
        1.25 = 25% slower than the reference host."""
        return statistics.mean(self.samples[first:]) / REFERENCE_SLICE_S
