"""A fixed pure-Python calibration kernel.

On a shared VM the interpreter's speed drifts by tens of percent between
back-to-back runs, and within one run, from one second to the next; a
fixed loop drifts the same way.  The benchmark therefore samples this
kernel before and after every timed serve and every few batches during
it, and rescales time-based metrics to the reference speed recorded in
``golden.json``: time spent while the kernel ran at speed ``s`` counts
as ``s / s_ref`` of that time at the reference speed (rates scale the
other way).  Raw values are kept beside the normalized ones.

The kernel mixes what the detector's hot path does (dict lookups,
attribute access on small objects, method calls, integer arithmetic and
a heap, and scattered reads of a multi-megabyte table) so that
contention moves it the way it moves the service.  Apart from one small
list it allocates nothing the garbage collector tracks, so a sample
almost never pays for a collection of the program's objects.  A sample
is timed on the thread's CPU clock, which excludes time spent waiting
for the interpreter lock (the shard-server threads of storm-remote hold
it at times).  Editing the kernel invalidates the reference speed.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Loop iterations per sample (about 2 ms), after an untimed warming pass.
SAMPLE_OPS = 4_000
WARM_OPS = 1_024


class _Cell:
    __slots__ = ("value", "version")

    def __init__(self, value: int):
        self.value = value
        self.version = 0

    def bump(self, amount: int) -> int:
        self.value = (self.value + amount) & 0xFFFF
        self.version += 1
        return self.value


_CELLS = {key: _Cell(key) for key in range(1024)}

#: A multi-megabyte table read at scattered positions, so the kernel
#: feels cache contention the way the service's large working set does.
_TABLE_BITS = 18
_TABLE = [index * 7 for index in range(1 << _TABLE_BITS)]


def kernel(ops: int = SAMPLE_OPS) -> int:
    """Run the fixed workload; returns a checksum so nothing is
    optimized away."""
    cells = _CELLS
    table = _TABLE
    mask = (1 << _TABLE_BITS) - 1
    heap: list = []
    checksum = 0
    for i in range(ops):
        key = (i * 40503) & 1023
        value = cells.get(key).bump((i ^ key) & 63)
        checksum += table[(i * 2654435761) & mask]
        if value & 15 == 0:
            heapq.heappush(heap, value)
            if len(heap) > 64:
                checksum -= heapq.heappop(heap)
    return checksum


def sample() -> float:
    """Kernel speed in ops/s, measured once on this thread's CPU clock.

    An untimed pass first brings the kernel's state back into the CPU
    caches, so a sample taken between batches measures the machine, not
    how much of the cache the service's last batch evicted."""
    kernel(WARM_OPS)
    started = time.thread_time_ns()
    kernel()
    return SAMPLE_OPS * 1e9 / max(time.thread_time_ns() - started, 1)


def speed(samples: int = 5) -> float:
    """The median of several samples (a bracket around a measurement)."""
    return statistics.median(sample() for _ in range(samples))


if __name__ == "__main__":
    values = [speed() for _ in range(200)]
    print(f"median {statistics.median(values):.0f} ops/s "
          f"(min {min(values):.0f}, max {max(values):.0f})")
