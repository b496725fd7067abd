"""A fixed reference workload that tracks the host's current speed.

Small shared hosts change speed by 30% or more for seconds to minutes at
a time (other tenants, frequency changes); a phase can cover a whole
run, which no averaging inside the run removes.  So the benchmark times
this workload before and after every cell and every set-up probe and
reports host times scaled to a host on which it takes
:data:`REFERENCE_S`:
``scaled = measured * REFERENCE_S / mean(reference before, after)``.

The workload is pure standard-library Python shaped like the simulator's
hot loops: allocating small slotted objects, dict stores and lookups,
tuples on a heap, pointer chasing over a few MB.  It shares no code with
the program.  It runs in a helper process (:class:`ReferenceClock`), so
the program's heap cannot change its allocator or garbage-collector
cost, pinned for each timing to the core the measured process last ran
on (or the core a set-up probe was pinned to), because the two cores of
a small host drift separately.

Run as a script, this module is that helper: it reads a core number per
line (``-1`` for any core) and answers each with one timing.
"""

from __future__ import annotations

import heapq
import os
import subprocess
import sys
import time
from typing import Optional

#: Seconds :func:`reference_work` takes on the host the benchmark was
#: tuned on (a 2-core Intel Xeon host, Python 3.11).  It only sets
#: the scale of the reported times.
REFERENCE_S = 0.13

_ITEMS = 60_000


class _Item:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: float, nxt: "_Item | None"):
        self.key = key
        self.value = value
        self.next = nxt


def reference_work() -> float:
    table = {}
    head = None
    heap = []
    for i in range(_ITEMS):
        head = _Item(i, i * 0.5, head)
        table[(i * 7919) % 100_003] = head
        if i % 3 == 0:
            heapq.heappush(heap, ((i * 31) % 1009 * 0.01, i, head))
    total = 0.0
    while heap:
        t, i, _item = heapq.heappop(heap)
        probe = table.get((i * 7919) % 100_003)
        total += t + (probe.value if probe is not None else 0.0)
    node = head
    while node is not None:
        total += node.value
        node = node.next
    return total


def current_cpu() -> int:
    """The core this process last ran on (``-1`` if unknown)."""
    try:
        with open("/proc/self/stat") as handle:
            # Field 39 of stat(5); the command name before ")" may hold spaces.
            return int(handle.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return -1


class ReferenceClock:
    """Times :func:`reference_work` in a helper process on request."""

    def __enter__(self) -> "ReferenceClock":
        self._helper = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def seconds(self, cpu: Optional[int] = None) -> float:
        """Seconds the reference workload takes now, on ``cpu`` (by
        default the core this process last ran on)."""
        self._helper.stdin.write(f"{current_cpu() if cpu is None else cpu}\n")
        self._helper.stdin.flush()
        return float(self._helper.stdout.readline())

    def __exit__(self, *exc_info) -> None:
        self._helper.stdin.close()
        self._helper.wait(timeout=30)


def _serve() -> None:
    cores = os.sched_getaffinity(0)
    reference_work()  # first run pays for fresh allocator arenas
    for line in sys.stdin:
        cpu = int(line)
        if cpu in cores:
            os.sched_setaffinity(0, {cpu})
        began = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - began
        os.sched_setaffinity(0, cores)
        print(repr(elapsed), flush=True)


if __name__ == "__main__":
    _serve()
