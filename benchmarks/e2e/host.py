"""Host-speed probe: timings are reported at a reference host speed.

The benchmark runs on a shared 2-vCPU VM whose speed wanders: the same
replayed chain-market sessions took from 0.59 s to 1.06 s per batch
within two minutes, in swings lasting tens of seconds, and the two vCPUs
wander apart.  Ten runs of unchanged code spread by up to 21% on a raw
timing.  A fixed work unit run next to the program slows down with it.

So, while a window runs, :class:`Probe` runs :func:`unit` on the
event-loop thread every ``PERIOD_S``, each time moved onto the next CPU
the process may use, and times it in *thread* CPU time (waits for the
interpreter lock do not count).  In each ``SLICE_S`` slice of the window
the unit's time ``u`` is the mean over CPUs of each CPU's median.  A
time ``t`` measured in that slice is reported as ``t * REF_UNIT_S / u``:
what it would have taken on a host running the unit in ``REF_UNIT_S``.
The unit is benchmark code, so a change to the program moves the scaled
numbers as it moves the raw ones.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import os
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: Seconds between probe units while a window runs.
PERIOD_S = 0.05
#: Length of the slices a window's speed factors are taken over.
SLICE_S = 1.0
#: The reference host's unit time.  A constant near the unit's time
#: under load on the 2-vCPU ``Intel(R) Xeon(R) Processor`` VM the
#: benchmark was defined on, where per-run speed factors ranged from
#: 0.80 to 1.16; only its constancy matters.
REF_UNIT_S = 0.0006


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: Tuple[int, int], weight: float) -> None:
        self.key, self.weight = key, weight


def unit(n: int = 300) -> float:
    """A fixed pure-Python work unit: objects, a dict, a bounded heap."""
    table: Dict[Tuple[int, int], float] = {}
    heap: List[Tuple[float, int]] = []
    best = float("inf")
    weight = 0.5
    for i in range(n):
        weight = (weight * 3.9) % 1.0
        item = _Item((i % 97, i % 13), weight)
        table[item.key] = table.get(item.key, 0.0) + item.weight
        heapq.heappush(heap, (item.weight, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        best = min(best, table[item.key])
    return best


def time_unit(cpu: Optional[int] = None) -> float:
    """Thread CPU seconds of one :func:`unit`, run on ``cpu`` if given."""
    if cpu is None:
        start = time.thread_time()
        unit()
        return time.thread_time() - start
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        start = time.thread_time()
        unit()
        return time.thread_time() - start
    finally:
        os.sched_setaffinity(0, allowed)


class Probe:
    """Runs a unit every ``PERIOD_S`` on the event loop, round-robin over
    the process's CPUs; keeps ``(perf_counter, cpu, unit seconds)``."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, Optional[int], float]] = []
        self.cpu_s = 0.0
        self._task: Optional["asyncio.Task[None]"] = None

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        task, self._task = self._task, None
        if task is None:
            return
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass

    async def _run(self) -> None:
        cpus: List[Optional[int]] = [None]
        if hasattr(os, "sched_setaffinity"):
            cpus = sorted(os.sched_getaffinity(0))
        for cpu in itertools.cycle(cpus):
            seconds = time_unit(cpu)
            self.cpu_s += seconds
            self.samples.append((time.perf_counter(), cpu, seconds))
            await asyncio.sleep(PERIOD_S)


class Scale:
    """Per-slice speed factors ``REF_UNIT_S / u`` for a window that began
    at ``start`` (a ``perf_counter`` reading)."""

    def __init__(
        self, samples: List[Tuple[float, Optional[int], float]], start: float
    ) -> None:
        slices: Dict[int, Dict[Optional[int], List[float]]] = defaultdict(
            lambda: defaultdict(list)
        )
        for at, cpu, seconds in samples:
            if at >= start:
                slices[int((at - start) / SLICE_S)][cpu].append(seconds)
        if not slices:
            raise ValueError("no probe sample inside the window")
        self.start = start
        self._factors = {
            k: REF_UNIT_S
            / statistics.mean(statistics.median(v) for v in per_cpu.values())
            for k, per_cpu in slices.items()
        }

    def factor(self, at: float) -> float:
        """The factor of the slice holding ``at``, or of the nearest
        slice that has samples."""
        k = int((at - self.start) / SLICE_S)
        nearest = min(self._factors, key=lambda j: (abs(j - k), j))
        return self._factors[nearest]

    def duration(self, t0: float, t1: float) -> float:
        """Reference-speed length of ``[t0, t1]``: each slice's part of
        the interval times that slice's factor."""
        total, at = 0.0, t0
        while at < t1:
            k = int((at - self.start) / SLICE_S)
            edge = min(t1, self.start + (k + 1) * SLICE_S)
            total += (edge - at) * self.factor(at)
            at = edge
        return total
