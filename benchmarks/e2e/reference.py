"""A fixed reference computation that gauges the host's current speed.

On a shared host the same code runs at speeds that swing by up to 2x
within a second and drift by tens of percent over minutes.  The
benchmark runs :func:`reference_s` after every pass of its measured
window (one query of every kind, 60-150 ms) on the CPU the program runs
on, and reports each timing of the pass scaled by
``(NOMINAL_S / reference_s()) ** SENSITIVITY``: the time the program
would have taken had the host run the reference at its nominal speed.
The kernel is the benchmark's own code, so a change to the program
moves the scaled timings by as much as the raw ones and leaves the
reference alone.

The kernel mixes the two kinds of work the program does, since they
slow down differently on a busy host: an interpreter-bound part (a
generator-driven event loop over a heap and dicts, then a list sort,
like the simulator's ``MCBNetwork.run``) and a NumPy part (sorts,
gathers and argsorts over a few ten thousand values, like the vector
engine's column passes).
"""

from __future__ import annotations

import heapq
import statistics
import time

import numpy as np

#: Median time of one kernel call on the host the benchmark's
#: numbers were calibrated on (a two-vCPU Xeon VM at 2.0 GHz, Python
#: 3.11, NumPy 2.4); scaled timings read as timings on that host.
NOMINAL_S = 0.005
#: The program slows more than the kernel when the host slows: over
#: 80 runs of the four workloads on that VM, with the kernel's median
#: time ranging over 2.9-4.9 ms, the program's times grew as the
#: 1.1-1.3th power of the kernel's (the kernel's working set is small
#: and stays in cache).  Timings are scaled by that power of the
#: kernel's slowdown, so that they read the same at every host speed.
SENSITIVITY = 1.2

_STEPS = 2000
_VALUES = np.random.default_rng(0).integers(0, 1 << 30, size=1 << 14)
_ORDER = np.random.default_rng(1).permutation(1 << 14)


def _event_loop() -> None:
    def node(ident):
        total = 0
        while True:
            total += yield ident + (total & 7)

    nodes = [node(i) for i in range(16)]
    for gen in nodes:
        next(gen)
    wake = [(0, i) for i in range(16)]
    channels: dict[int, int] = {}
    for step in range(_STEPS):
        at, ident = heapq.heappop(wake)
        out = nodes[ident].send(step & 31)
        channels[out & 7] = channels.get(out & 7, 0) + out
        heapq.heappush(wake, (at + 1 + (out & 3), ident))
    values = [(x * 7919) % 1009 for x in range(_STEPS)]
    values.sort(reverse=True)


def _array_passes() -> None:
    ordered = np.sort(_VALUES)
    np.argsort(ordered[_ORDER], kind="stable")


def reference_s() -> float:
    """Seconds one kernel call takes now."""
    start = time.perf_counter()
    _event_loop()
    _array_passes()
    return time.perf_counter() - start


def settled_reference_s() -> float:
    """Median of nine kernel timings: the host's speed at one moment,
    for a single timing such as one set-up."""
    return statistics.median(reference_s() for _ in range(9))


def scaled(seconds: float, host_s: float) -> float:
    """``seconds`` measured while the kernel took ``host_s``, at the
    nominal host speed."""
    return seconds * (NOMINAL_S / host_s) ** SENSITIVITY
