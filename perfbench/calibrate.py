"""Host-speed calibration: a fixed pure-Python loop timed before each sample.

A shared host does not run at one speed: the same run of the same input
takes from ~45 ms to ~78 ms on a 2-vCPU VM over a few minutes, in
steps, as neighbours come and go.  A run-to-run spread that size hides
any change smaller than itself, so every timed sample is scaled by how
fast the host ran this loop around it::

    normalized = measured * (NOMINAL_S / calibration_s) ** SPEED_EXPONENT

The loop imports nothing from ``repro`` and runs in ``run.py``'s own
process while the measuring process waits, so a change to the package
cannot move it, not even one that slows the whole interpreter.  It
does the same kind of work as the simulator: linked-list queues of
small ``__slots__`` objects, a free list, a seeded RNG and a dict of
counters.  ``NOMINAL_S`` is its usual time on a 2-vCPU Intel
Xeon VM at 2.1 GHz, so normalized values read as seconds on that host
at its usual speed.

The simulator gains less than this loop when the host speeds up: across
the host's fast and slow periods its run time moved as the ~0.7th power
of the loop's (0.70 on table5-stream, 0.71 on latency-family, 0.9 on
table1-ddr), hence ``SPEED_EXPONENT``.
"""

from __future__ import annotations

import random
import time
from collections import deque
from statistics import median
from typing import List, Sequence

#: Iterations of one calibration (about 5 ms).
ITERATIONS = 5_000

#: Usual seconds of one calibration on the reference host.
NOMINAL_S = 0.0050

#: How a run's speed follows the loop's speed (see the module docstring).
SPEED_EXPONENT = 0.7

#: Calibrations around a sample whose median scales it.
WINDOW = 5


class _Node:
    __slots__ = ("nxt", "val")

    def __init__(self, val: int) -> None:
        self.nxt = None
        self.val = val


class _Queue:
    __slots__ = ("head", "tail", "n")

    def __init__(self) -> None:
        self.head = None
        self.tail = None
        self.n = 0

    def push(self, node: _Node) -> None:
        node.nxt = None
        if self.tail is None:
            self.head = node
        else:
            self.tail.nxt = node
        self.tail = node
        self.n += 1

    def pop(self) -> _Node:
        node = self.head
        self.head = node.nxt
        if self.head is None:
            self.tail = None
        self.n -= 1
        return node


def _loop(iterations: int) -> int:
    rng = random.Random(7)
    queues = [_Queue() for _ in range(256)]
    free = deque(_Node(i) for i in range(2048))
    counts: dict = {}
    for _ in range(iterations):
        queue = queues[rng.randrange(256)]
        if free and (queue.n == 0 or rng.random() < 0.5):
            queue.push(free.popleft())
        elif queue.n:
            node = queue.pop()
            free.append(node)
            key = node.val & 255
            counts[key] = counts.get(key, 0) + 1
    return len(counts)


def calibrate() -> float:
    """Seconds this host takes for one calibration loop right now."""
    t0 = time.perf_counter()
    _loop(ITERATIONS)
    return time.perf_counter() - t0


def factors(calibrations: Sequence[float]) -> List[float]:
    """Per-sample scale ``(NOMINAL_S / calibration) ** SPEED_EXPONENT``,
    each from the median of the ``WINDOW`` calibrations centred on the
    sample (one calibration is taken just before each sample)."""
    half = WINDOW // 2
    out = []
    for i in range(len(calibrations)):
        window = calibrations[max(0, i - half):i + half + 1]
        out.append((NOMINAL_S / median(window)) ** SPEED_EXPONENT)
    return out
