"""Discrete-event simulation kernel used by every model in :mod:`repro`.

The kernel is deliberately small and dependency-free.  It provides:

* :class:`~repro.sim.kernel.Simulator` -- an event heap over integer
  picosecond timestamps with generator-based processes,
* :class:`~repro.sim.clock.Clock` -- cycle <-> picosecond conversion for a
  clock domain (the paper mixes 100 MHz, 125 MHz and 200 MHz domains),
* :class:`~repro.sim.fifo.Fifo` -- a bounded FIFO with blocking put/get and
  backpressure, the basic coupling element between hardware blocks,
* :class:`~repro.sim.resource.Resource` -- counted resource (bus, port),
* :mod:`~repro.sim.stats` -- counters, time-weighted averages, histograms
  and latency recorders used by the experiment harness.

Time is kept in integer picoseconds so that all the clock domains in the
paper (8 ns, 10 ns, 5 ns periods, 40 ns DDR access cycles) are exactly
representable and simulations are bit-for-bit deterministic.
"""

from repro.sim.clock import MHZ, NS, PS, US, MS, SEC, Clock
from repro.sim.kernel import Event, Process, SimulationError, Simulator
from repro.sim.fifo import Fifo, FifoFullError, FifoEmptyError
from repro.sim.resource import Resource
from repro.sim.stats import LatencyRecorder, RunningStats, TimeWeighted

__all__ = [
    "PS",
    "NS",
    "US",
    "MS",
    "SEC",
    "MHZ",
    "Clock",
    "Simulator",
    "Process",
    "Event",
    "SimulationError",
    "Fifo",
    "FifoFullError",
    "FifoEmptyError",
    "Resource",
    "TimeWeighted",
    "LatencyRecorder",
    "RunningStats",
]
