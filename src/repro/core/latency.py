"""Latency decomposition (Table 5 instrumentation).

"The total latency of a command consists of three parts: the FIFO delay,
the execution latency and the data latency" (Section 6.1).  The DQM
hands each command's split to :meth:`LatencyBreakdown.record_parts`,
which aggregates them into the means Table 5 reports.
"""

from __future__ import annotations

from repro.sim import Clock, LatencyRecorder


class LatencyBreakdown:
    """Aggregates command latencies into Table 5's row format."""

    def __init__(self, clock: Clock, keep_samples: bool = False) -> None:
        self.clock = clock
        self.fifo = LatencyRecorder("fifo", keep_samples=keep_samples)
        self.execution = LatencyRecorder("execution", keep_samples=keep_samples)
        self.data = LatencyRecorder("data", keep_samples=keep_samples)
        self.total = LatencyRecorder("total", keep_samples=keep_samples)
        self.end_to_end = LatencyRecorder("end_to_end",
                                          keep_samples=keep_samples)

    def record_parts(self, fifo_cycles: float, execution_cycles: float,
                     data_cycles: float, end_to_end_cycles: float = 0.0) -> None:
        """Record one command's decomposition, in MMS clock cycles.

        ``total`` is the paper's additive decomposition (FIFO + exec +
        data; the data access overlaps execution in time but the paper
        reports the sum).  ``end_to_end_cycles`` is the true
        submit-to-completion latency (completion = the later of
        execution end and data-transfer end); it differs from the
        additive total when pointer and data work overlap -- which is
        exactly what the A5 ablation measures."""
        if not self.fifo.keep_samples:
            # this runs once per executed command; skip the per-recorder
            # sample-retention indirection when nothing retains samples
            self.fifo.stats.add(fifo_cycles)
            self.execution.stats.add(execution_cycles)
            self.data.stats.add(data_cycles)
            self.total.stats.add(fifo_cycles + execution_cycles + data_cycles)
            self.end_to_end.stats.add(end_to_end_cycles)
            return
        self.fifo.record(fifo_cycles)
        self.execution.record(execution_cycles)
        self.data.record(data_cycles)
        self.total.record(fifo_cycles + execution_cycles + data_cycles)
        self.end_to_end.record(end_to_end_cycles)

    @property
    def count(self) -> int:
        return self.total.count

    def row(self) -> dict:
        """Mean decomposition in cycles (the Table 5 columns)."""
        return {
            "fifo": self.fifo.mean,
            "execution": self.execution.mean,
            "data": self.data.mean,
            "total": self.total.mean,
        }
