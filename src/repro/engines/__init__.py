"""``repro.engines``: DES-free batched execution of MMS command streams.

The simulator stack has had two batched fast paths for a while -- the
calendar-queue DES kernel (:mod:`repro.sim.kernel`) and the DDR bank
model (:mod:`repro.mem.fastpath`).  This package adds the third and
largest: :class:`StreamMms`, a command-stream machine that replays the
MMS/DQM workloads (Table 5, the saturation headline, the overload
family) without a discrete-event kernel while staying trace-identical
to it -- same per-command access records, same drop/accept counters,
same picosecond totals.

The package holds the machine only.  The workloads it runs are defined
once, in :mod:`repro.core.workloads`, for both machines: ``StreamMms``
shares the kernel-backed :class:`~repro.core.mms.MMS`'s
``add_feeder``/``run``/``completion_records`` surface, so one plan runs
on either.  Selection is the existing uniform knob: ``engine="fast"``
on :func:`repro.core.mms.run_load`, :func:`repro.core.mms.run_saturation`
and :func:`repro.policies.harness.run_overload` picks this machine
(:func:`repro.core.workloads.machine_for`) whenever
:func:`stream_supports` claims the configuration, and the calendar-queue
kernel otherwise (e.g. the per-port FIFO backpressure ablation).
``engine="reference"`` always runs the heapq ordering spec.  Nothing
upstream -- ``Runner``, the CLI, sweeps, benchmarks -- changes.
"""

from repro.engines.stream import StreamMms, stream_supports

__all__ = [
    "StreamMms",
    "stream_supports",
]
