"""The probe protocol and the declarative telemetry knob.

A :class:`Probe` observes the two event streams every MMS execution
path emits at its command boundaries:

* ``on_command`` -- one live call per DQM dispatch, at the pop instant,
  with the functional result and the post-dispatch occupancy.  The
  kernel path emits it from the probed ``DataQueueManager`` dispatch;
  the stream engine from the probed dispatch of its inlined loop.  It
  stays live on both engines because :class:`PublishingProbe
  <repro.telemetry.publish.PublishingProbe>` streams progress frames
  from it while a run is still executing.
* ``on_record`` -- one call per command completion (the instant the
  data transfer completes, or end of execution for pointer-only
  commands) carrying the command's *completion record*: a plain tuple
  (:data:`CompletionRecord`), indexed by the ``REC_*`` constants
  below.  It holds the dispatch index, the picosecond stage bounds and
  the Section 6.1 cycle split of the same command, so every observer
  (telemetry histograms, span tracing) and the Table 5 result fold the
  one stream.  Both engines collect the records during the run -- the
  kernel DQM in ``dqm.records``, the stream engine in
  ``completion_records`` -- and the harnesses replay them in delivery
  order after the run (:func:`repro.core.workloads.replay`).

The two channels carry no ordering contract *between* each other
(every ``on_command`` call precedes the record replay), so probes must
keep their per-channel state independent.
Within a channel, call order and every argument are byte-identical
across engines -- that is the identity contract ``tests/engines``
asserts, and what makes telemetry an engine-agnostic layer.

Probes are *structurally absent* when disabled: the execution paths
swap in their probed dispatch only when a probe is installed at
construction time, so the probes-off hot path contains no telemetry
call sites (and no per-command branches) at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Final, Sequence, Tuple

from repro.core.commands import CommandType

#: Field indices of one completion record, in tuple order.  ``seq`` is
#: the dispatch index -- the DQM is serial, so dispatch order is a total
#: order both engines share even though commands complete out of it.
#: The ``*_ps`` fields are the command's picosecond stage bounds:
#: ``submit_ps`` is -1 for commands never staged through a port FIFO;
#: ``data_submit_ps``/``data_done_ps`` are -1 for commands that never
#: reached the DMC (pointer-only and policy-dropped ones).  The cycle
#: fields are the Section 6.1 split plus the true end-to-end latency.
REC_TIME: Final = 0
REC_SEQ: Final = 1
REC_OP: Final = 2
REC_FLOW: Final = 3
REC_SUBMIT: Final = 4
REC_START: Final = 5
REC_END: Final = 6
REC_DATA_SUBMIT: Final = 7
REC_DATA_DONE: Final = 8
REC_FIFO: Final = 9
REC_EXECUTION: Final = 10
REC_DATA: Final = 11
REC_E2E: Final = 12

#: One completion record: ``(time_ps, seq, op, flow, submit_ps,
#: start_ps, end_ps, data_submit_ps, data_done_ps, fifo_cycles,
#: execution_cycles, data_cycles, end_to_end_cycles)``.
CompletionRecord = Tuple[int, int, CommandType, int, int, int, int, int,
                         int, float, float, float, float]


@dataclass(frozen=True)
class TelemetrySpec:
    """Declarative telemetry configuration (scenario-spec payload).

    Carried by :class:`~repro.scenarios.ScenarioSpec.telemetry`; its
    presence enables telemetry for a run, its fields tune the standard
    :class:`~repro.telemetry.MmsTelemetry` probe.
    """

    #: Occupancy time-series stride: one sample every N dispatched
    #: commands (peaks are still tracked at every command).
    sample_every: int = 32
    #: Percentile summaries reported per histogram.
    percentiles: Tuple[float, ...] = (50.0, 90.0, 99.0, 99.9)

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {self.sample_every}")
        if not self.percentiles:
            raise ValueError("percentiles must be non-empty")
        for p in self.percentiles:
            if not 0.0 < p <= 100.0:
                raise ValueError(
                    f"percentiles must be in (0, 100], got {p}")


class Probe:
    """Observation protocol (no-op base class).

    Subclass and override the hooks you need;
    :class:`~repro.telemetry.MmsTelemetry` is the standard
    implementation.  Probes are passive: they must not mutate any
    simulation state (the engines share functional state with the
    probe's arguments).
    """

    def on_command(self, time_ps: int, op: CommandType, flow: int,
                   result: object, queue_depth: int,
                   total_segments: int) -> None:
        """One DQM dispatch: ``op`` on ``flow`` at ``time_ps`` returned
        ``result``; ``queue_depth`` is the flow's post-dispatch segment
        occupancy and ``total_segments`` the aggregate buffer
        occupancy."""

    def on_record(self, record: CompletionRecord) -> None:
        """One command completion, delivered at ``record[REC_TIME]`` in
        record-delivery order (see :data:`CompletionRecord`)."""


class ProbeChain(Probe):
    """Fan a single probe slot out to several independent probes.

    The execution paths take exactly one probe at construction; chaining
    keeps that contract while letting a run carry both the telemetry
    collector and the span tracer.  Each hook forwards to every child in
    chain order.
    """

    def __init__(self, probes: Sequence[Probe]) -> None:
        if not probes:
            raise ValueError("ProbeChain requires at least one probe")
        self.probes: Tuple[Probe, ...] = tuple(probes)

    def on_command(self, time_ps: int, op: CommandType, flow: int,
                   result: object, queue_depth: int,
                   total_segments: int) -> None:
        for probe in self.probes:
            probe.on_command(time_ps, op, flow, result, queue_depth,
                             total_segments)

    def on_record(self, record: CompletionRecord) -> None:
        for probe in self.probes:
            probe.on_record(record)
