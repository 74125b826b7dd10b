"""Data Queue Manager: the pointer-manipulation engine of the MMS.

"The DQM organizes the incoming packets into queues.  It handles and
updates the data structures kept in the Pointer memory."  One command
executes at a time; its microcode schedule (:mod:`repro.core.microcode`)
defines the execution latency, which "defines the time interval between
two successive commands; in other words it states the MMS processing
rate".

Data accesses overlap execution: the first pointer access of every
schedule yields the data-memory address, and the DMC is handed the
transfer one cycle later -- "the actual data accesses at the Data Memory
can be done, almost, in parallel with the pointer handling".

Every command leaves one completion record in :attr:`DataQueueManager.records`
-- its picosecond stage bounds and the Section 6.1 split into FIFO,
execution and data latency -- which the harnesses fold into Table 5's
means and replay to any observer after the run.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.commands import Command, CommandType
from repro.core.dmc import DataMemoryController
from repro.core.microcode import SCHEDULE_COSTS
from repro.policies.base import DroppedSegment
from repro.queueing import PacketQueueManager
from repro.sim import Clock, Simulator

if TYPE_CHECKING:
    from repro.telemetry.probe import CompletionRecord

#: Per-command timing tuple used on the execute hot path:
#: (handoff_ps, tail_ps, latency_cycles, execution_cycles_f, ptr_accesses)
_CmdTiming = Tuple[int, int, int, float, int]


@lru_cache(maxsize=None)
def _timing_table(period_ps: int, overlap_data: bool) -> Dict[CommandType, _CmdTiming]:
    """Memoized per-clock expansion of every command schedule.

    The schedule is a pure function of ``(CommandType, overlap flag)``
    and the clock period, so the picosecond conversions are done once
    per configuration instead of once per executed command.
    """
    table: Dict[CommandType, _CmdTiming] = {}
    for cmd, costs in SCHEDULE_COSTS.items():
        handoff_cycles = (costs.overlap_handoff_cycles if overlap_data
                          else costs.latency_cycles)
        handoff_ps = handoff_cycles * period_ps
        tail_ps = (costs.latency_cycles - handoff_cycles) * period_ps
        table[cmd] = (handoff_ps, tail_ps, costs.latency_cycles,
                      costs.execution_cycles_f, costs.ptr_accesses)
    return table


#: Public name of the memoized per-clock schedule expansion.  The DQM
#: uses it per command; the batched command-stream engine
#: (:mod:`repro.engines`) folds the same rows into its cumulative-sum
#: accounting, so both paths price commands from one table.
command_timing_table = _timing_table


class MicrocodeMismatchError(AssertionError):
    """Strict mode: a functional trace disagreed with the schedule."""


class DataQueueManager:
    """Executes MMS commands over the two-level queue structure."""

    def __init__(self, sim: Simulator, clock: Clock,
                 pqm: PacketQueueManager, dmc: Optional[DataMemoryController],
                 strict_microcode: bool = False,
                 overlap_data: bool = True,
                 probe: Optional[Any] = None) -> None:
        self.sim = sim
        self.clock = clock
        self.pqm = pqm
        self.dmc = dmc
        self.strict_microcode = strict_microcode
        #: Ablation A5: when False, the data access is issued only after
        #: the pointer work completes (what the MMS design avoids --
        #: Section 6.1 credits the overlap for the 10.5-cycle overhead).
        self.overlap_data = overlap_data
        self.commands_executed = 0
        #: One completion record per finished command, in delivery
        #: order (see :data:`~repro.telemetry.probe.CompletionRecord`).
        self.records: List[CompletionRecord] = []
        # Memoized per-command timing for this clock domain; both overlap
        # variants are kept so flipping the ablation flag stays valid.
        self._timing_overlap = _timing_table(clock.period_ps, True)
        self._timing_serial = _timing_table(clock.period_ps, False)
        #: Optional telemetry probe (:mod:`repro.telemetry`).  The
        #: probed dispatch is swapped in as an instance attribute *only*
        #: when a probe exists, so the probes-off hot path carries no
        #: telemetry call sites at all (structural absence, not an inert
        #: per-command branch).  Completion records reach the probe by
        #: replay after the run, never from here.
        self.probe = probe
        if probe is not None:
            self._dispatch = self._dispatch_probed  # type: ignore[assignment]

    # ----------------------------------------------------------- execute

    def execute(self, cmd: Command):
        """Generator: run one command to completion (DQM-side).

        The DQM is busy for the schedule length; the data transfer (if
        any) is issued to the DMC after the first pointer access and
        completes asynchronously.  The completion is recorded when
        both execution and data transfer are done.
        """
        timing = (self._timing_overlap if self.overlap_data
                  else self._timing_serial)
        handoff_ps, tail_ps, latency_cycles, exec_cycles_f, ptr_accesses = \
            timing[cmd.type]
        cmd.start_exec_ps = self.sim.now
        result, trace_len, data_slot = self._dispatch(cmd)
        # A policy-dropped enqueue generates no pointer traffic at all
        # (the schedule assumes an accepted segment), so the strict
        # cross-check only applies to commands that actually executed.
        # Accepted enqueues -- including accept-after-push-out, whose
        # returned trace is the enqueue's own -- are still checked.
        dropped = isinstance(result, DroppedSegment)
        if self.strict_microcode and not dropped \
                and trace_len != ptr_accesses:
            raise MicrocodeMismatchError(
                f"{cmd.type.value}: functional trace has {trace_len} pointer "
                f"accesses, schedule has {ptr_accesses}"
            )
        cmd.result = result  # type: ignore[attr-defined]

        yield handoff_ps

        data_event = None
        if cmd.touches_data_memory and self.dmc is not None \
                and data_slot is not None:
            data_event = self.dmc.submit(cmd.is_data_write, data_slot,
                                         tag=cmd.cid)
        yield tail_ps
        cmd.end_exec_ps = self.sim.now
        seq = self.commands_executed
        self.commands_executed = seq + 1
        if cmd.completion is not None:
            cmd.completion.trigger(result)
        self.sim.spawn(self._finalize(cmd, seq, exec_cycles_f, data_event),
                       name=f"fin{cmd.cid}")

    def _finalize(self, cmd: Command, seq: int, exec_cycles_f: float,
                  data_event):
        """Append the command's completion record when its data transfer
        completes (at end of execution for commands without one).
        ``seq`` is the dispatch index: the DQM is serial, so it is the
        ``commands_executed`` count before this command."""
        period = self.clock.period_ps
        end = cmd.end_exec_ps
        if data_event is not None:
            req = yield data_event
            data_submit = req.submit_ps
            data_done = self.sim.now
            data_cycles = req.total_ps / period
            completion = max(end, data_done)
        else:
            yield 0
            data_submit = data_done = -1
            data_cycles = 0.0
            completion = end
        submit = cmd.submit_ps
        start = cmd.start_exec_ps
        if submit >= 0:
            fifo_cycles = (start - submit) / period
            base = submit
        else:
            fifo_cycles = 0.0
            base = start
        self.records.append((
            self.sim.now, seq, cmd.type, cmd.flow, submit, start, end,
            data_submit, data_done, fifo_cycles, exec_cycles_f,
            data_cycles, (completion - base) / period))

    # ---------------------------------------------------------- dispatch

    def _dispatch(self, cmd: Command):
        """Run the functional operation; returns (result, ptr-accesses,
        data slot for the DMC)."""
        t = cmd.type
        pqm = self.pqm
        if t is CommandType.ENQUEUE:
            slot, trace = pqm.admit_enqueue(cmd.flow, eop=cmd.eop,
                                            length=cmd.length, pid=cmd.pid,
                                            index=cmd.seg_index)
            if isinstance(slot, DroppedSegment):
                # policy drop: the command still executes (and is timed),
                # but no buffer was written -- no DMC transfer
                return slot, len(trace), None
            return slot, len(trace), slot
        if t is CommandType.DEQUEUE:
            info, trace = pqm.dequeue_segment(cmd.flow)
            return info, len(trace), info.slot
        if t is CommandType.READ:
            info, trace = pqm.read_segment(cmd.flow)
            return info, len(trace), info.slot
        if t is CommandType.OVERWRITE:
            info, trace = pqm.overwrite_segment(cmd.flow)
            return info, len(trace), info.slot
        if t is CommandType.DELETE:
            info, trace = pqm.delete_segment(cmd.flow)
            return info, len(trace), None
        if t is CommandType.DELETE_PACKET:
            trace = pqm.delete_packet(cmd.flow)
            return None, len(trace), None
        if t is CommandType.MOVE:
            trace = pqm.move_packet(cmd.flow, cmd.dst_flow)
            return None, len(trace), None
        if t is CommandType.OVERWRITE_LENGTH:
            info, trace = pqm.overwrite_segment_length(cmd.flow, cmd.length)
            return info, len(trace), None
        if t is CommandType.OVERWRITE_LENGTH_MOVE:
            trace = pqm.overwrite_length_and_move(cmd.flow, cmd.dst_flow,
                                                  cmd.length)
            return None, len(trace), None
        if t is CommandType.OVERWRITE_MOVE:
            info, trace = pqm.overwrite_and_move(cmd.flow, cmd.dst_flow)
            return info, len(trace), info.slot
        if t is CommandType.APPEND_HEAD:
            slot, trace = pqm.append_head(cmd.flow, pid=cmd.pid)
            if isinstance(slot, DroppedSegment):
                return slot, len(trace), None
            return slot, len(trace), slot
        if t is CommandType.APPEND_TAIL:
            slot, trace = pqm.append_tail(cmd.flow, length=cmd.length,
                                          pid=cmd.pid)
            if isinstance(slot, DroppedSegment):
                return slot, len(trace), None
            return slot, len(trace), slot
        raise ValueError(f"unknown command type {t}")

    def _dispatch_probed(self, cmd: Command):
        """Probed variant of :meth:`_dispatch`: runs the functional
        operation, then calls the probe's ``on_command`` with the
        post-dispatch occupancy (the stream engine emits the identical
        call at the identical pop instant)."""
        out = DataQueueManager._dispatch(self, cmd)
        pqm = self.pqm
        self.probe.on_command(self.sim.now, cmd.type, cmd.flow, out[0],
                              pqm.queued_segments(cmd.flow),
                              pqm.num_segments - pqm.free_segments)
        return out
