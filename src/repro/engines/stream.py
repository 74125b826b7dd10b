"""The DES-free MMS/DQM command-stream machine.

:class:`StreamMms` executes an MMS command workload -- port feeders,
per-port command FIFOs, the serial DQM, and the DMC's bank-aware reorder
window -- without the discrete-event kernel.  Where the kernel round-trips
every command through generator processes, event objects and a calendar
queue (a dozen kernel events per command), the machine advances a handful
of scalar actor states over preallocated structures: FIFO occupancy is a
deque per port, the DQM is a round-robin cursor (with one precomputed
arbitration order per cursor position) plus one in-flight command, the
DMC is the bank release array plus the write-after-read turnaround pair,
and the memoized :func:`repro.core.dqm.command_timing_table` picosecond
costs are folded into cumulative-sum accounting per command.

The feeders and the DQM run as one inlined loop over a tiny wake heap
(the same structure-over-speed trade the kernel's run loop makes, one
level lower).  The DMC is not on that heap: as in the paper's MMS, the
DQM hands each segment transfer over and never waits for it, and no
feeder, policy, probe or DQM step reads DMC state during a run.  The
handoffs are therefore only collected while the heap drains, and at
every exit of :meth:`StreamMms.run` one DMC pass replays them in handoff
order -- each arrival preceded by the DMC steps due before it -- and
then runs every step up to the horizon.  The pass keeps the kernel's
step arithmetic (align to the access cycle, pick within the reorder
window, wait out bank and turnaround, issue) and the kernel's tie order:
a DMC loop-top step and a handoff at the same instant run in the order
the kernel pushed them, which :func:`stream_supports` pins to one rule
per configuration (see there).

Fidelity is not statistical: the machine reproduces the kernel's
``(time, sequence)`` ordering contract for every interaction that is
observable through the published results -- deposit visibility at DQM pop
instants, feeder backpressure resume order, DMC pick instants -- so the
per-command access traces, drop/accept counters and picosecond totals are
*identical* to the reference path, not merely close (asserted by
``tests/engines/``).  The functional work itself (pointer-memory
operations, buffer-policy decisions) runs through the very same
:class:`~repro.queueing.PacketQueueManager` code as the kernel path,
which is what makes trace identity a structural property rather than a
re-implementation hazard.

Workloads the machine cannot replay exactly are declared by
:func:`stream_supports`, and the harness entry points fall back to the
calendar-queue kernel for them.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import chain
from typing import Callable, Iterator, List, Optional, Tuple, Union

from repro.core.commands import (
    DATA_READ_COMMANDS,
    DATA_WRITE_COMMANDS,
    CommandType,
)
from repro.core.dqm import MicrocodeMismatchError, command_timing_table
from repro.core.mms import MmsConfig
from repro.core.scheduler import DEFAULT_PORTS
from repro.mem.timing import DdrTiming
from repro.policies import BufferPolicy, make_policy
from repro.policies.base import DroppedSegment
from repro.queueing import PacketQueueManager
from repro.sim.clock import NS, Clock
from repro.telemetry.probe import REC_DATA_SUBMIT, REC_TIME, CompletionRecord

#: Micro-op a feeder generator may yield: a positive int sleep (ps) or a
#: command tuple ``(CommandType, flow, dst_flow, eop, length)``.
FeederOp = Union[int, Tuple[CommandType, int, Optional[int], bool, int]]

#: A feeder: generator of micro-ops (see :data:`FeederOp`).
Feeder = Iterator[FeederOp]

# Wake kinds (heap entries are ``(time_ps, seq, kind, arg)``; ``seq``
# replicates the kernel's monotonic push-order tie-break within a
# timestamp).
_W_FEEDER = 0        # resume a feeder generator (arg = feeder index)
_W_SERVE_POP = 1     # the DQM was kicked out of its idle wait
_W_SERVE_HANDOFF = 2  # first-pointer-access handoff: issue the DMC transfer
_W_SERVE_TAIL = 3    # command execution complete; serve the next one

# The DMC's pending step (``StreamMms._dmc_step`` is ``(time_ps, kind)``
# or None while the DMC idles on an empty queue).
DMC_TOP = 0    # loop top: queue check + slot alignment + pick (+ issue)
DMC_ISSUE = 1  # the picked request reached its earliest legal issue slot

#: Local stand-in for an idle DMC inside the pass (later than any step).
_IDLE = 1 << 62

_DATA_COMMANDS = DATA_READ_COMMANDS | DATA_WRITE_COMMANDS

# Command records are plain lists (allocation-cheap; one per command):
# [op, flow, dst, eop, length, port, submit_ps, start_ps, end_ps,
#  data_slot, req].  DMC requests likewise: [submit_ps, is_write, bank,
#  complete_ps] with complete_ps = -1 until issued.
C_OP, C_FLOW, C_DST, C_EOP, C_LEN, C_PORT = 0, 1, 2, 3, 4, 5
C_SUBMIT, C_START, C_END, C_SLOT, C_REQ = 6, 7, 8, 9, 10
R_SUBMIT, R_WRITE, R_BANK, R_COMPLETE = 0, 1, 2, 3


def stream_supports(config: MmsConfig) -> Optional[str]:
    """Why the machine cannot replay ``config`` (None = it can).

    The machine claims the standard Figure 2 port arrangement only:
    custom per-port FIFO depths/priorities are backpressure *timing
    studies* whose interleavings belong to the kernel.  The rest pins
    down orderings the machine reproduces without a kernel:

    * the DMC completion grid stays off the MMS clock grid (true for
      every paper configuration), so completion records never tie with
      end-of-execution records;
    * every data transfer completes strictly after its command's
      schedule tail.  Otherwise the kernel's finalize process stamps
      the data-done and record instants at the tail, not at the
      transfer's completion;
    * the DMC pass's tie rule is decidable.  A DMC loop-top step at an
      access-cycle instant ``t`` was pushed one access cycle earlier
      (after an issue), or at an earlier handoff (realignment); a
      handoff at ``t`` was pushed ``handoff_ps`` earlier, at its DQM
      pop.  When every data command's ``handoff_ps`` is below the
      access cycle (the overlapped data path), DMC steps at
      ``t <= arrival`` run before the arrival; when every one is above
      it (the A5 serialized path), only steps at ``t < arrival`` do,
      and a realignment step cannot tie.  Data commands on both sides
      of the cycle, or exactly on it, would need per-push ordering and
      are left to the kernel.
    """
    if config.ports != DEFAULT_PORTS:
        return ("non-default port arrangement (backpressure timing study; "
                "kernel only)")
    period_ps = Clock(config.clock_mhz).period_ps
    timing = DdrTiming()
    cycle_ps = timing.access_cycle_ns * NS
    if cycle_ps % period_ps != 0:
        return "DDR access cycle not a multiple of the MMS clock period"
    pipeline_ps = config.dmc_pipeline_ns * NS
    read_ps = timing.read_delay_ns * NS + pipeline_ps
    write_ps = timing.write_delay_ns * NS + pipeline_ps
    for delay_ps in (read_ps, write_ps):
        if delay_ps % period_ps == 0:
            return ("DMC completion grid collides with the MMS clock grid "
                    "(record ordering would need the kernel)")
    handoffs = set()
    for op, (handoff_ps, tail_ps, _lat, _execf, _ptr) in \
            command_timing_table(period_ps, config.overlap_data).items():
        if op not in _DATA_COMMANDS:
            continue
        handoffs.add(handoff_ps)
        delay_ps = write_ps if op in DATA_WRITE_COMMANDS else read_ps
        if delay_ps <= tail_ps:
            return ("a data transfer can complete before its command's "
                    "schedule tail (record instants would need the "
                    "kernel's finalize)")
    if cycle_ps in handoffs or min(handoffs) < cycle_ps < max(handoffs):
        return ("DQM-to-DMC handoff delays do not all fall on one side of "
                "the DDR access cycle (DMC tie order would need the "
                "kernel)")
    return None


class StreamMms:
    """A batched MMS instance: same functional state, no DES kernel.

    Mirrors the :class:`~repro.core.mms.MMS` construction contract
    (policy built from ``config.policy`` sized to the segment buffer,
    ``now_fn`` wired to simulated time) so policy decisions and
    pointer-memory state are bit-compatible with the kernel path.
    """

    def __init__(self, config: MmsConfig = MmsConfig(),
                 policy: Optional[BufferPolicy] = None,
                 probe=None) -> None:
        reason = stream_supports(config)
        if reason is not None:
            raise ValueError(f"stream engine cannot replay this config: "
                             f"{reason}")
        self.config = config
        self.clock = Clock(config.clock_mhz)
        if policy is None and config.policy is not None:
            policy = make_policy(config.policy, capacity=config.num_segments,
                                 seed=config.policy_seed,
                                 keep_records=config.policy_records)
        self.policy = policy
        if self.policy is not None:
            self.policy.now_fn = lambda: self.now
        self.pqm = PacketQueueManager(num_flows=config.num_flows,
                                      num_segments=config.num_segments,
                                      num_descriptors=config.num_descriptors,
                                      policy=self.policy)
        #: Per-op fused cost row: (handoff_ps, tail_ps, execution_cycles_f,
        #: ptr_accesses, touches_data, is_data_write).
        self._opinfo = {
            op: (handoff_ps, tail_ps, execf, ptr,
                 op in _DATA_COMMANDS, op in DATA_WRITE_COMMANDS)
            for op, (handoff_ps, tail_ps, _lat, execf, ptr)
            in command_timing_table(self.clock.period_ps,
                                    config.overlap_data).items()
        }
        self._strict = config.strict_microcode
        # ---- actor clock / wake heap --------------------------------
        self.now = 0
        self._seq = 0
        self._wakes: List[Tuple[int, int, int, Optional[int]]] = []
        # ---- per-port command FIFOs ---------------------------------
        ports = config.ports
        nports = self._num_ports = len(ports)
        self._caps = [p.fifo_depth for p in ports]
        #: InternalScheduler.pop_next as a table: for each round-robin
        #: cursor, the ports in service order (strict priority between
        #: classes, round-robin from the cursor within a class).
        self._arbitration = [
            tuple(sorted(range(nports),
                         key=lambda i, rr=rr: (ports[i].priority,
                                               (i - rr) % nports)))
            for rr in range(nports)]
        self._fifos = [deque() for _ in ports]
        self._pending: List[Optional[Tuple[int, list]]] = [None] * nports
        # ---- DQM (serve) --------------------------------------------
        self._rr_next = 0
        self._serve_waiting = True
        self._cur: Optional[list] = None
        self._cur_info: Optional[tuple] = None
        self.commands_executed = 0
        self._done: List[list] = []
        # ---- DMC ----------------------------------------------------
        timing = DdrTiming()
        self._cycle_ps = timing.access_cycle_ns * NS
        self._busy_cycles = timing.bank_busy_cycles
        self._war_cycles = timing.write_after_read_penalty_cycles
        pipeline_ps = config.dmc_pipeline_ns * NS
        self._read_delay_ps = timing.read_delay_ns * NS + pipeline_ps
        self._write_delay_ps = timing.write_delay_ns * NS + pipeline_ps
        self._num_banks = config.num_banks
        self._window = config.reorder_window
        self._bank_free = [0] * config.num_banks
        self._last_islot = 0
        self._last_was_read = False
        self._dmc_queue: List[list] = []
        #: The DMC's pending step, ``(time_ps, DMC_TOP | DMC_ISSUE)``, or
        #: None while it idles on an empty queue.
        self._dmc_step: Optional[Tuple[int, int]] = None
        #: The request a pending DMC_ISSUE step issues.
        self._dmc_req: Optional[list] = None
        #: Handoffs of the current run() call, in handoff order, not yet
        #: seen by the DMC (empty between run() calls).
        self._arrivals: List[list] = []
        #: The tie rule (see stream_supports): 0 = DMC steps at an
        #: arrival's instant run before it, -1 = only earlier steps do.
        self._dmc_tie_bias = 0 if self._opinfo[CommandType.ENQUEUE][0] \
            < self._cycle_ps else -1
        # ---- feeders ------------------------------------------------
        self._feeders: List[Feeder] = []
        self._feeder_port: List[int] = []
        #: Optional per-operation log hook (fuzz/diagnostics): called
        #: with (cmd_record, result, trace) after every dispatch.  While
        #: set, full access traces are materialized.
        self.trace_hook: Optional[Callable] = None
        #: Optional telemetry probe (:mod:`repro.telemetry`).  Mirrors
        #: the kernel DQM's contract: when set, the run loop selects the
        #: probed dispatch (emitting ``on_command`` at the pop instant)
        #: and disables the inlined opcode branches; when None, the hot
        #: loop carries no telemetry call sites (structural absence).
        #: ``on_record`` is replayed from :meth:`completion_records` by
        #: the harnesses after the run.
        self.probe = probe

    # --------------------------------------------------------- wiring

    def add_feeder(self, port: int, gen: Feeder, name: str = "") -> None:
        """Attach a feeder generator to ``port`` and schedule its first
        step now (the kernel's ``spawn`` contract: spawn order is resume
        order at equal times).  ``name`` is the kernel process name of
        :meth:`repro.core.mms.MMS.add_feeder`; the machine has no
        processes to name."""
        if not 0 <= port < self._num_ports:
            raise ValueError(f"port {port} out of range "
                             f"[0, {self._num_ports})")
        idx = len(self._feeders)
        self._feeders.append(gen)
        self._feeder_port.append(port)
        self._seq += 1
        heappush(self._wakes, (self.now, self._seq, _W_FEEDER, idx))

    def prefill(self, flows, packets_per_flow: int,
                segments_per_packet: int = 1) -> int:
        """Functionally preload queues; see
        :meth:`repro.core.mms.MMS.prefill` (identical state, identical
        access counters)."""
        return self.pqm.bulk_prefill(flows, packets_per_flow,
                                     segments_per_packet)

    # ------------------------------------------------------------ run

    def run(self, until_ps: int) -> int:
        """Drain the wake heap up to ``until_ps`` (kernel ``run``
        contract: the first wake beyond the horizon ends the run), then
        bring the DMC up to the same instant.

        The body is one fused loop over the feeders and the DQM's
        pop/handoff/tail points, with machine state held in locals; the
        inline blocks are the hand-compiled equivalents of the kernel
        processes they replace (named in the comments).  The handoffs it
        collects reach the DMC in one pass at exit (:meth:`_dmc_pass`),
        also when the run stops on an exception.
        """
        mem = self.pqm.mem
        count_restore = mem.count_only_traces
        if self.trace_hook is None:
            # the published scenarios consult only trace lengths and
            # counters; skip materializing AccessRecord objects
            mem.count_only_traces = True
        try:
            return self._run(until_ps)
        finally:
            mem.count_only_traces = count_restore
            self._dmc_pass(self.now)

    def _run(self, until_ps: int) -> int:
        wakes = self._wakes
        seq = self._seq
        dispatch = self._dispatch if self.probe is None \
            else self._dispatch_probed
        opinfo = self._opinfo
        strict = self._strict
        heappush_ = heappush
        heappop_ = heappop
        pqm = self.pqm
        # the two dominant Table 5 / overload opcodes take an inlined
        # dispatch branch below (identical calls, minus the indirection
        # and the opinfo lookup: CommandType hashes in Python code)
        enq_op = CommandType.ENQUEUE
        deq_op = CommandType.DEQUEUE
        enq_info = opinfo[enq_op]
        deq_info = opinfo[deq_op]
        inline_ok = self.trace_hook is None and self.probe is None
        policy_none = self.policy is None
        # scheduler / serve state
        fifos = self._fifos
        arbitration = self._arbitration
        caps = self._caps
        nports = self._num_ports
        pending = self._pending
        rr_next = self._rr_next
        serve_waiting = self._serve_waiting
        cur = self._cur
        cur_info = self._cur_info
        done = self._done
        # feeder state
        feeders = self._feeders
        fports = self._feeder_port
        # DMC handoffs, replayed by _dmc_pass
        arrive = self._arrivals.append
        nbanks = self._num_banks

        try:
            while wakes:
                if wakes[0][0] > until_ps:
                    # leave the over-horizon wake scheduled (kernel run
                    # contract: a later run() call resumes from it)
                    self.now = until_ps
                    return until_ps
                t, _s, kind, arg = heappop_(wakes)
                self.now = now = t
                pop_now = False

                if kind == _W_SERVE_TAIL:
                    # -- DataQueueManager.execute, after the schedule
                    # tail: finalize the command, serve the next -------
                    cur[C_END] = now
                    self.commands_executed += 1
                    done.append(cur)
                    cur = None
                    pop_now = True

                elif kind == _W_SERVE_HANDOFF:
                    # -- the first-pointer-access handoff: the DMC gets
                    # the transfer one cycle later ("almost in
                    # parallel"); then the schedule tail runs ----------
                    slot = cur[C_SLOT]
                    if slot is not None and cur_info[4]:
                        req = [now, cur_info[5], slot % nbanks, -1]
                        cur[C_REQ] = req
                        arrive(req)
                    seq += 1
                    heappush_(wakes, (now + cur_info[1], seq,
                                     _W_SERVE_TAIL, None))

                elif kind == _W_FEEDER:
                    # -- a port process: pull micro-ops until it sleeps,
                    # blocks on a full FIFO, or finishes ---------------
                    gen = feeders[arg]
                    port = fports[arg]
                    fifo = fifos[port]
                    cap = caps[port]
                    while True:
                        try:
                            op = next(gen)
                        except StopIteration:
                            break
                        if type(op) is int:
                            if op < 0:
                                raise ValueError(
                                    f"feeder {arg} yielded a negative "
                                    f"sleep {op}")
                            seq += 1
                            heappush_(wakes, (now + op, seq, _W_FEEDER, arg))
                            break
                        cmd = [op[0], op[1], op[2], op[3], op[4], port,
                               now, -1, -1, None, None]
                        if len(fifo) >= cap:
                            # backpressure: the port holds the command;
                            # the DQM's next pop from this FIFO deposits
                            # it and resumes us
                            pending[port] = (arg, cmd)
                            break
                        fifo.append(cmd)
                        if serve_waiting:
                            serve_waiting = False
                            seq += 1
                            heappush_(wakes, (now, seq, _W_SERVE_POP, None))

                else:  # _W_SERVE_POP: kicked out of the idle wait
                    pop_now = True

                if pop_now:
                    # -- InternalScheduler.pop_next + the head of
                    # DataQueueManager.execute: the first non-empty FIFO
                    # in the cursor's arbitration order; dispatch the
                    # functional operation at the pop instant ----------
                    for best in arbitration[rr_next]:
                        fifo = fifos[best]
                        if fifo:
                            break
                    else:
                        serve_waiting = True
                        continue
                    rr_next = 0 if best + 1 >= nports else best + 1
                    cmd = fifo.popleft()
                    pend = pending[best]
                    if pend is not None:
                        # the freed slot admits the backpressured
                        # command at the pop instant; its feeder resumes
                        # at this timestamp after the queued wakes
                        # (kernel gate-trigger order)
                        pending[best] = None
                        fidx, pcmd = pend
                        pcmd[C_SUBMIT] = now
                        fifo.append(pcmd)
                        seq += 1
                        heappush_(wakes, (now, seq, _W_FEEDER, fidx))
                    cmd[C_START] = now
                    op = cmd[C_OP]
                    if inline_ok and op is deq_op:
                        info_seg, trace = pqm.dequeue_segment(cmd[C_FLOW])
                        result = info_seg
                        trace_len = len(trace)
                        data_slot = info_seg.slot
                        info = deq_info
                    elif inline_ok and op is enq_op and policy_none:
                        result, trace = pqm.enqueue_segment(
                            cmd[C_FLOW], eop=cmd[C_EOP], length=cmd[C_LEN])
                        trace_len = len(trace)
                        data_slot = result
                        info = enq_info
                    else:
                        result, trace_len, data_slot = dispatch(cmd)
                        info = opinfo[op]
                    if strict \
                            and not isinstance(result, DroppedSegment) \
                            and trace_len != info[3]:
                        raise MicrocodeMismatchError(
                            f"{cmd[C_OP].value}: functional trace has "
                            f"{trace_len} pointer accesses, schedule has "
                            f"{info[3]}")
                    cmd[C_SLOT] = data_slot
                    cur = cmd
                    cur_info = info
                    seq += 1
                    heappush_(wakes, (now + info[0], seq,
                                     _W_SERVE_HANDOFF, None))
            if self.now < until_ps:
                self.now = until_ps
            return self.now
        finally:
            self._seq = seq
            self._rr_next = rr_next
            self._serve_waiting = serve_waiting
            self._cur = cur
            self._cur_info = cur_info

    def _dmc_pass(self, until_ps: int) -> None:
        """Feed this run() call's handoffs to the DMC, then run every
        DMC step at or before ``until_ps``.

        Mirrors ``DdrController._serve`` step for step: a DMC_TOP step
        idles on an empty queue, realigns to the next access-cycle
        instant, or picks within the reorder window (the first request
        whose bank is free, else the head) and waits out the bank reuse
        and write-after-read turnaround (a DMC_ISSUE step) before
        issuing; every issue schedules the next DMC_TOP one access cycle
        later.  Before each arrival, the steps that the kernel runs
        ahead of it run first (the tie rule of :func:`stream_supports`);
        an idle DMC is kicked with a DMC_TOP step at the arrival
        instant.
        """
        arrivals = self._arrivals
        queue = self._dmc_queue
        step = self._dmc_step
        at = _IDLE if step is None else step[0]
        issuing = self._dmc_req
        bank_free = self._bank_free
        cycle = self._cycle_ps
        busy = self._busy_cycles
        war = self._war_cycles
        rdelay = self._read_delay_ps
        wdelay = self._write_delay_ps
        reorder = self._window
        last_islot = self._last_islot
        last_was_read = self._last_was_read
        bias = self._dmc_tie_bias
        # a None sentinel ends the pass with the run up to until_ps
        for new in chain(arrivals, (None,)):
            limit = until_ps if new is None else new[R_SUBMIT] + bias
            while at <= limit:
                if issuing is None:  # DMC_TOP
                    if not queue:
                        at = _IDLE
                        break
                    rem = at % cycle
                    if rem:
                        at += cycle - rem
                        continue
                    slot_no = at // cycle
                    window = reorder if reorder < len(queue) \
                        else len(queue)
                    idx = 0
                    for i in range(window):
                        if bank_free[queue[i][R_BANK]] <= slot_no:
                            idx = i
                            break
                    req = queue.pop(idx)
                    # DdrModel.earliest_issue_slot: bank reuse +
                    # write-after-read turnaround overlap (max)
                    islot = bank_free[req[R_BANK]]
                    if islot < slot_no:
                        islot = slot_no
                    if req[R_WRITE] and last_was_read:
                        turnaround_free = last_islot + 1 + war
                        if turnaround_free > islot:
                            islot = turnaround_free
                    if islot > slot_no:
                        issuing = req
                        at = islot * cycle
                        continue
                else:  # DMC_ISSUE
                    req, issuing = issuing, None
                    islot = at // cycle
                bank_free[req[R_BANK]] = islot + busy
                last_islot = islot
                last_was_read = not req[R_WRITE]
                req[R_COMPLETE] = at + (wdelay if req[R_WRITE] else rdelay)
                at += cycle
            if new is not None:
                queue.append(new)
                if at == _IDLE:
                    at = new[R_SUBMIT]
        arrivals.clear()
        self._dmc_step = None if at == _IDLE else \
            (at, DMC_TOP if issuing is None else DMC_ISSUE)
        self._dmc_req = issuing
        self._last_islot = last_islot
        self._last_was_read = last_was_read

    # ------------------------------------------------------- dispatch

    def _dispatch(self, cmd: list):
        """Functional execution (mirrors ``DataQueueManager._dispatch``);
        returns ``(result, trace_len, data_slot)``."""
        t = cmd[C_OP]
        flow = cmd[C_FLOW]
        pqm = self.pqm
        if t is CommandType.ENQUEUE:
            slot, trace = pqm.admit_enqueue(flow, eop=cmd[C_EOP],
                                            length=cmd[C_LEN])
            result = slot
            data = None if isinstance(slot, DroppedSegment) else slot
        elif t is CommandType.DEQUEUE:
            info, trace = pqm.dequeue_segment(flow)
            result, data = info, info.slot
        elif t is CommandType.READ:
            info, trace = pqm.read_segment(flow)
            result, data = info, info.slot
        elif t is CommandType.OVERWRITE:
            info, trace = pqm.overwrite_segment(flow)
            result, data = info, info.slot
        elif t is CommandType.DELETE:
            info, trace = pqm.delete_segment(flow)
            result, data = info, None
        elif t is CommandType.DELETE_PACKET:
            trace = pqm.delete_packet(flow)
            result, data = None, None
        elif t is CommandType.MOVE:
            trace = pqm.move_packet(flow, cmd[C_DST])
            result, data = None, None
        elif t is CommandType.OVERWRITE_LENGTH:
            info, trace = pqm.overwrite_segment_length(flow, cmd[C_LEN])
            result, data = info, None
        elif t is CommandType.OVERWRITE_LENGTH_MOVE:
            trace = pqm.overwrite_length_and_move(flow, cmd[C_DST],
                                                  cmd[C_LEN])
            result, data = None, None
        elif t is CommandType.OVERWRITE_MOVE:
            info, trace = pqm.overwrite_and_move(flow, cmd[C_DST])
            result, data = info, info.slot
        elif t is CommandType.APPEND_HEAD:
            slot, trace = pqm.append_head(flow)
            result = slot
            data = None if isinstance(slot, DroppedSegment) else slot
        elif t is CommandType.APPEND_TAIL:
            slot, trace = pqm.append_tail(flow, length=cmd[C_LEN])
            result = slot
            data = None if isinstance(slot, DroppedSegment) else slot
        else:
            raise ValueError(f"unknown command type {t}")
        hook = self.trace_hook
        if hook is not None:
            hook(cmd, result, trace)
        return result, len(trace), data

    def _dispatch_probed(self, cmd: list):
        """Telemetry variant of :meth:`_dispatch`: the functional
        operation, then the probe's ``on_command`` with the
        post-dispatch occupancy -- the identical call the kernel DQM's
        probed dispatch emits at the identical pop instant."""
        out = self._dispatch(cmd)
        pqm = self.pqm
        self.probe.on_command(self.now, cmd[C_OP], cmd[C_FLOW], out[0],
                              pqm.queued_segments(cmd[C_FLOW]),
                              pqm.num_segments - pqm.free_segments)
        return out

    # -------------------------------------------------------- records

    def completion_records(self, horizon_ps: int
                           ) -> List[CompletionRecord]:
        """Per-command completion records in kernel delivery order.

        Each entry is a :data:`repro.telemetry.probe.CompletionRecord`
        -- exactly what the kernel DQM's ``_finalize`` appends to
        ``dqm.records``, in the order those processes resume; the
        harnesses fold it into the run's result and replay it to the
        probe (:mod:`repro.core.workloads`).  ``seq`` is the dispatch
        index: the DQM is serial, so completion (append) order in
        ``_done`` *is* dispatch order, shared with the kernel's
        ``commands_executed`` count.  Records are delivered when the
        data transfer completes (data commands) or at end of execution
        (pointer-only and policy-dropped commands, whose data bounds are
        -1).  The kernel's within-timestamp FIFO contract puts a
        completion resume (pushed at issue time) ahead of a finalize
        spawned in that timestamp, so the sort key ranks a record with
        no data transfer after a data record of the same instant, and
        the stable sort keeps dispatch order otherwise;
        ``stream_supports`` rules out configurations where the two
        grids could otherwise collide.
        """
        period = self.clock.period_ps
        opinfo = self._opinfo
        enq_op = CommandType.ENQUEUE
        deq_op = CommandType.DEQUEUE
        enq_execf = opinfo[enq_op][2]
        deq_execf = opinfo[deq_op][2]
        records: List[CompletionRecord] = []
        for seq, cmd in enumerate(self._done):
            req = cmd[C_REQ]
            end_ps = cmd[C_END]
            if req is None:
                record_time = end_ps
                data_submit = data_done = -1
                data_cycles = 0.0
                completion = end_ps
            else:
                complete = req[R_COMPLETE]
                if complete < 0:
                    continue  # never issued inside the horizon
                record_time = data_done = complete
                data_submit = req[R_SUBMIT]
                data_cycles = (complete - data_submit) / period
                completion = end_ps if end_ps > complete else complete
            if record_time > horizon_ps:
                continue
            submit = cmd[C_SUBMIT]
            start = cmd[C_START]
            if submit >= 0:
                fifo_cycles = (start - submit) / period
                base = submit
            else:
                fifo_cycles = 0.0
                base = start
            op = cmd[C_OP]
            execf = enq_execf if op is enq_op else deq_execf \
                if op is deq_op else opinfo[op][2]
            records.append((
                record_time, seq, op, cmd[C_FLOW],
                submit, start, end_ps, data_submit, data_done,
                fifo_cycles, execf, data_cycles,
                (completion - base) / period))
        records.sort(
            key=lambda r: 2 * r[REC_TIME] + (r[REC_DATA_SUBMIT] < 0))
        return records
