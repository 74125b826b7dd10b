"""Shared feeder definitions for the MMS load experiments.

The Table 5 load harness, the saturation headline and the overload
family each drive the MMS through port feeders.  Those feeders used to
be written against the DES kernel directly (``yield delay`` / ``yield
from mms.submit``); with the batched command-stream engine
(:mod:`repro.engines`) executing the same workloads kernel-free, the
feeder *behavior* must have exactly one definition or the two paths
would drift apart.

A feeder here is a plain generator of **micro-ops**:

* a positive ``int`` -- sleep that many picoseconds,
* a tuple ``(CommandType, flow, dst_flow, eop, length)`` -- submit that
  command to the feeder's port (blocking on port backpressure).

:func:`drive_port` adapts a micro-op generator onto the DES kernel (it
yields exactly what the historical inline feeders yielded, so the
reference event sequence is unchanged); the stream engine consumes the
same generators natively.  Time-dependent pacing reads the current
simulated time through ``now_fn``, which each execution path binds to
its own clock.

The pacing, prefill and horizon formulas, and the folds that turn a
run's completion records (:data:`~repro.telemetry.probe.CompletionRecord`)
into its result, live here too: every driver of a workload -- the
kernel harnesses, the stream harnesses (:mod:`repro.engines.harnesses`)
and the checkpoint-aware runs (:mod:`repro.checkpoint`) -- calls the
same functions, so their results are equal by construction.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro.core.commands import Command, CommandType
from repro.core.mms import BITS_PER_OP, MmsLoadResult
from repro.sim.clock import Clock, SEC
from repro.telemetry.probe import (
    REC_DATA,
    REC_E2E,
    REC_EXECUTION,
    REC_FIFO,
    REC_TIME,
    CompletionRecord,
)

#: Micro-op vocabulary (see module docstring).
FeederOp = Union[int, Tuple[CommandType, int, Optional[int], bool, int]]

#: The dequeue stream of the Table 5 harness lags the enqueue stream by
#: this many volleys, so a small per-flow backlog suffices.
LOAD_LAG_VOLLEYS = 16

#: Saturation harness horizon (far beyond any drain time).
SATURATION_HORIZON_PS = 60 * SEC

#: ``(enqueue, phase)`` of the four ports -- In, Out, CPU0, CPU1 -- the
#: Table 5 and saturation harnesses feed.
FOUR_PORTS = ((True, 0), (False, 0), (True, 1), (False, 1))


def to_command(op: Tuple[CommandType, int, Optional[int], bool, int]
               ) -> Command:
    """Materialize a submit micro-op as a kernel :class:`Command`."""
    kind, flow, dst, eop, length = op
    return Command(type=kind, flow=flow, dst_flow=dst, eop=eop,
                   length=length)


def drive_port(mms, port: int, ops: Iterator[FeederOp]):
    """Kernel adapter: run a micro-op generator as a port process.

    Yields exactly the delays and ``submit`` handshakes the inline
    feeders used to, so swapping them for shared micro-op generators
    leaves the reference kernel's event sequence untouched.
    """
    for op in ops:
        if type(op) is int:
            yield op
        else:
            yield from mms.submit(port, to_command(op))


# ==================================================== Table 5 load feed

def load_feed_ops(now_fn: Callable[[], int], port: int, enqueue: bool,
                  phase: int, num_volleys: int, volley_period_ps: int,
                  active_flows: int, burst_len: int, burst_prob: float,
                  seed: int) -> Iterator[FeederOp]:
    """One Table 5 port: synchronized volleys with geometric bursts.

    With probability ``burst_prob`` a port emits ``burst_len``
    back-to-back commands and skips the corresponding later volleys
    (same average rate, burstier arrivals).  Enqueue ports walk even or
    odd flows by ``phase``; dequeue ports follow ``LOAD_LAG_VOLLEYS``
    behind so the prefilled backlog never underflows.
    """
    rng = random.Random(seed + port)
    enq = CommandType.ENQUEUE
    deq = CommandType.DEQUEUE
    i = 0       # command index (determines flow and rate accounting)
    volley = 0  # wall-clock volley slot
    while i < num_volleys:
        target = volley * volley_period_ps
        now = now_fn()
        if target > now:
            yield target - now
        emit = burst_len if rng.random() < burst_prob else 1
        if emit > num_volleys - i:
            emit = num_volleys - i
        for k in range(emit):
            if enqueue:
                yield (enq, (2 * (i + k) + phase) % active_flows,
                       None, True, 64)
            else:
                yield (deq,
                       (2 * (i + k - LOAD_LAG_VOLLEYS) + phase)
                       % active_flows,
                       None, True, 64)
        i += emit
        volley += emit  # a burst consumes its later volley slots


def load_volley_period_ps(offered_gbps: float) -> int:
    """Volley pacing of the Table 5 harness at one offered load."""
    return round(4 * BITS_PER_OP / offered_gbps * 1000)


def load_prefill_packets(active_flows: int) -> int:
    """Per-flow prefill depth of the Table 5 harness: each flow is
    enqueued once per ``active_flows / 2`` volleys and the dequeue
    stream lags by ``LOAD_LAG_VOLLEYS``, so a small backlog
    suffices."""
    return (2 * LOAD_LAG_VOLLEYS) // active_flows + 4


def load_horizon_ps(num_volleys: int, volley_period_ps: int) -> int:
    """Run horizon of the Table 5 harness."""
    return (num_volleys + 64) * volley_period_ps + 10 * SEC // 1000


# ================================================== saturation feed

def saturation_feed_ops(enqueue: bool, phase: int, per_port: int,
                        active_flows: int) -> Iterator[FeederOp]:
    """One headline-saturation port: back-to-back commands, maximum
    rate (the port FIFO's backpressure is the only pacing)."""
    kind = CommandType.ENQUEUE if enqueue else CommandType.DEQUEUE
    for i in range(per_port):
        yield (kind, (2 * i + phase) % active_flows, None, True, 64)


def saturation_prefill_packets(per_port: int, active_flows: int) -> int:
    """Per-flow prefill depth of the saturation harness."""
    return per_port * 2 // active_flows + 2


# ==================================================== overload feeds

def overload_pacing_ps(clock: Clock) -> Tuple[int, int]:
    """``(drain_period_ps, enq_period_ps)`` of the overload harness:
    the DQM serves one command per ~10.5 cycles, the drain dequeues at
    twice that interval, and the three enqueue ports together offer
    four segments per drain slot -- 2x oversubscription."""
    service_ps = round(10.5 * clock.period_ps)
    drain_period = 2 * service_ps
    return drain_period, 3 * drain_period // 4


def overload_horizon_ps(num_arrivals: int, enq_period_ps: int,
                        num_segments: int, drain_period_ps: int) -> int:
    """Run horizon of the overload harness."""
    return (num_arrivals * 16 * enq_period_ps
            + num_segments * 4 * drain_period_ps
            + SEC // 1000)


def overload_feed_ops(shape: str, port: int, per_port: int,
                      active_flows: int, enq_period_ps: int,
                      counters: Dict[str, int]) -> Iterator[FeederOp]:
    """One overload ingress port, shaped per the scenario family.

    See :mod:`repro.policies.harness` for the shape semantics; the
    feeder marks itself done in ``counters`` so the drain knows when the
    backlog can only shrink.
    """
    enq = CommandType.ENQUEUE
    for i in range(per_port):
        if shape == "burst":
            # volleys of 12 back-to-back arrivals, long idle gaps: the
            # aggregate burst overflows the buffer against the backlog,
            # then the drain catches up
            if i % 12 == 0 and i > 0:
                yield 14 * enq_period_ps
            yield (enq, (3 * i + port) % active_flows, None, True, 64)
        elif shape == "sustained":
            yield enq_period_ps
            yield (enq, (3 * i + port) % active_flows, None, True, 64)
        else:  # incast: flows converge with 3-segment packets, then a
            # short gap lets the drain work -- many short queues rather
            # than burst's few long ones
            seg = i % 3
            if seg == 0 and i > 0 and (i // 3) % 4 == 0:
                yield 10 * enq_period_ps
            yield (enq, (3 * (i // 3) + port) % active_flows,
                   None, seg == 2, 64)
    counters["feeders_done"] = counters.get("feeders_done", 0) + 1


def overload_drain_ops(queued_packets: Callable[[int], int],
                       active_flows: int, drain_period_ps: int,
                       counters: Dict[str, int]) -> Iterator[FeederOp]:
    """The overload egress port: slow round-robin over backlogged
    flows; terminates once the feeders finished and the backlog is
    gone."""
    deq = CommandType.DEQUEUE
    flow = 0
    while True:
        yield drain_period_ps
        for probe in range(active_flows):
            f = (flow + probe) % active_flows
            if queued_packets(f) > 0:
                flow = (f + 1) % active_flows
                yield (deq, f, None, True, 64)
                counters["dequeued"] += 1
                break
        else:
            if counters.get("feeders_done", 0) == 3:
                return


# ====================================================== result folds

#: The completion-record fields the Table 5 breakdown folds read.
_CYCLES = itemgetter(REC_FIFO, REC_EXECUTION, REC_DATA, REC_E2E)


def replay(records: List[CompletionRecord], probe
           ) -> List[CompletionRecord]:
    """Deliver a finished run's completion records to the probe's
    ``on_record`` in delivery order (nothing without a probe) and
    return them.

    Both engines collect the records during the run -- the kernel DQM
    appends them to ``dqm.records`` as its finalize processes resume,
    the stream machine derives them in the same order
    (:meth:`~repro.engines.stream.StreamMms.completion_records`) -- so
    one replay after the run gives every observer the identical
    stream."""
    if probe is not None:
        on_record = probe.on_record
        for record in records:
            on_record(record)
    return records


def fold_cycle_means(records: Sequence[CompletionRecord]
                     ) -> Tuple[int, float, float, float, float]:
    """``(count, fifo, execution, data, end_to_end)``: the record count
    and the mean of each cycle field, in one pass.

    Each mean follows :class:`~repro.sim.stats.RunningStats`' exact
    recurrence ``m += (x - m) / n``, so it is bit-identical to a
    ``RunningStats`` fed the same values in the same order.
    """
    n = 0
    fifo = execution = data = e2e = 0.0
    for fifo_c, exec_c, data_c, e2e_c in map(_CYCLES, records):
        n += 1
        fifo += (fifo_c - fifo) / n
        execution += (exec_c - execution) / n
        data += (data_c - data) / n
        e2e += (e2e_c - e2e) / n
    return n, fifo, execution, data, e2e


def warm_window(records: Sequence[CompletionRecord], boundary: int
                ) -> Tuple[int, int, Sequence[CompletionRecord]]:
    """``(t0, t_last, window)``: the Table 5 warm-up window.

    The window is every record after the first ``boundary``, or every
    record when none lies beyond it; ``t0`` is the time of the last
    record before the window (0 when the boundary is not inside the
    record list) and ``t_last`` the time of the last record (0 without
    records)."""
    t_last = records[-1][REC_TIME] if records else 0
    t0 = records[boundary - 1][REC_TIME] \
        if 0 < boundary <= len(records) else 0
    window = records[boundary:] if 0 <= boundary < len(records) \
        else records
    return t0, t_last, window


def assemble_load_result(records: Sequence[CompletionRecord],
                         warmup_volleys: int, offered_gbps: float,
                         engine: str) -> MmsLoadResult:
    """One Table 5 row: the means over the warm window after
    ``warmup_volleys`` four-port volleys, over its time span."""
    t0, t_last, window = warm_window(records, warmup_volleys * 4)
    count, fifo, execution, data, e2e = fold_cycle_means(window)
    return MmsLoadResult(
        offered_gbps=offered_gbps,
        completed_ops=count,
        elapsed_ps=t_last - t0,
        fifo_cycles=fifo,
        execution_cycles=execution,
        data_cycles=data,
        end_to_end_cycles=e2e,
        engine=engine,
    )


def assemble_saturation_result(records: Sequence[CompletionRecord],
                               commands_executed: int, period_ps: int,
                               engine: str) -> MmsLoadResult:
    """The headline row: means over every record.  The DQM runs
    back-to-back under saturation, so the executed count times the mean
    execution latency bounds the busy span tightly."""
    count, fifo, execution, data, e2e = fold_cycle_means(records)
    return MmsLoadResult(
        offered_gbps=float("inf"),
        completed_ops=count,
        elapsed_ps=round(commands_executed * execution * period_ps),
        fifo_cycles=fifo,
        execution_cycles=execution,
        data_cycles=data,
        end_to_end_cycles=e2e,
        engine=engine,
    )
