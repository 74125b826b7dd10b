"""The MMS workloads, each defined once for every driver.

The Table 5 load harness, the saturation headline, the overload family
and free-form ``script`` runs each drive the MMS through port feeders.
A workload family is one *plan* builder here (:func:`load_plan`,
:func:`saturation_plan`, :func:`overload_plan`, :func:`script_plan`):
given the machine it runs on -- the kernel-backed
:class:`~repro.core.mms.MMS` or the batched
:class:`~repro.engines.stream.StreamMms`, which share the
``add_feeder``/``run``/``completion_records`` surface -- it checks the
workload's arguments, prefills the machine and returns a :class:`Plan`:
the ``(port, kernel process name, feeder factory)`` list in attach
order, the horizon and the result assembly.  Every driver runs that
plan: the plain harnesses through :func:`run_plan` on the machine
:func:`machine_for` picks, and the checkpoint-aware drivers
(:mod:`repro.checkpoint`) with their own feeder wrapping.  Results are
therefore equal across drivers by construction.

A feeder is a plain generator of **micro-ops**:

* a positive ``int`` -- sleep that many picoseconds,
* a tuple ``(CommandType, flow, dst_flow, eop, length)`` -- submit that
  command to the feeder's port (blocking on port backpressure).

A feeder *factory* takes ``(wrap, counters)``: ``wrap`` wraps every
environment read the feeder makes (the current time, queue depths),
and ``counters`` is the run's shared counter store.  Plain runs pass
the identity and a dict, so the engines get raw generators; a
checkpointed stream run passes each feeder's observation tape and a
taped counter view (:mod:`repro.checkpoint.feeders`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro.core.commands import CommandType
from repro.core.mms import MMS, BITS_PER_OP, MmsConfig, MmsLoadResult
from repro.sim.clock import Clock, SEC
from repro.sim.kernel import make_simulator
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

#: Traffic shapes of the overload scenario family (see
#: :mod:`repro.policies.harness`).
SHAPES = ("burst", "sustained", "incast")

#: A feeder factory (see module docstring): ``(wrap, counters)`` to a
#: micro-op generator.
FeederFactory = Callable[[Callable[[Callable[..., Any]], Callable[..., Any]],
                          Any], Iterator[FeederOp]]


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


@dataclass
class OverloadResult:
    """Loss behavior of one policy under one overload shape."""

    policy: str
    shape: str
    offered_segments: int
    offered_bytes: int
    accepted_segments: int
    accepted_bytes: int
    dropped_segments: int
    dropped_bytes: int
    pushed_out_segments: int
    pushed_out_bytes: int
    dequeued_segments: int
    residual_segments: int
    capacity_segments: int
    elapsed_ps: int
    engine: str = "fast"

    @property
    def drop_rate(self) -> float:
        if self.offered_segments == 0:
            return 0.0
        return self.dropped_segments / self.offered_segments

    def counters(self) -> Dict[str, int]:
        """The drop/accept counters that must be byte-identical across
        engines (everything except wall-clock, which is not simulated
        state)."""
        return {
            "offered_segments": self.offered_segments,
            "offered_bytes": self.offered_bytes,
            "accepted_segments": self.accepted_segments,
            "accepted_bytes": self.accepted_bytes,
            "dropped_segments": self.dropped_segments,
            "dropped_bytes": self.dropped_bytes,
            "pushed_out_segments": self.pushed_out_segments,
            "pushed_out_bytes": self.pushed_out_bytes,
            "dequeued_segments": self.dequeued_segments,
            "residual_segments": self.residual_segments,
            "elapsed_ps": self.elapsed_ps,
        }


# ====================================================== workload plans

@dataclass
class Plan:
    """One workload on one machine (see module docstring)."""

    #: ``(port, kernel process name, factory)`` in attach order: spawn
    #: order is resume order at equal times, and the kernel names appear
    #: in checkpointed event schedules, so both are part of the
    #: workload.
    feeders: List[Tuple[int, str, FeederFactory]]
    horizon_ps: int
    #: The shared counters to the run's result, once the machine reached
    #: the horizon; replays the completion records to the machine's
    #: probe.
    result: Callable[[Dict[str, int]], Any]
    #: The shared counter store a fresh run starts from.
    counters: Dict[str, int] = field(default_factory=dict)


def machine_for(config: MmsConfig, engine: str, probe: Any = None) -> Any:
    """The machine a plain run of ``engine`` executes on: the
    command-stream machine for ``"fast"`` when it claims ``config``,
    else the kernel-backed MMS on that engine's kernel."""
    if engine == "fast":
        from repro.engines import StreamMms, stream_supports
        if stream_supports(config) is None:
            return StreamMms(config, probe=probe)
    return MMS(config, sim=make_simulator(engine), probe=probe)


def _direct(fn: Callable[..., Any]) -> Callable[..., Any]:
    """The plain runs' ``wrap``: environment reads go straight through."""
    return fn


def attach(machine: Any, plan: Plan, counters: Dict[str, int]) -> None:
    """Attach the plan's feeders to ``machine`` as raw generators --
    no checkpoint machinery on the plain path."""
    for port, name, factory in plan.feeders:
        machine.add_feeder(port, factory(_direct, counters), name)


def run_plan(machine: Any, plan: Plan) -> Any:
    """Run ``plan`` on its fresh ``machine`` to the horizon and return
    the result."""
    counters = dict(plan.counters)
    attach(machine, plan, counters)
    machine.run(plan.horizon_ps)
    return plan.result(counters)


def _replay_to_probe(machine: Any, horizon_ps: int) -> None:
    """Replay the completion records to the machine's probe, for
    workloads whose result is read off counters, not records."""
    if machine.probe is not None:
        replay(machine.completion_records(horizon_ps), machine.probe)


def load_plan(machine: Any, offered_gbps: float, num_volleys: int,
              active_flows: int, warmup_volleys: int, burst_len: int,
              burst_prob: float, seed: int, engine: str) -> Plan:
    """Table 5 at one offered load (see
    :func:`repro.core.mms.run_load`)."""
    machine.prefill(range(active_flows),
                    packets_per_flow=load_prefill_packets(active_flows))
    period = load_volley_period_ps(offered_gbps)
    horizon = load_horizon_ps(num_volleys, period)

    def now() -> int:
        return machine.now

    def port_feeder(port: int, enqueue: bool, phase: int
                    ) -> FeederFactory:
        return lambda wrap, counters: load_feed_ops(
            wrap(now), port, enqueue, phase, num_volleys, period,
            active_flows, burst_len, burst_prob, seed)

    def result(counters: Dict[str, int]) -> MmsLoadResult:
        return assemble_load_result(
            replay(machine.completion_records(horizon), machine.probe),
            warmup_volleys, offered_gbps, engine)

    return Plan([(port, f"port{port}", port_feeder(port, enqueue, phase))
                 for port, (enqueue, phase) in enumerate(FOUR_PORTS)],
                horizon, result)


def saturation_plan(machine: Any, num_commands: int, active_flows: int,
                    engine: str) -> Plan:
    """The headline saturation experiment (see
    :func:`repro.core.mms.run_saturation`)."""
    per_port = num_commands // 4
    machine.prefill(range(active_flows),
                    packets_per_flow=saturation_prefill_packets(
                        per_port, active_flows))

    def port_feeder(enqueue: bool, phase: int) -> FeederFactory:
        # pure feeders: nothing to wrap, no counters
        return lambda wrap, counters: saturation_feed_ops(
            enqueue, phase, per_port, active_flows)

    def result(counters: Dict[str, int]) -> MmsLoadResult:
        return assemble_saturation_result(
            replay(machine.completion_records(SATURATION_HORIZON_PS),
                   machine.probe),
            machine.commands_executed, machine.clock.period_ps, engine)

    return Plan([(port, f"port{port}", port_feeder(enqueue, phase))
                 for port, (enqueue, phase) in enumerate(FOUR_PORTS)],
                SATURATION_HORIZON_PS, result)


def _drain(machine: Any, port: int, active_flows: int, period_ps: int
           ) -> Tuple[int, str, FeederFactory]:
    """The overload egress port as a plan feeder (see
    :func:`overload_drain_ops`)."""
    return port, "drain", lambda wrap, counters: overload_drain_ops(
        wrap(machine.pqm.queued_packets), active_flows, period_ps, counters)


def overload_plan(machine: Any, shape: str, num_arrivals: int,
                  active_flows: int, engine: str) -> Plan:
    """One overload experiment on a machine built with its policy (see
    :func:`repro.policies.harness.run_overload`): three shaped enqueue
    ports offer ``num_arrivals`` segments while one port drains.

    Raises :class:`ValueError` on arguments outside the family, for
    every driver alike."""
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r} (choose from {SHAPES})")
    if num_arrivals < 1:
        raise ValueError(f"num_arrivals must be >= 1, got {num_arrivals}")
    config = machine.config
    if not 1 <= active_flows <= config.num_flows:
        raise ValueError(
            f"active_flows must be in [1, {config.num_flows}], "
            f"got {active_flows}")
    drain_period, enq_period = overload_pacing_ps(machine.clock)
    per_port = num_arrivals // 3
    horizon = overload_horizon_ps(num_arrivals, enq_period,
                                  config.num_segments, drain_period)

    def port_feeder(port: int) -> FeederFactory:
        return lambda wrap, counters: overload_feed_ops(
            shape, port, per_port, active_flows, enq_period, counters)

    def result(counters: Dict[str, int]) -> OverloadResult:
        """The typed loss counters: the policy's books, the drain's
        dequeue count and the final clock."""
        _replay_to_probe(machine, horizon)
        policy = machine.policy
        stats = policy.stats
        return OverloadResult(
            policy=config.policy.name,
            shape=shape,
            offered_segments=stats.offered_segments,
            offered_bytes=stats.offered_bytes,
            accepted_segments=stats.accepted_segments,
            accepted_bytes=stats.accepted_bytes,
            dropped_segments=stats.dropped_segments,
            dropped_bytes=stats.dropped_bytes,
            pushed_out_segments=stats.pushed_out_segments,
            pushed_out_bytes=stats.pushed_out_bytes,
            dequeued_segments=counters["dequeued"],
            residual_segments=policy.total_segments,
            capacity_segments=config.num_segments,
            elapsed_ps=machine.now,
            engine=engine,
        )

    feeders = [(port, f"enq{port}", port_feeder(port)) for port in range(3)]
    feeders.append(_drain(machine, 3, active_flows, drain_period))
    return Plan(feeders, horizon, result, {"dequeued": 0})


def _script_ops(ops: Sequence[FeederOp], counters: Any,
                mark_done: bool) -> Iterator[FeederOp]:
    """A script as a feeder, with the overload feeders' trailing
    done-handshake when requested."""
    yield from ops
    if mark_done:
        counters["feeders_done"] = counters.get("feeders_done", 0) + 1


def script_plan(machine: Any, scripts: Sequence[Sequence[FeederOp]],
                horizon_ps: int, mark_done: bool = False,
                drain: bool = False, drain_period_ps: int = 0,
                drain_active_flows: int = 0) -> Plan:
    """A free-form run: one micro-op list per port, optionally followed
    by an overload-style drain port (whose termination handshake needs
    three ``mark_done`` scripts).  The result is the executed count,
    the final clock and the shared counters."""
    def port_feeder(ops: Sequence[FeederOp]) -> FeederFactory:
        return lambda wrap, counters: _script_ops(ops, counters, mark_done)

    def result(counters: Dict[str, int]) -> Dict[str, Any]:
        _replay_to_probe(machine, horizon_ps)
        return {"commands_executed": machine.commands_executed,
                "elapsed_ps": machine.now, "counters": dict(counters)}

    feeders = [(port, f"port{port}", port_feeder(ops))
               for port, ops in enumerate(scripts)]
    if not drain:
        return Plan(feeders, horizon_ps, result)
    feeders.append(_drain(machine, len(scripts), drain_active_flows,
                          drain_period_ps))
    return Plan(feeders, horizon_ps, result, {"dequeued": 0})
