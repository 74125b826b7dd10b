"""Batched replays of the published MMS workloads.

Each function here is the :class:`~repro.engines.stream.StreamMms`
counterpart of a kernel-backed harness -- :func:`repro.core.mms.run_load`
(Table 5), :func:`repro.core.mms.run_saturation` (the headline claim)
and :func:`repro.policies.harness.run_overload` (the overload family).
The workload definition is shared (:mod:`repro.core.workloads`), the
machine replays it kernel-free, and the result objects are assembled
with the very arithmetic the kernel harnesses use -- including the
Table 5 warm-up window's record-order semantics -- so the returned
values are *equal*, not approximately equal (asserted by
``tests/engines/``).

The pacing and result-assembly arithmetic is factored into module
functions (``load_volley_period_ps``, ``assemble_overload_result``,
...) with the run loops kept thin on top: the checkpoint-aware drivers
(:mod:`repro.checkpoint.runs`) call the *same* functions, which is what
makes a resumed run's result structurally identical to an unbroken
harness run rather than re-implemented-and-hopefully-equal.

These entry points are not called directly by experiment code: the
kernel harnesses route ``engine="fast"`` here whenever
:func:`~repro.engines.stream.stream_supports` claims the configuration.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from repro.core.mms import BITS_PER_OP, MmsConfig, MmsLoadResult
from repro.core.workloads import (
    LOAD_LAG_VOLLEYS,
    load_feed_ops,
    overload_drain_ops,
    overload_feed_ops,
    saturation_feed_ops,
)
from repro.engines.stream import StreamMms
from repro.policies.harness import OverloadResult
from repro.sim.clock import Clock, SEC
from repro.telemetry.probe import (
    REC_DATA,
    REC_E2E,
    REC_EXECUTION,
    REC_FIFO,
    REC_TIME,
    CompletionRecord,
)

#: Saturation harness horizon (far beyond any drain time).
SATURATION_HORIZON_PS = 60 * SEC

#: The completion-record fields the Table 5 breakdown folds read.
_CYCLES = itemgetter(REC_FIFO, REC_EXECUTION, REC_DATA, REC_E2E)


def _replay(eng: StreamMms, probe, horizon: int
            ) -> List[CompletionRecord]:
    """The run's completion records in kernel delivery order, fed to
    the probe's ``on_record`` first when one is set.

    The kernel path emits ``on_record`` live from its probed finalize
    processes; the stream machine replays the identical record stream
    (same values, same delivery order -- the fuzz suite's contract)
    after the run, so every fold over it is byte-identical.
    """
    records = eng.completion_records(horizon)
    if probe is not None:
        on_record = probe.on_record
        for record in records:
            on_record(record)
    return records


# ================================================== Table 5 load pacing

def load_volley_period_ps(offered_gbps: float) -> int:
    """Volley pacing of the Table 5 harness at one offered load."""
    return round(4 * BITS_PER_OP / offered_gbps * 1000)


def load_prefill_packets(active_flows: int) -> int:
    """Per-flow prefill depth of the Table 5 harness."""
    return (2 * LOAD_LAG_VOLLEYS) // active_flows + 4


def load_horizon_ps(num_volleys: int, volley_period_ps: int) -> int:
    """Run horizon of the Table 5 harness."""
    return (num_volleys + 64) * volley_period_ps + 10 * SEC // 1000


def fold_cycle_means(records: Sequence[CompletionRecord]
                     ) -> Tuple[int, float, float, float, float]:
    """``(count, fifo, execution, data, end_to_end)``: the record count
    and the mean of each cycle field, in one pass.

    Each mean follows :class:`~repro.sim.stats.RunningStats`' exact
    recurrence ``m += (x - m) / n``, so it is bit-identical to the mean
    of the kernel path's :class:`~repro.core.latency.LatencyBreakdown`
    fed the same values in the same order.
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


def assemble_load_result(eng: StreamMms, probe, horizon: int,
                         warmup_volleys: int,
                         offered_gbps: float) -> MmsLoadResult:
    """Fold the finished run's records with the exact warm-up windowing
    of ``run_load``'s recording hook: the warm window is every record
    after the first ``warmup_volleys * 4`` (``t0`` is the time of the
    last record before it), or every record when none lies beyond it;
    ``t_last`` is the time of the last record."""
    records = _replay(eng, probe, horizon)
    boundary = warmup_volleys * 4
    t_last = records[-1][REC_TIME] if records else 0
    t0 = records[boundary - 1][REC_TIME] \
        if 0 < boundary <= len(records) else 0
    window = records[boundary:] if 0 <= boundary < len(records) \
        else records
    count, fifo, execution, data, e2e = fold_cycle_means(window)
    return MmsLoadResult(
        offered_gbps=offered_gbps,
        completed_ops=count,
        elapsed_ps=t_last - t0,
        fifo_cycles=fifo,
        execution_cycles=execution,
        data_cycles=data,
        end_to_end_cycles=e2e,
        engine="fast",
    )


def stream_run_load(offered_gbps: float, *, num_volleys: int,
                    config: MmsConfig, active_flows: int,
                    warmup_volleys: int, burst_len: int, burst_prob: float,
                    seed: int, probe=None) -> MmsLoadResult:
    """Table 5 at one offered load, on the command-stream machine."""
    eng = StreamMms(config, probe=probe)
    eng.prefill(range(active_flows),
                packets_per_flow=load_prefill_packets(active_flows))
    volley_period_ps = load_volley_period_ps(offered_gbps)

    def now() -> int:
        return eng.now

    for port, (enqueue, phase) in enumerate(((True, 0), (False, 0),
                                             (True, 1), (False, 1))):
        eng.add_feeder(port, load_feed_ops(
            now, port, enqueue, phase, num_volleys, volley_period_ps,
            active_flows, burst_len, burst_prob, seed))

    horizon = load_horizon_ps(num_volleys, volley_period_ps)
    eng.run(horizon)
    return assemble_load_result(eng, probe, horizon, warmup_volleys,
                                offered_gbps)


# ================================================== saturation pacing

def saturation_prefill_packets(per_port: int, active_flows: int) -> int:
    """Per-flow prefill depth of the saturation harness."""
    return per_port * 2 // active_flows + 2


def assemble_saturation_result(eng: StreamMms, probe, horizon: int
                               ) -> MmsLoadResult:
    count, fifo, execution, data, e2e = \
        fold_cycle_means(_replay(eng, probe, horizon))
    # the DQM runs back-to-back under saturation (see
    # core.mms._last_execution_ps)
    elapsed = round(eng.commands_executed * execution
                    * eng.clock.period_ps)
    return MmsLoadResult(
        offered_gbps=float("inf"),
        completed_ops=count,
        elapsed_ps=elapsed,
        fifo_cycles=fifo,
        execution_cycles=execution,
        data_cycles=data,
        end_to_end_cycles=e2e,
        engine="fast",
    )


def stream_run_saturation(*, num_commands: int, config: MmsConfig,
                          active_flows: int, probe=None) -> MmsLoadResult:
    """The headline saturation experiment, on the command-stream
    machine."""
    eng = StreamMms(config, probe=probe)
    per_port = num_commands // 4
    eng.prefill(range(active_flows),
                packets_per_flow=saturation_prefill_packets(per_port,
                                                            active_flows))
    for port, (enqueue, phase) in enumerate(((True, 0), (False, 0),
                                             (True, 1), (False, 1))):
        eng.add_feeder(port,
                       saturation_feed_ops(enqueue, phase, per_port,
                                           active_flows))
    horizon = SATURATION_HORIZON_PS
    eng.run(horizon)
    return assemble_saturation_result(eng, probe, horizon)


# ==================================================== overload pacing

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


def assemble_overload_result(eng: StreamMms, cfg: MmsConfig, shape: str,
                             counters: Dict[str, int], horizon: int,
                             probe=None,
                             engine_label: str = "fast") -> OverloadResult:
    if probe is not None:
        # replay only: the overload result wants counters, not records
        _replay(eng, probe, horizon)
    stats = eng.policy.stats
    return OverloadResult(
        policy=cfg.policy.name,
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
        residual_segments=eng.policy.total_segments,
        capacity_segments=cfg.num_segments,
        elapsed_ps=eng.now,
        engine=engine_label,
    )


def stream_run_overload(cfg: MmsConfig, shape: str, *, num_arrivals: int,
                        active_flows: int,
                        engine_label: str = "fast",
                        probe=None) -> OverloadResult:
    """One overload experiment, on the command-stream machine.

    ``cfg`` is the already-resolved build (policy spec, seed and record
    retention folded in by :func:`repro.policies.harness.run_overload`,
    which owns the argument validation and routes here).
    """
    eng = StreamMms(cfg, probe=probe)

    drain_period, enq_period = overload_pacing_ps(eng.clock)
    per_port = num_arrivals // 3
    counters = {"dequeued": 0}
    for port in range(3):
        eng.add_feeder(port, overload_feed_ops(shape, port, per_port,
                                               active_flows, enq_period,
                                               counters))
    eng.add_feeder(3, overload_drain_ops(eng.pqm.queued_packets,
                                         active_flows, drain_period,
                                         counters))

    horizon = overload_horizon_ps(num_arrivals, enq_period,
                                  cfg.num_segments, drain_period)
    eng.run(horizon)
    return assemble_overload_result(eng, cfg, shape, counters, horizon,
                                    probe=probe, engine_label=engine_label)
