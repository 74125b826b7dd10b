"""Batched replays of the published MMS workloads.

Each function here is the :class:`~repro.engines.stream.StreamMms`
counterpart of a kernel-backed harness -- :func:`repro.core.mms.run_load`
(Table 5), :func:`repro.core.mms.run_saturation` (the headline claim)
and :func:`repro.policies.harness.run_overload` (the overload family).
The workload definition -- feeders, pacing, prefill, horizon and the
result folds over the completion records -- lives once in
:mod:`repro.core.workloads` (the overload result in
:func:`repro.policies.harness.assemble_overload_result`); the machine
replays it kernel-free and the kernel harnesses, these functions and
the checkpoint-aware drivers (:mod:`repro.checkpoint.runs`) all call
the same functions, so the returned values are *equal*, not
approximately equal (asserted by ``tests/engines/``).

These entry points are not called directly by experiment code: the
kernel harnesses route ``engine="fast"`` here whenever
:func:`~repro.engines.stream.stream_supports` claims the configuration.
"""

from __future__ import annotations

from repro.core.mms import MmsConfig, MmsLoadResult
from repro.core.workloads import (
    FOUR_PORTS,
    SATURATION_HORIZON_PS,
    assemble_load_result,
    assemble_saturation_result,
    load_feed_ops,
    load_horizon_ps,
    load_prefill_packets,
    load_volley_period_ps,
    overload_drain_ops,
    overload_feed_ops,
    overload_horizon_ps,
    overload_pacing_ps,
    replay,
    saturation_feed_ops,
    saturation_prefill_packets,
)
from repro.engines.stream import StreamMms
from repro.policies.harness import OverloadResult, assemble_overload_result


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

    for port, (enqueue, phase) in enumerate(FOUR_PORTS):
        eng.add_feeder(port, load_feed_ops(
            now, port, enqueue, phase, num_volleys, volley_period_ps,
            active_flows, burst_len, burst_prob, seed))

    horizon = load_horizon_ps(num_volleys, volley_period_ps)
    eng.run(horizon)
    return assemble_load_result(
        replay(eng.completion_records(horizon), probe), warmup_volleys,
        offered_gbps, "fast")


def stream_run_saturation(*, num_commands: int, config: MmsConfig,
                          active_flows: int, probe=None) -> MmsLoadResult:
    """The headline saturation experiment, on the command-stream
    machine."""
    eng = StreamMms(config, probe=probe)
    per_port = num_commands // 4
    eng.prefill(range(active_flows),
                packets_per_flow=saturation_prefill_packets(per_port,
                                                            active_flows))
    for port, (enqueue, phase) in enumerate(FOUR_PORTS):
        eng.add_feeder(port,
                       saturation_feed_ops(enqueue, phase, per_port,
                                           active_flows))
    horizon = SATURATION_HORIZON_PS
    eng.run(horizon)
    return assemble_saturation_result(
        replay(eng.completion_records(horizon), probe),
        eng.commands_executed, eng.clock.period_ps, "fast")


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
    if probe is not None:
        # the overload result wants counters, not records
        replay(eng.completion_records(horizon), probe)
    return assemble_overload_result(eng.policy, cfg, shape,
                                    counters["dequeued"], eng.now,
                                    engine_label)
