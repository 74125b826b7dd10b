"""The overload load harness: drive an MMS past its buffer capacity.

The Table 5 harness keeps the offered load below the MMS saturation
point and the buffer far larger than the backlog -- no loss ever occurs.
This harness does the opposite: a deliberately small segment buffer, a
drain that is slower than the offered traffic, and a policy deciding the
fate of every arrival.  Three traffic shapes cover the canonical
overload situations:

* ``burst``    -- low average load with large synchronized volleys that
  transiently overflow the buffer (drain recovers in between),
* ``sustained``-- steady 2x oversubscription (arrival pacing at twice
  the drain pacing): occupancy climbs and pins at capacity,
* ``incast``   -- many flows converge simultaneously with short
  multi-segment packets (many short queues; victim selection and
  per-queue thresholds behave differently than under ``burst``'s few
  long queues).

Everything runs through the real MMS blocks (port FIFOs, DQM schedule
timing, DMC transfers), and the ``engine`` knob works exactly like
Table 5's: ``"fast"`` routes to the DES-free command-stream machine
(:mod:`repro.engines`; kernel fallback for configurations it declines),
``"reference"`` to the heapq kernel.  The paths are trace-identical,
and the policy decisions are a pure function of (seed, arrival order),
so the drop/accept counters are byte-identical across engines --
asserted by the equivalence tests, the differential fuzz suite and the
benchmark gate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:
    from repro.telemetry.probe import Probe

from repro.core.mms import MMS, MmsConfig
from repro.core.workloads import (
    drive_port,
    overload_drain_ops,
    overload_feed_ops,
    overload_horizon_ps,
    overload_pacing_ps,
    replay,
)
from repro.policies.base import BufferPolicy, PolicySpec
from repro.sim.kernel import make_simulator

#: Traffic shapes of the overload scenario family.
SHAPES = ("burst", "sustained", "incast")

#: Default overload build: a deliberately tiny shared buffer.
OVERLOAD_MMS_CFG = MmsConfig(num_flows=64, num_segments=96,
                             num_descriptors=96)


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


def assemble_overload_result(policy: BufferPolicy, config: MmsConfig,
                             shape: str, dequeued: int, elapsed_ps: int,
                             engine_label: str) -> OverloadResult:
    """The typed loss counters of a finished overload run: the policy's
    books, the drain's dequeue count and the final clock."""
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
        dequeued_segments=dequeued,
        residual_segments=policy.total_segments,
        capacity_segments=config.num_segments,
        elapsed_ps=elapsed_ps,
        engine=engine_label,
    )


def run_overload(policy: PolicySpec, shape: str, *,
                 num_arrivals: int = 1200,
                 active_flows: int = 32,
                 config: MmsConfig = OVERLOAD_MMS_CFG,
                 seed: int = 2005,
                 engine: str = "fast",
                 keep_records: bool = False,
                 probe: Optional["Probe"] = None) -> OverloadResult:
    """Run one (policy, traffic shape) overload experiment.

    ``num_arrivals`` segments are offered across ``active_flows`` flow
    queues by three enqueue ports while one port drains at half the
    offered pace; the policy decides every arrival's fate.  Returns the
    typed loss counters.
    """
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r} (choose from {SHAPES})")
    if num_arrivals < 1:
        raise ValueError(f"num_arrivals must be >= 1, got {num_arrivals}")
    if not 1 <= active_flows <= config.num_flows:
        raise ValueError(
            f"active_flows must be in [1, {config.num_flows}], "
            f"got {active_flows}")
    cfg = dataclasses.replace(config, policy=policy, policy_seed=seed,
                              policy_records=keep_records)

    if engine == "fast":
        from repro.engines import stream_run_overload, stream_supports
        if stream_supports(cfg) is None:
            return stream_run_overload(cfg, shape,
                                       num_arrivals=num_arrivals,
                                       active_flows=active_flows,
                                       engine_label=engine,
                                       probe=probe)

    mms = MMS(cfg, sim=make_simulator(engine), probe=probe)
    sim = mms.sim
    drain_period, enq_period = overload_pacing_ps(mms.clock)
    per_port = num_arrivals // 3
    counters = {"dequeued": 0}

    for port in range(3):
        sim.spawn(drive_port(mms, port,
                             overload_feed_ops(shape, port, per_port,
                                               active_flows, enq_period,
                                               counters)),
                  name=f"enq{port}")
    sim.spawn(drive_port(mms, 3,
                         overload_drain_ops(mms.pqm.queued_packets,
                                            active_flows, drain_period,
                                            counters)),
              name="drain")

    sim.run(until_ps=overload_horizon_ps(num_arrivals, enq_period,
                                         cfg.num_segments, drain_period))
    replay(mms.dqm.records, probe)
    return assemble_overload_result(mms.policy, cfg, shape,
                                    counters["dequeued"], sim.now, engine)
