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
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.telemetry.probe import Probe

from repro.core.mms import MmsConfig
from repro.core.workloads import (
    SHAPES,
    OverloadResult,
    machine_for,
    overload_plan,
    run_plan,
)
from repro.policies.base import PolicySpec

__all__ = ["OVERLOAD_MMS_CFG", "OverloadResult", "SHAPES", "run_overload"]

#: Default overload build: a deliberately tiny shared buffer.
OVERLOAD_MMS_CFG = MmsConfig(num_flows=64, num_segments=96,
                             num_descriptors=96)


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
    typed loss counters.  The workload, its argument checks included,
    is :func:`repro.core.workloads.overload_plan`.
    """
    cfg = dataclasses.replace(config, policy=policy, policy_seed=seed,
                              policy_records=keep_records)
    machine = machine_for(cfg, engine, probe)
    return run_plan(machine, overload_plan(
        machine, shape, num_arrivals, active_flows=active_flows,
        engine=engine))
