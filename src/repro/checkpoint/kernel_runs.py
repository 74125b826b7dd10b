"""Checkpoint-aware drivers for the calendar/heapq kernel path.

The kernel executes workloads as suspended generator *processes*, and
Python generators cannot be serialized.  So kernel checkpoints are
**replay-anchored** instead of exact: the envelope stores the run
params (enough to rebuild the model from scratch), the simulated
instant, a functional-state fingerprint (SHA-256 over the canonical
JSON of the PQM words, counters, free lists, policy books and shared
feeder counters) and the serialized event schedule
(:meth:`~repro.sim.kernel.Simulator.schedule_state`).  Resume rebuilds
the model, replays deterministically to the anchor via the kernel's
incremental-run seam, then *verifies* both the fingerprint and the
schedule before continuing -- a checkpoint that does not re-anchor
byte-identically is refused rather than silently diverging.

Determinism makes the replay exact: the kernel path takes no
wall-clock or OS input, every RNG is seeded from the params, and the
event order is pinned by the ``(time, sequence)`` contract.  The
telemetry probe and span tracer are deliberately *not* checkpointed on
this path -- their live ``on_command`` state re-accumulates during the
replay and arrives at the anchor in the identical state, and the
completion records (``dqm.records``, rebuilt by the same replay) reach
them in :meth:`KernelRun.finish`, as on the stream engine.

The workload itself -- the ``overload`` family or a ``script`` run, the
same two :class:`~repro.checkpoint.runs.StreamRun` covers -- comes from
its one definition in :mod:`repro.core.workloads`, attached exactly as
the plain harnesses attach it (:func:`~repro.core.workloads.attach`:
raw generators, the kernel process names and attach order pinned by
the plan), so a replay-anchored resume rebuilds the identical process
schedule.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

from repro.checkpoint.runs import StreamRun, WorkloadRun
from repro.checkpoint.snapshot import Checkpoint, CheckpointError
from repro.core.mms import MMS
from repro.core.workloads import attach
from repro.sim.kernel import make_simulator


def functional_digest(mms: MMS, store: Dict[str, int]) -> str:
    """SHA-256 over the canonical JSON of the model's functional state
    (PQM memory and books, free lists, policy state, shared feeder
    counters).  Two runs with equal digests have byte-identical
    functional state -- the anchor check of a kernel resume."""
    pqm = mms.pqm
    mem = pqm.mem
    sram = mem._sram
    state = {
        "words": {str(a): v for a, v in sram._words.items()},
        "sram_counts": [sram.read_count, sram.write_count],
        "reads": dict(mem.reads_by_region),
        "writes": dict(mem.writes_by_region),
        "seg_free": [pqm.seg_free._reg_head, pqm.seg_free._reg_tail,
                     pqm.seg_free.free_count, pqm.seg_free._virgin],
        "desc_free": [pqm.desc_free._reg_head, pqm.desc_free._reg_tail,
                      pqm.desc_free.free_count, pqm.desc_free._virgin],
        "shadow": {str(slot): list(s)
                   for slot, s in pqm._seg_shadow.items()},
        "open_segments": {str(f): n
                          for f, n in pqm._open_segments.items()},
        "queued_packets": list(pqm._queued_packets),
        "queued_segments": list(pqm._queued_segments),
        "policy": None if mms.policy is None else mms.policy.state_dict(),
        "counters": dict(store),
    }
    blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class KernelRun(WorkloadRun):
    """One checkpointable kernel run (replay-anchored; see module
    docstring) with the :class:`~repro.checkpoint.runs.WorkloadRun`
    interface; ``machine`` is the kernel-backed
    :class:`~repro.core.mms.MMS`."""

    engine = "kernel"

    def __init__(self, workload: str, params: Dict[str, Any]) -> None:
        super().__init__(workload, params)
        attach(self.machine, self.plan, self.store)

    def _machine(self) -> MMS:
        return MMS(self.config, probe=self.probe, sim=make_simulator(
            self.params.get("engine_label", "reference")))

    @classmethod
    def _resume(cls, ckpt: Checkpoint) -> "KernelRun":
        """Rebuild, replay to the anchor and verify it (refusing a
        checkpoint that does not re-anchor byte-identically)."""
        run = cls(ckpt.workload, dict(ckpt.params))
        sim = run.machine.sim
        sim.run(until_ps=ckpt.at_ps)
        fp = ckpt.state["fingerprint"]
        problems = []
        if sim.now != fp["now"]:
            problems.append(f"clock {sim.now} != {fp['now']}")
        digest = functional_digest(run.machine, run.store)
        if digest != fp["digest"]:
            problems.append("functional state digest mismatch")
        if sim.schedule_state() != ckpt.state["schedule"]:
            problems.append("event schedule mismatch")
        if problems:
            raise CheckpointError(
                "kernel replay did not re-anchor to the checkpoint ("
                + "; ".join(problems) + ")")
        return run

    def _state(self) -> Dict[str, Any]:
        """The replay anchor at the current rest point."""
        schedule = self.machine.sim.schedule_state()
        return {
            "fingerprint": {
                "now": self.now,
                "pending_events": len(schedule["entries"]),
                "digest": functional_digest(self.machine, self.store),
            },
            "schedule": schedule,
        }


def resume_run(ckpt: Checkpoint) -> WorkloadRun:
    """Dispatch a checkpoint to its execution path's driver."""
    if ckpt.engine == StreamRun.engine:
        return StreamRun.resume(ckpt)
    return KernelRun.resume(ckpt)
