"""Checkpoint-aware drivers of the MMS workloads.

Two drivers run the ``overload`` family and free-form ``script`` runs
(the fuzz suite's mixed-op streams) with checkpoints:
:class:`StreamRun` on the command-stream engine, with exact snapshots,
and :class:`~repro.checkpoint.kernel_runs.KernelRun` on the kernel,
with replay-anchored ones.  Both build the workload from its one
definition (:func:`repro.core.workloads.overload_plan` and
:func:`~repro.core.workloads.script_plan`) -- feeders, attach order,
horizon, argument checks and result assembly -- exactly as the plain
harnesses do, and keep only what is really their own (the shared part
is :class:`WorkloadRun`).

:class:`StreamRun` is the *only* place the checkpoint machinery touches
the feeder path: it builds every feeder through a
:class:`~repro.checkpoint.feeders.Tape` and wraps it in a
:class:`~repro.checkpoint.feeders.CountedFeeder`, while the plain
harnesses keep handing raw generators to the engine -- so checkpoint
support is structurally absent from normal runs, the same gating
discipline as telemetry probes.

The resume-identity contract: a run split at any rest point and resumed
from the JSON checkpoint produces byte-identical traces, DropRecords,
telemetry and results to an unbroken run (``tests/checkpoint/``
fuzzes this over random split points).  Three ingredients deliver it
on the stream engine:

* the machine state restores exactly (:mod:`.stream_state`),
* the feeders re-reach their suspension points by tape replay
  (:mod:`.feeders`),
* the workload and its result come from the one definition the
  harnesses use, so there is no second copy to drift.

Params are plain JSON dicts (built by :func:`overload_params` and
:func:`script_params`) and ride inside the
:class:`~repro.checkpoint.snapshot.Checkpoint` envelope, which is what
makes a checkpoint file self-contained: resume needs nothing but the
file.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from repro.checkpoint.feeders import CountedFeeder, CounterView, Tape
from repro.checkpoint.snapshot import (
    Checkpoint,
    CheckpointError,
    config_from_dict,
    config_to_dict,
    telemetry_spec_from_dict,
    telemetry_spec_to_dict,
    trace_spec_from_dict,
    trace_spec_to_dict,
)
from repro.checkpoint.stream_state import restore_stream, snapshot_stream
from repro.core.commands import CommandType
from repro.core.mms import MmsConfig
from repro.core.workloads import (
    FeederFactory,
    Plan,
    overload_plan,
    script_plan,
)
from repro.engines.stream import StreamMms
from repro.telemetry.collector import MmsTelemetry
from repro.telemetry.probe import Probe, ProbeChain, TelemetrySpec
from repro.trace.spans import TraceCollector, TraceSpec

#: Workload families the checkpoint drivers run.
CHECKPOINT_WORKLOADS = ("overload", "script")


# ==================================================== params builders

def overload_params(config: MmsConfig, shape: str, *, num_arrivals: int,
                    active_flows: int,
                    telemetry: Optional[TelemetrySpec] = None,
                    trace: Optional[TraceSpec] = None,
                    engine_label: str = "fast") -> Dict[str, Any]:
    """Params dict for an overload run.  ``config`` is the resolved
    build (policy spec, seed and record retention folded in, as
    :func:`repro.policies.harness.run_overload` does)."""
    if config.policy is None:
        raise CheckpointError("overload runs need a buffer policy in "
                              "the config")
    return {
        "config": config_to_dict(config),
        "telemetry": None if telemetry is None
        else telemetry_spec_to_dict(telemetry),
        "trace": None if trace is None else trace_spec_to_dict(trace),
        "shape": shape,
        "num_arrivals": num_arrivals,
        "active_flows": active_flows,
        "engine_label": engine_label,
    }


def script_params(config: MmsConfig, scripts: Sequence[Sequence[Any]], *,
                  horizon_ps: int, mark_done: bool = False,
                  drain: bool = False, drain_period_ps: int = 0,
                  drain_active_flows: int = 0,
                  telemetry: Optional[TelemetrySpec] = None,
                  trace: Optional[TraceSpec] = None
                  ) -> Dict[str, Any]:
    """Params dict for a free-form script run: one micro-op list per
    port (``int`` = delay in ps, tuple = submit op).  With ``drain``,
    an overload-style drain port follows the scripts; the drain's
    termination handshake needs exactly three ``mark_done`` scripts
    (the :func:`~repro.core.workloads.overload_drain_ops` contract)."""
    if drain and (not mark_done or len(scripts) != 3):
        raise CheckpointError(
            "a drained script run needs exactly 3 mark_done scripts "
            "(the overload drain terminates on feeders_done == 3)")
    return {
        "config": config_to_dict(config),
        "telemetry": None if telemetry is None
        else telemetry_spec_to_dict(telemetry),
        "trace": None if trace is None else trace_spec_to_dict(trace),
        "scripts": [[_encode_op(op) for op in ops] for ops in scripts],
        "horizon_ps": horizon_ps,
        "mark_done": mark_done,
        "drain": drain,
        "drain_period_ps": drain_period_ps,
        "drain_active_flows": drain_active_flows,
    }


def _encode_op(op: Any) -> Any:
    if type(op) is int:
        return op
    kind, flow, dst, eop, length = op
    return [kind.value, flow, dst, eop, length]


def _decode_op(op: Any) -> Any:
    if type(op) is int:
        return op
    return (CommandType(op[0]), op[1], op[2], op[3], op[4])


def _build_probes(params: Dict[str, Any]) -> Tuple[
        Optional[MmsTelemetry], Optional[TraceCollector], Optional[Probe]]:
    """``(telemetry, tracer, combined probe)`` from a params dict.

    The driver keeps the individual collectors because checkpoint state
    is per-collector (``"probe"`` holds the telemetry fold, ``"trace"``
    the span tracer's), while the engine wants one probe -- a
    :class:`~repro.telemetry.probe.ProbeChain` when both are on."""
    tele_spec = params.get("telemetry")
    telemetry = None if tele_spec is None \
        else MmsTelemetry(telemetry_spec_from_dict(tele_spec))
    trace_spec = params.get("trace")
    tracer = None if trace_spec is None \
        else TraceCollector(trace_spec_from_dict(trace_spec))
    children: List[Probe] = [p for p in (telemetry, tracer)
                             if p is not None]
    probe: Optional[Probe] = None
    if len(children) == 1:
        probe = children[0]
    elif children:
        probe = ProbeChain(children)
    return telemetry, tracer, probe


def _plan(workload: str, params: Dict[str, Any], machine: Any) -> Plan:
    """The workload's plan on ``machine``, from its params dict."""
    if workload == "overload":
        return overload_plan(machine, params["shape"],
                             params["num_arrivals"], params["active_flows"],
                             params["engine_label"])
    return script_plan(machine,
                       [[_decode_op(op) for op in ops]
                        for ops in params["scripts"]],
                       params["horizon_ps"], params["mark_done"],
                       params["drain"], params["drain_period_ps"],
                       params["drain_active_flows"])


# ======================================================= the drivers

class WorkloadRun:
    """What both checkpoint drivers share: the params, the probes, the
    machine, the workload plan and its counter store.

    Build with :meth:`fresh` or :meth:`resume`, advance with
    :meth:`run`, snapshot with :meth:`checkpoint` at any rest point
    (between :meth:`run` calls), and finish with :meth:`finish` --
    which runs to the workload's horizon and assembles the exact
    harness result object.  Subclasses name their checkpoint ``engine``
    and supply the machine, the feeders and the snapshot state.
    """

    #: The checkpoint envelope's engine (``"stream"`` or ``"kernel"``).
    engine = ""

    def __init__(self, workload: str, params: Dict[str, Any]) -> None:
        if workload not in CHECKPOINT_WORKLOADS:
            raise CheckpointError(
                f"unknown {self.engine} workload {workload!r} "
                f"(choose from {CHECKPOINT_WORKLOADS})")
        self.workload = workload
        self.params = params
        self.config = config_from_dict(params["config"])
        self.telemetry, self.tracer, self.probe = _build_probes(params)
        self.machine = self._machine()
        self.plan = _plan(workload, params, self.machine)
        self.store: Dict[str, int] = dict(self.plan.counters)

    def _machine(self) -> Any:
        raise NotImplementedError

    def _state(self) -> Dict[str, Any]:
        raise NotImplementedError

    # ------------------------------------------------------ constructors

    @classmethod
    def fresh(cls, workload: str, params: Dict[str, Any]) -> "WorkloadRun":
        """Start the workload from scratch."""
        return cls(workload, params)

    @classmethod
    def resume(cls, ckpt: Checkpoint) -> "WorkloadRun":
        """Continue the workload from a checkpoint of this driver's
        engine."""
        if ckpt.engine != cls.engine:
            raise CheckpointError(f"{cls.__name__} cannot resume a "
                                  f"{ckpt.engine!r} checkpoint")
        return cls._resume(ckpt)

    @classmethod
    def _resume(cls, ckpt: Checkpoint) -> "WorkloadRun":
        raise NotImplementedError

    # ----------------------------------------------------------- running

    @property
    def now(self) -> int:
        return self.machine.now

    @property
    def horizon(self) -> int:
        """The workload's run horizon."""
        return self.plan.horizon_ps

    def run(self, until_ps: int) -> None:
        """Advance the machine to ``until_ps`` (a rest point: safe to
        checkpoint after)."""
        self.machine.run(until_ps)

    def checkpoint(self) -> Checkpoint:
        """Snapshot the run at the current rest point."""
        return Checkpoint(engine=self.engine, workload=self.workload,
                          at_ps=self.now, params=self.params,
                          state=self._state())

    def finish(self) -> Any:
        """Run to the horizon, replay the completion records to the
        probe and assemble the workload's result."""
        self.machine.run(self.horizon)
        return self.plan.result(self.store)


class StreamRun(WorkloadRun):
    """One checkpointable command-stream run, snapshotted exactly (see
    module docstring)."""

    engine = "stream"

    def __init__(self, workload: str, params: Dict[str, Any], *,
                 _resume_state: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(workload, params)
        if _resume_state is not None:
            self._restore(_resume_state)
            return
        for port, _name, factory in self.plan.feeders:
            tape = Tape()
            self.machine.add_feeder(
                port, CountedFeeder(self._taped(factory)(tape), tape))

    def _machine(self) -> StreamMms:
        return StreamMms(self.config, probe=self.probe)

    @classmethod
    def _resume(cls, ckpt: Checkpoint) -> "StreamRun":
        return cls(ckpt.workload, dict(ckpt.params),
                   _resume_state=ckpt.state)

    def _taped(self, factory: FeederFactory
               ) -> Callable[[Tape], Iterator[Any]]:
        """The feeder factory with every environment read wired through
        the feeder's tape, so a rebuilt feeder replays to its recorded
        suspension point."""
        return lambda tape: factory(tape.wrap, CounterView(self.store, tape))

    def _restore(self, state: Dict[str, Any]) -> None:
        self.store.update(state.get("counters") or {})
        probe_state = state.get("probe")
        if (probe_state is None) != (self.telemetry is None):
            raise CheckpointError(
                "checkpoint and params disagree about telemetry")
        if self.telemetry is not None:
            self.telemetry.load_state(probe_state)
        trace_state = state.get("trace")
        if (trace_state is None) != (self.tracer is None):
            raise CheckpointError(
                "checkpoint and params disagree about tracing")
        if self.tracer is not None:
            self.tracer.load_state(trace_state)
        restore_stream(self.machine, state["machine"],
                       [self._taped(factory)
                        for _port, _name, factory in self.plan.feeders])

    def _state(self) -> Dict[str, Any]:
        return {
            "machine": snapshot_stream(self.machine),
            "counters": dict(self.store) if self.store else None,
            "probe": None if self.telemetry is None
            else self.telemetry.state_dict(),
            "trace": None if self.tracer is None
            else self.tracer.state_dict(),
        }


def run_with_checkpoints(run: WorkloadRun, every_ps: int,
                         sink: Callable[[Checkpoint], None],
                         until_ps: Optional[int] = None,
                         events: Optional[Any] = None) -> int:
    """Advance ``run`` to its horizon (or ``until_ps``), invoking
    ``sink`` with a checkpoint at every ``every_ps`` boundary short of
    the end.  Returns the number of checkpoints sunk.  The final state
    is *not* checkpointed -- the caller holds the finished run.

    ``events`` is an optional :class:`repro.monitor.events.EventSink`:
    when present, the drive emits ``checkpoint.start``, one
    ``checkpoint.progress`` per sunk checkpoint (simulated position and
    running count in ``extra``) and ``checkpoint.finish`` -- the
    monitoring view of a long checkpointed run."""
    if every_ps <= 0:
        raise CheckpointError(f"checkpoint period must be positive, "
                              f"got {every_ps}")
    end = run.horizon if until_ps is None else min(until_ps, run.horizon)
    count = 0
    boundary = run.now
    if events is not None:
        events.emit("checkpoint", "start", run.workload,
                    extra={"from_ps": run.now, "until_ps": end,
                           "every_ps": every_ps})
    while boundary < end:
        boundary = min(boundary + every_ps, end)
        run.run(boundary)
        if boundary < end:
            sink(run.checkpoint())
            count += 1
            if events is not None:
                events.emit("checkpoint", "progress", run.workload,
                            extra={"at_ps": boundary, "count": count})
    if events is not None:
        events.emit("checkpoint", "finish", run.workload,
                    extra={"at_ps": run.now, "count": count})
    return count
