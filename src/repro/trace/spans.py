"""The span tracer: per-packet lifecycle stages as a deterministic fold.

:class:`TraceCollector` folds both probe channels: the stage bounds of
every completion record (:meth:`~repro.telemetry.probe.Probe.on_record`)
and the verdict and occupancy of every dispatch (``on_command``),
joined on the dispatch sequence number.  It records one span per
lifecycle stage of every command:

* ``fifo``    -- port submit to DQM pop (the reassembly/staging wait),
* ``execute`` -- the DQM's serial pointer-manipulation schedule,
* ``data``    -- DMC submit to DDR completion (absent for pointer-only
  and policy-dropped commands).

Spans carry the dispatch sequence number, the ``(time_ps, seq)`` bounds,
opcode, flow, post-dispatch queue occupancy and the policy verdict --
everything needed to localize where two runs first diverge
(:mod:`repro.trace.diff`) and where the time went
(:mod:`repro.trace.report`).  Alongside the spans the collector folds
per-component cycle attribution (FIFO vs DQM vs DMC+DDR share of total
time) as exact integer picosecond sums, independent of span retention.

Everything is a deterministic fold over the probe streams, so the
snapshot of a ``fast``-engine run is byte-identical to the
``reference`` run's -- the same identity contract as
:mod:`repro.telemetry`, extended to stage bounds by ``tests/trace``.

This module is a probe-layer leaf (see ``repro-lint.toml`` R2): it may
import only the probe protocol and the shared command vocabulary, never
policies or engines -- drop verdicts are read structurally off the
functional result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping

from repro.core.commands import CommandType
from repro.telemetry.probe import REC_FIFO, CompletionRecord, Probe

#: Schema version of the serialized trace payload.
TRACE_SCHEMA = 1

#: Stage names in within-command order (span sort key).
STAGES = ("fifo", "execute", "data")


@dataclass(frozen=True)
class TraceSpec:
    """Declarative tracing configuration (scenario-spec payload).

    Carried by :class:`~repro.scenarios.ScenarioSpec.trace`; its
    presence enables the span tracer for a run.
    """

    #: Retain spans for at most this many dispatched commands
    #: (0 = unlimited).  Attribution and counters keep folding past the
    #: cap; only the retained span list is bounded.
    max_spans: int = 0

    def __post_init__(self) -> None:
        if self.max_spans < 0:
            raise ValueError(
                f"max_spans must be >= 0, got {self.max_spans}")


class TraceCollector(Probe):
    """The standard span tracer (see module docstring)."""

    def __init__(self, spec: TraceSpec = TraceSpec()) -> None:
        self.spec = spec
        # dispatch channel: row per on_command call, indexed by dispatch
        # seq (the DQM is serial: the n-th dispatch is seq n)
        self._commands: List[list] = []
        self.dispatched = 0
        self.by_op: Dict[str, int] = {}
        self.dropped_commands = 0
        self.drops_by_reason: Dict[str, int] = {}
        # record channel: row per completion record, in delivery order
        self._stages: List[list] = []
        self.completed = 0
        self.truncated_commands = 0
        self.truncated_spans = 0
        # exact integer attribution sums (ps); never truncated
        self.fifo_ps = 0
        self.dqm_ps = 0
        self.dmc_ddr_ps = 0
        self.total_ps = 0

    # ------------------------------------------------------ probe channel

    def on_command(self, time_ps: int, op: CommandType, flow: int,
                   result: object, queue_depth: int,
                   total_segments: int) -> None:
        self.dispatched += 1
        key = op.value
        self.by_op[key] = self.by_op.get(key, 0) + 1
        # structural drop detection: only a rejected enqueue's
        # DroppedSegment result carries a `reason` (this module must not
        # import the policy layer)
        reason = getattr(result, "reason", None)
        if reason is not None:
            self.dropped_commands += 1
            self.drops_by_reason[reason] = \
                self.drops_by_reason.get(reason, 0) + 1
        cap = self.spec.max_spans
        if cap and len(self._commands) >= cap:
            self.truncated_commands += 1
            return
        verdict = "accept" if reason is None else f"drop:{reason}"
        self._commands.append([verdict, queue_depth, total_segments])

    def on_record(self, record: CompletionRecord) -> None:
        (time_ps, seq, op, flow, submit_ps, start_ps, end_ps,
         data_submit_ps, data_done_ps) = record[:REC_FIFO]
        self.completed += 1
        if submit_ps >= 0:
            self.fifo_ps += start_ps - submit_ps
        self.dqm_ps += end_ps - start_ps
        completion = end_ps
        if data_submit_ps >= 0:
            self.dmc_ddr_ps += data_done_ps - data_submit_ps
            if data_done_ps > completion:
                completion = data_done_ps
        base = submit_ps if submit_ps >= 0 else start_ps
        self.total_ps += completion - base
        cap = self.spec.max_spans
        if cap and seq >= cap:
            self.truncated_spans += 1
            return
        self._stages.append([time_ps, seq, op.value, flow, submit_ps,
                             start_ps, end_ps, data_submit_ps,
                             data_done_ps])

    # ------------------------------------------------- snapshot/restore

    def state_dict(self) -> Dict[str, Any]:
        """Exact JSON-serializable snapshot of the fold state.

        Restoring it into a fresh collector of the same
        :class:`TraceSpec` and feeding the remaining probe streams
        yields a byte-identical final snapshot (the
        :mod:`repro.checkpoint` resume-identity contract).
        """
        return {
            "max_spans": self.spec.max_spans,
            "commands": [list(row) for row in self._commands],
            "dispatched": self.dispatched,
            "by_op": dict(self.by_op),
            "dropped_commands": self.dropped_commands,
            "drops_by_reason": dict(self.drops_by_reason),
            "stages": [list(row) for row in self._stages],
            "completed": self.completed,
            "truncated_commands": self.truncated_commands,
            "truncated_spans": self.truncated_spans,
            "fifo_ps": self.fifo_ps,
            "dqm_ps": self.dqm_ps,
            "dmc_ddr_ps": self.dmc_ddr_ps,
            "total_ps": self.total_ps,
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore :meth:`state_dict` output (see its contract)."""
        if state["max_spans"] != self.spec.max_spans:
            raise ValueError(
                f"trace state was folded with max_spans="
                f"{state['max_spans']}, this collector uses "
                f"{self.spec.max_spans}")
        self._commands = [list(row) for row in state["commands"]]
        self.dispatched = state["dispatched"]
        self.by_op = dict(state["by_op"])
        self.dropped_commands = state["dropped_commands"]
        self.drops_by_reason = dict(state["drops_by_reason"])
        self._stages = [list(row) for row in state["stages"]]
        self.completed = state["completed"]
        self.truncated_commands = state["truncated_commands"]
        self.truncated_spans = state["truncated_spans"]
        self.fifo_ps = state["fifo_ps"]
        self.dqm_ps = state["dqm_ps"]
        self.dmc_ddr_ps = state["dmc_ddr_ps"]
        self.total_ps = state["total_ps"]

    # ----------------------------------------------------------- snapshot

    def snapshot(self) -> "TraceSnapshot":
        spans: List[Dict[str, Any]] = []
        for (record_ps, seq, op, flow, submit, start, end,
             data_submit, data_done) in sorted(
                 self._stages, key=lambda row: row[1]):
            if seq < len(self._commands):
                verdict, queue_depth, total_segments = self._commands[seq]
            else:  # channel lengths can differ only under truncation
                verdict, queue_depth, total_segments = None, -1, -1
            common = {
                "seq": seq,
                "op": op,
                "flow": flow,
                "verdict": verdict,
                "queue_depth": queue_depth,
                "total_segments": total_segments,
                "record_ps": record_ps,
            }
            if submit >= 0:
                spans.append({"id": f"{seq}/fifo", "stage": "fifo",
                              "begin_ps": submit, "end_ps": start,
                              **common})
            spans.append({"id": f"{seq}/execute", "stage": "execute",
                          "begin_ps": start, "end_ps": end, **common})
            if data_submit >= 0:
                spans.append({"id": f"{seq}/data", "stage": "data",
                              "begin_ps": data_submit, "end_ps": data_done,
                              **common})
        total = self.total_ps
        return TraceSnapshot(
            schema=TRACE_SCHEMA,
            counters={
                "dispatched": self.dispatched,
                "completed": self.completed,
                "by_op": {k: self.by_op[k] for k in sorted(self.by_op)},
                "dropped_commands": self.dropped_commands,
                "drops_by_reason": {k: self.drops_by_reason[k]
                                    for k in sorted(self.drops_by_reason)},
                "spans": len(spans),
                "truncated_commands": self.truncated_commands,
                "truncated_spans": self.truncated_spans,
            },
            attribution={
                "fifo_ps": self.fifo_ps,
                "dqm_ps": self.dqm_ps,
                "dmc_ddr_ps": self.dmc_ddr_ps,
                "total_ps": total,
                "shares": {
                    "fifo": self.fifo_ps / total if total else 0.0,
                    "dqm": self.dqm_ps / total if total else 0.0,
                    "dmc_ddr": self.dmc_ddr_ps / total if total else 0.0,
                },
            },
            spans=spans,
        )


@dataclass(frozen=True)
class TraceSnapshot:
    """Typed, immutable view of one trace fold.

    ``to_dict`` / ``from_dict`` round-trip exactly (the share floats
    included -- JSON preserves Python float reprs), so a snapshot can
    travel inside :attr:`~repro.scenarios.RunResult.metrics` and be
    compared byte-for-byte across engines.  The payload deliberately
    carries no engine label or wall-clock field -- byte identity *is*
    the contract.
    """

    schema: int
    counters: Dict[str, Any]
    attribution: Dict[str, Any]
    spans: List[Dict[str, Any]]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "counters": self.counters,
            "attribution": self.attribution,
            "spans": self.spans,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TraceSnapshot":
        problems = validate_trace_dict(d)
        if problems:
            raise ValueError("invalid trace payload: "
                             + "; ".join(problems))
        return cls(schema=d["schema"],
                   counters=dict(d["counters"]),
                   attribution=dict(d["attribution"]),
                   spans=[dict(s) for s in d["spans"]])


#: Per-span fields every serialized span must carry (value type check).
_SPAN_FIELDS = (
    ("id", str), ("stage", str), ("seq", int), ("op", str), ("flow", int),
    ("begin_ps", int), ("end_ps", int), ("record_ps", int),
    ("queue_depth", int), ("total_segments", int),
)


def validate_trace_dict(d: Mapping[str, Any]) -> List[str]:
    """Schema check of one serialized trace payload (list of
    human-readable problems; empty = valid).  Dependency-free, like
    :func:`repro.telemetry.validate_telemetry_dict`."""
    problems: List[str] = []
    if not isinstance(d, Mapping):
        return ["trace payload is not an object"]
    if d.get("schema") != TRACE_SCHEMA:
        problems.append(f"schema {d.get('schema')!r} != {TRACE_SCHEMA}")
    for key in ("counters", "attribution"):
        if not isinstance(d.get(key), Mapping):
            problems.append(f"{key!r} missing or not an object")
    if not isinstance(d.get("spans"), list):
        problems.append("'spans' missing or not a list")
        return problems
    counters = d.get("counters")
    if isinstance(counters, Mapping):
        for key in ("dispatched", "completed", "dropped_commands",
                    "spans", "truncated_commands", "truncated_spans"):
            if not isinstance(counters.get(key), int):
                problems.append(f"counters.{key} malformed")
        for key in ("by_op", "drops_by_reason"):
            if not isinstance(counters.get(key), Mapping):
                problems.append(f"counters.{key} malformed")
        if isinstance(counters.get("spans"), int) \
                and counters["spans"] != len(d["spans"]):
            problems.append("counters.spans != len(spans)")
    attribution = d.get("attribution")
    if isinstance(attribution, Mapping):
        for key in ("fifo_ps", "dqm_ps", "dmc_ddr_ps", "total_ps"):
            if not isinstance(attribution.get(key), int):
                problems.append(f"attribution.{key} malformed")
        shares = attribution.get("shares")
        if not isinstance(shares, Mapping):
            problems.append("attribution.shares malformed")
        else:
            for key in ("fifo", "dqm", "dmc_ddr"):
                if not isinstance(shares.get(key), (int, float)):
                    problems.append(f"attribution.shares.{key} malformed")
    for i, span in enumerate(d["spans"]):
        if not isinstance(span, Mapping):
            problems.append(f"spans[{i}] is not an object")
            break
        bad = [key for key, types in _SPAN_FIELDS
               if not isinstance(span.get(key), types)]
        if bad:
            problems.append(f"spans[{i}] malformed fields: {bad}")
            break
        if span["stage"] not in STAGES:
            problems.append(f"spans[{i}].stage {span['stage']!r} unknown")
            break
    return problems
