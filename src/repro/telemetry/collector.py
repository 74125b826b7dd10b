"""The standard MMS probe and its typed, JSON-round-tripping snapshot.

:class:`MmsTelemetry` consumes the two probe channels
(:class:`~repro.telemetry.probe.Probe`) and aggregates:

* **latency histograms** -- one :class:`Log2Histogram` per
  ``<class>.<component>`` key, where the class is ``enqueue`` /
  ``dequeue`` / ``other`` (by command type) plus the ``all`` aggregate,
  and the components are ``e2e`` (true submit-to-completion cycles) and
  ``fifo`` (FIFO wait cycles) -- the distributions behind the paper's
  Table 5 means;
* **occupancy series** -- the aggregate buffer occupancy sampled every
  ``sample_every`` dispatched commands (peaks tracked at *every*
  command), plus per-queue occupancy peaks;
* **throughput/drop counters** -- per-opcode dispatch counts and
  policy-drop counts keyed by the
  :class:`~repro.policies.base.DropRecord` reason the policy attached
  to the rejected arrival.

Everything is a deterministic fold over the probe streams, so the
snapshot of a ``fast``-engine run is byte-identical to the
``reference`` run's (the engine-identity contract of
``tests/engines``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from repro.core.commands import CommandType
from repro.policies.base import DroppedSegment
from repro.telemetry.histogram import Log2Histogram
from repro.telemetry.probe import (
    REC_E2E,
    REC_FIFO,
    REC_OP,
    CompletionRecord,
    Probe,
    TelemetrySpec,
)

#: Schema version of the serialized telemetry payload.
TELEMETRY_SCHEMA = 1

#: Histogram key classes by command type (everything else: "other").
_CLASS_OF = {
    CommandType.ENQUEUE: "enqueue",
    CommandType.DEQUEUE: "dequeue",
}

#: Latency components recorded per class.
_COMPONENTS = ("e2e", "fifo")


class MmsTelemetry(Probe):
    """The standard telemetry probe (see module docstring)."""

    def __init__(self, spec: TelemetrySpec = TelemetrySpec()) -> None:
        self.spec = spec
        self.histograms: Dict[str, Log2Histogram] = {}
        # per-opcode shortcut to the four histograms a record feeds
        # (built on first sight of each opcode; keeps the per-record
        # path free of string formatting and key hashing)
        self._routes: Dict[CommandType, tuple] = {}
        # counters channel
        self.commands = 0
        self.by_op: Dict[str, int] = {}
        self.dropped_commands = 0
        self.drops_by_reason: Dict[str, int] = {}
        # occupancy channel
        self.series: List[Tuple[int, int]] = []
        self.peak_total = 0
        self.peak_time_ps = -1
        self.final_total = 0
        self.queue_peaks: Dict[int, int] = {}

    # ------------------------------------------------------ probe channel

    def on_command(self, time_ps: int, op: CommandType, flow: int,
                   result: object, queue_depth: int,
                   total_segments: int) -> None:
        n = self.commands
        self.commands = n + 1
        key = op.value
        self.by_op[key] = self.by_op.get(key, 0) + 1
        if isinstance(result, DroppedSegment):
            self.dropped_commands += 1
            reason = result.reason
            self.drops_by_reason[reason] = \
                self.drops_by_reason.get(reason, 0) + 1
        if n % self.spec.sample_every == 0:
            self.series.append((time_ps, total_segments))
        if total_segments > self.peak_total:
            self.peak_total = total_segments
            self.peak_time_ps = time_ps
        self.final_total = total_segments
        if queue_depth > self.queue_peaks.get(flow, -1):
            self.queue_peaks[flow] = queue_depth

    def on_record(self, record: CompletionRecord) -> None:
        op = record[REC_OP]
        route = self._routes.get(op)
        if route is None:
            route = self._routes[op] = self._make_route(op)
        cls_e2e, cls_fifo, all_e2e, all_fifo = route
        end_to_end_cycles = record[REC_E2E]
        fifo_cycles = record[REC_FIFO]
        cls_e2e.add(end_to_end_cycles)
        all_e2e.add(end_to_end_cycles)
        cls_fifo.add(fifo_cycles)
        all_fifo.add(fifo_cycles)

    def _make_route(self, op: CommandType) -> tuple:
        cls = _CLASS_OF.get(op, "other")
        hists = self.histograms
        return tuple(
            hists.setdefault(f"{label}.{component}", Log2Histogram())
            for label in (cls, "all") for component in _COMPONENTS)

    # ------------------------------------------------- snapshot/restore

    def state_dict(self) -> Dict[str, Any]:
        """Exact JSON-serializable snapshot of the fold state.

        Unlike :meth:`snapshot` (the *published* summary, which rounds
        nothing but fixes the percentile set), this captures everything
        needed to *continue* the fold mid-run: restoring it into a
        fresh probe of the same :class:`TelemetrySpec` and feeding the
        remaining probe stream yields a byte-identical final snapshot
        (the :mod:`repro.checkpoint` resume-identity contract).
        """
        return {
            "sample_every": self.spec.sample_every,
            "commands": self.commands,
            "by_op": dict(self.by_op),
            "dropped_commands": self.dropped_commands,
            "drops_by_reason": dict(self.drops_by_reason),
            "series": [[t, v] for t, v in self.series],
            "peak_total": self.peak_total,
            "peak_time_ps": self.peak_time_ps,
            "final_total": self.final_total,
            "queue_peaks": {str(q): v for q, v in self.queue_peaks.items()},
            "histograms": {k: self.histograms[k].to_dict()
                           for k in sorted(self.histograms)},
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore :meth:`state_dict` output (see its contract)."""
        if state["sample_every"] != self.spec.sample_every:
            raise ValueError(
                f"telemetry state was folded with sample_every="
                f"{state['sample_every']}, this probe uses "
                f"{self.spec.sample_every}")
        self.commands = state["commands"]
        self.by_op = dict(state["by_op"])
        self.dropped_commands = state["dropped_commands"]
        self.drops_by_reason = dict(state["drops_by_reason"])
        self.series = [(t, v) for t, v in state["series"]]
        self.peak_total = state["peak_total"]
        self.peak_time_ps = state["peak_time_ps"]
        self.final_total = state["final_total"]
        self.queue_peaks = {int(q): v
                            for q, v in state["queue_peaks"].items()}
        self.histograms = {k: Log2Histogram.from_dict(h)
                           for k, h in state["histograms"].items()}
        # the route cache holds direct references into the replaced
        # histogram dict; drop it so _make_route reconnects lazily
        self._routes = {}

    # ----------------------------------------------------------- snapshot

    def snapshot(self) -> "TelemetrySnapshot":
        return TelemetrySnapshot(
            schema=TELEMETRY_SCHEMA,
            counters={
                "commands": self.commands,
                "by_op": {k: self.by_op[k] for k in sorted(self.by_op)},
                "dropped_commands": self.dropped_commands,
                "drops_by_reason": {k: self.drops_by_reason[k]
                                    for k in sorted(self.drops_by_reason)},
            },
            histograms={k: self.histograms[k].to_dict(self.spec.percentiles)
                        for k in sorted(self.histograms)},
            occupancy={
                "sample_every": self.spec.sample_every,
                "series": [[t, v] for t, v in self.series],
                "peak_total": self.peak_total,
                "peak_time_ps": self.peak_time_ps,
                "final_total": self.final_total,
                "queue_peaks": {str(q): self.queue_peaks[q]
                                for q in sorted(self.queue_peaks)},
            },
        )


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Typed, immutable view of one telemetry fold.

    ``to_dict`` / ``from_dict`` round-trip exactly (floats included --
    JSON preserves Python float reprs), so a snapshot can travel inside
    :attr:`~repro.scenarios.RunResult.metrics` and be compared
    byte-for-byte across engines.
    """

    schema: int
    counters: Dict[str, Any]
    histograms: Dict[str, Any]
    occupancy: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "counters": self.counters,
            "histograms": self.histograms,
            "occupancy": self.occupancy,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TelemetrySnapshot":
        problems = validate_telemetry_dict(d)
        if problems:
            raise ValueError("invalid telemetry payload: "
                             + "; ".join(problems))
        return cls(schema=d["schema"],
                   counters=dict(d["counters"]),
                   histograms={k: dict(v)
                               for k, v in d["histograms"].items()},
                   occupancy=dict(d["occupancy"]))

    # -------------------------------------------------------- convenience

    def percentile(self, histogram: str, p: float) -> float:
        """Recompute a percentile from the serialized buckets (matches
        the stored summary for the spec's percentiles)."""
        return Log2Histogram.from_dict(
            self.histograms[histogram]).percentile(p)


def validate_telemetry_dict(d: Mapping[str, Any]) -> List[str]:
    """Schema check of one serialized telemetry payload (list of
    human-readable problems; empty = valid).  Dependency-free, like
    :func:`repro.scenarios.validate_result_dict`."""
    problems: List[str] = []
    if not isinstance(d, Mapping):
        return ["telemetry payload is not an object"]
    if d.get("schema") != TELEMETRY_SCHEMA:
        problems.append(f"schema {d.get('schema')!r} != {TELEMETRY_SCHEMA}")
    for key in ("counters", "histograms", "occupancy"):
        if not isinstance(d.get(key), Mapping):
            problems.append(f"{key!r} missing or not an object")
    if isinstance(d.get("histograms"), Mapping):
        for name, h in d["histograms"].items():
            if not isinstance(h, Mapping):
                problems.append(f"histograms[{name!r}] malformed")
                continue
            for key, types in (("count", int), ("sum", (int, float)),
                               ("min", (int, float)), ("max", (int, float)),
                               ("buckets", Mapping)):
                if not isinstance(h.get(key), types):
                    problems.append(f"histograms[{name!r}].{key} malformed")
            if isinstance(h.get("buckets"), Mapping):
                total = 0
                for b, n in h["buckets"].items():
                    if not str(b).isdigit() or not isinstance(n, int):
                        problems.append(
                            f"histograms[{name!r}].buckets[{b!r}] malformed")
                    else:
                        total += n
                if isinstance(h.get("count"), int) and total != h["count"]:
                    problems.append(
                        f"histograms[{name!r}] bucket counts != count")
    occ = d.get("occupancy")
    if isinstance(occ, Mapping):
        for key, types in (("sample_every", int), ("series", list),
                           ("peak_total", int), ("peak_time_ps", int),
                           ("final_total", int), ("queue_peaks", Mapping)):
            if not isinstance(occ.get(key), types):
                problems.append(f"occupancy.{key} malformed")
        if isinstance(occ.get("series"), list):
            for i, pair in enumerate(occ["series"]):
                if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                        or not all(isinstance(x, int) for x in pair)):
                    problems.append(f"occupancy.series[{i}] malformed")
                    break
    return problems
