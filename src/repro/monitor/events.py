"""Structured run-event log: append-only JSONL of lifecycle events.

Every fleet-level actor -- the :class:`~repro.scenarios.runner.Runner`,
the fault-tolerant sweep pool (:mod:`repro.checkpoint.pool`),
``checkpoint-run`` (:mod:`repro.checkpoint.runs`) and the benchmark
driver (``benchmarks/run_benchmarks.py``) -- reports its lifecycle
through one :class:`EventSink`: typed :class:`Event` records appended
as single JSON lines to ``events.jsonl``.  The format is the
operational substrate the ``watch`` / ``sweep-status`` CLI and the
future ``repro.serve`` daemon read.

Design constraints, in order:

* **line-atomic appends** -- the sink writes each event as one line
  through :class:`~repro.checkpoint.atomic.JsonlAppender` (one
  ``os.write`` on an ``O_APPEND`` descriptor), so concurrent writers
  (pool parent + worker processes sharing one file) never interleave
  within a line and a reader never parses a half-written record beyond
  the final line of a crashed run (:func:`read_events` tolerates
  exactly that);
* **structurally absent when disabled** -- nothing constructs a sink
  unless monitoring is on: no sink, no event objects, no clock reads,
  no import of this module from any hot path (the bench_monitor gate
  asserts this);
* **exact round-trip** -- ``Event.from_dict(e.to_dict()) == e`` for
  every event, and :func:`validate_event_dict` names every problem in
  a foreign document instead of deserializing garbage.

Events carry both a monotonic ``elapsed_s`` (relative to the sink's
creation, immune to wall-clock steps) and a wall ``t_wall`` timestamp
(what a *different* process -- the live ``watch`` table -- needs to
compute "how long has this task been running").
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.checkpoint.atomic import JsonlAppender, read_jsonl

#: Schema version of one serialized event line.
EVENT_SCHEMA = 1

#: What the event is about.
EVENT_KINDS: Tuple[str, ...] = ("run", "sweep", "task", "checkpoint",
                                "bench")

#: Lifecycle transitions an event can report.
EVENT_ACTIONS: Tuple[str, ...] = ("start", "progress", "retry", "finish",
                                  "fail")

#: Canonical event-log filename inside a journal directory.
EVENTS_FILENAME = "events.jsonl"


def events_path(journal_dir: str) -> str:
    """The canonical event-log path for a journal directory."""
    return os.path.join(journal_dir, EVENTS_FILENAME)


@dataclass(frozen=True)
class Event:
    """One lifecycle event (see module docstring for the format)."""

    kind: str
    action: str
    name: str
    elapsed_s: float
    t_wall: float
    attempt: Optional[int] = None
    scenario: Optional[str] = None
    engine: Optional[str] = None
    seed: Optional[int] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r} "
                f"(choose from {EVENT_KINDS})")
        if self.action not in EVENT_ACTIONS:
            raise ValueError(
                f"unknown event action {self.action!r} "
                f"(choose from {EVENT_ACTIONS})")

    # ------------------------------------------------------ serialization

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "schema": EVENT_SCHEMA,
            "kind": self.kind,
            "action": self.action,
            "name": self.name,
            "elapsed_s": self.elapsed_s,
            "t_wall": self.t_wall,
        }
        for key in ("attempt", "scenario", "engine", "seed"):
            value = getattr(self, key)
            if value is not None:
                d[key] = value
        if self.extra:
            d["extra"] = self.extra
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Event":
        problems = validate_event_dict(d)
        if problems:
            raise ValueError(
                f"invalid event document: {'; '.join(problems)}")
        return cls(
            kind=d["kind"],
            action=d["action"],
            name=d["name"],
            elapsed_s=d["elapsed_s"],
            t_wall=d["t_wall"],
            attempt=d.get("attempt"),
            scenario=d.get("scenario"),
            engine=d.get("engine"),
            seed=d.get("seed"),
            extra=dict(d.get("extra", {})),
        )


def validate_event_dict(d: Mapping[str, Any]) -> List[str]:
    """Schema check of one serialized :class:`Event`.

    Returns human-readable problems (empty = valid); dependency-free
    like every validator in this repo.
    """
    problems: List[str] = []
    if not isinstance(d, Mapping):
        return ["event is not an object"]
    if d.get("schema") != EVENT_SCHEMA:
        problems.append(f"schema {d.get('schema')!r} != {EVENT_SCHEMA}")
    for key in ("kind", "action", "name"):
        if not isinstance(d.get(key), str):
            problems.append(f"{key!r} missing or not a string")
    if isinstance(d.get("kind"), str) and d["kind"] not in EVENT_KINDS:
        problems.append(f"kind {d['kind']!r} invalid")
    if isinstance(d.get("action"), str) \
            and d["action"] not in EVENT_ACTIONS:
        problems.append(f"action {d['action']!r} invalid")
    for key in ("elapsed_s", "t_wall"):
        value = d.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{key!r} missing or not a number")
        elif value < 0:
            problems.append(f"{key!r} is negative")
    for key in ("attempt", "seed"):
        if key in d and (not isinstance(d[key], int)
                         or isinstance(d[key], bool)):
            problems.append(f"{key!r} not an integer")
    if "attempt" in d and isinstance(d["attempt"], int) \
            and not isinstance(d["attempt"], bool) and d["attempt"] < 0:
        problems.append("'attempt' is negative")
    for key in ("scenario", "engine"):
        if key in d and not isinstance(d[key], str):
            problems.append(f"{key!r} not a string")
    if "extra" in d and not isinstance(d["extra"], Mapping):
        problems.append("'extra' not an object")
    return problems


class EventSink:
    """Append-only JSONL event writer (one per journal directory).

    Safe for several processes to hold sinks on the same path: each
    event is one line written through
    :class:`~repro.checkpoint.atomic.JsonlAppender`, so lines never
    interleave.  ``elapsed_s`` is monotonic time since *this* sink was
    created, so the pool parent (which owns the sweep clock) and
    short-lived workers report comparable timelines via ``t_wall``.
    """

    def __init__(self, path: str,
                 _t0: Optional[float] = None) -> None:
        self._out = JsonlAppender(path)
        self.path = self._out.path
        self._t0 = time.monotonic() if _t0 is None else _t0

    # ------------------------------------------------------------ emit

    def elapsed_s(self) -> float:
        """Monotonic seconds since this sink was created."""
        return round(time.monotonic() - self._t0, 6)

    def emit(self, kind: str, action: str, name: str, *,
             attempt: Optional[int] = None,
             scenario: Optional[str] = None,
             engine: Optional[str] = None,
             seed: Optional[int] = None,
             extra: Optional[Dict[str, Any]] = None) -> Event:
        """Build, stamp and append one event; returns it."""
        event = Event(kind=kind, action=action, name=name,
                      elapsed_s=self.elapsed_s(),
                      t_wall=round(time.time(), 6),
                      attempt=attempt, scenario=scenario, engine=engine,
                      seed=seed, extra=dict(extra) if extra else {})
        self.append(event)
        return event

    def append(self, event: Event) -> None:
        """Append an already-built event as one atomic line."""
        self._out.append(event.to_dict())

    def close(self) -> None:
        self._out.close()

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


def read_events(path: str, strict: bool = False) -> List[Event]:
    """Parse an ``events.jsonl`` file.

    A torn *final* line (a writer crashed mid-append) is silently
    dropped; a torn or invalid line anywhere else -- which line-atomic
    appends should make impossible -- raises, or every problem raises
    immediately under ``strict``.
    """
    return read_jsonl(path, Event.from_dict, strict, "event")
