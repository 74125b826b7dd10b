"""Incremental telemetry frame publication for in-flight runs.

The serving daemon (:mod:`repro.serve`) streams observability *while a
run executes*: its worker processes activate a :class:`FramePublisher`
before running a scenario, and the scenario's probe chain
(:func:`repro.scenarios.catalog._probes`) picks the active publisher up
as one extra :class:`PublishingProbe` riding behind the telemetry
collector.  Every ``publish_every`` dispatched commands the probe
appends one *frame* -- a progress snapshot of the live
:class:`~repro.telemetry.MmsTelemetry` fold -- as a single JSON line to
the run's ``frames.jsonl``; when the run finishes, the worker appends a
terminal ``done`` frame carrying the final telemetry payload
byte-identical to ``RunResult.metrics["telemetry"]``.

Design constraints, mirroring :mod:`repro.monitor.events`:

* **line-atomic appends** -- each frame is one line written through
  :class:`~repro.checkpoint.atomic.JsonlAppender` (one ``os.write`` on
  an ``O_APPEND`` descriptor), so a reader tailing the file never sees
  a torn frame beyond the final line of a crashed worker
  (:func:`read_frames` tolerates exactly that, and the stream endpoint
  only forwards complete lines);
* **replay-deterministic ordering** -- frames are keyed by the
  dispatched-command count, never a clock: re-running the same spec
  publishes the identical frame sequence (per engine -- the stream
  engine replays completion records after its command loop, so *mid-run*
  histogram content is engine-specific; the terminal frame is
  byte-identical across engines, like the telemetry payload itself);
* **structurally absent when disabled** -- nothing publishes unless a
  worker explicitly activated a publisher first: plain runs build the
  exact probe chain they always did, and no publisher means no frame
  objects, no snapshots, no writes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.core.commands import CommandType
from repro.telemetry.collector import MmsTelemetry
from repro.telemetry.probe import Probe

#: Schema version of one serialized frame line.
FRAME_SCHEMA = 1

#: Frame types: periodic progress snapshots and the terminal frame.
FRAME_TYPES = ("progress", "done")

#: Canonical frames filename inside a serve run directory.
FRAMES_FILENAME = "frames.jsonl"

#: Default publication stride (dispatched commands per frame).
DEFAULT_PUBLISH_EVERY = 256


class FramePublisher:
    """Append-only JSONL frame writer for one run.

    The file is truncated at construction: a retried worker starts its
    frame sequence over rather than appending a second, interleaved
    sequence after the first attempt's torn tail.
    """

    def __init__(self, path: str,
                 every: int = DEFAULT_PUBLISH_EVERY) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        # Lazy: the catalog imports this module on every registry build,
        # and plain runs must not pay for loading repro.checkpoint.
        from repro.checkpoint.atomic import JsonlAppender
        self._out = JsonlAppender(path, truncate=True)
        self.path = self._out.path
        self.every = every
        self.frames = 0

    def publish(self, frame: Dict[str, Any]) -> None:
        """Stamp and append one frame as a single atomic line."""
        doc = {"schema": FRAME_SCHEMA, "frame": self.frames}
        doc.update(frame)
        self._out.append(doc)
        self.frames += 1

    def publish_done(self, scenario: str, commands: Optional[int],
                     telemetry: Optional[Mapping[str, Any]]) -> None:
        """The terminal frame: final telemetry (byte-identical to the
        run result's ``metrics["telemetry"]``, or None for runs without
        telemetry) plus the command count."""
        self.publish({"type": "done", "scenario": scenario,
                      "commands": commands,
                      "telemetry": dict(telemetry)
                      if telemetry is not None else None})

    def close(self) -> None:
        self._out.close()

    def __enter__(self) -> "FramePublisher":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


class PublishingProbe(Probe):
    """A probe that periodically publishes the live telemetry fold.

    Chained *after* the telemetry collector (chain order is delivery
    order), so each ``on_command`` observes the collector's post-update
    state.  Frames are keyed by the dispatched-command count -- no
    clocks, so the frame sequence is replay-deterministic.
    """

    def __init__(self, publisher: FramePublisher,
                 telemetry: MmsTelemetry) -> None:
        self.publisher = publisher
        self.telemetry = telemetry
        self._commands = 0

    def on_command(self, time_ps: int, op: CommandType, flow: int,
                   result: object, queue_depth: int,
                   total_segments: int) -> None:
        n = self._commands + 1
        self._commands = n
        if n % self.publisher.every == 0:
            self.publisher.publish({
                "type": "progress",
                "commands": n,
                "time_ps": time_ps,
                "telemetry": self.telemetry.snapshot().to_dict(),
            })


# ------------------------------------------------- process-global slot
#
# The serving worker owns the process (process-per-task pool), so one
# module-global publisher slot is race-free and keeps the scenario
# executors free of any serve-layer dependency: the catalog only asks
# "is a publisher active?" -- a plain attribute read when off.

_ACTIVE: Optional[FramePublisher] = None


def activate(publisher: FramePublisher) -> None:
    """Install ``publisher`` as this process's active frame publisher."""
    global _ACTIVE
    _ACTIVE = publisher


def deactivate() -> None:
    """Clear the active publisher (the worker's ``finally`` duty)."""
    global _ACTIVE
    _ACTIVE = None


def active_probe(telemetry: Optional[MmsTelemetry]
                 ) -> Optional[PublishingProbe]:
    """A :class:`PublishingProbe` bound to the active publisher, or
    None (no publisher active, or the run carries no telemetry
    collector to snapshot)."""
    if _ACTIVE is None or telemetry is None:
        return None
    return PublishingProbe(_ACTIVE, telemetry)


def read_frames(path: str, strict: bool = False) -> List[Dict[str, Any]]:
    """Parse a ``frames.jsonl`` file (complete lines only).

    A torn *final* line (a worker died mid-append) is silently dropped;
    any other malformed line raises -- or every problem raises
    immediately under ``strict``.
    """
    from repro.checkpoint.atomic import read_jsonl
    return read_jsonl(path, _checked_frame, strict, "frame")


def _checked_frame(doc: Any) -> Dict[str, Any]:
    problems = validate_frame_dict(doc)
    if problems:
        raise ValueError("; ".join(problems))
    return doc


def validate_frame_dict(d: Any) -> List[str]:
    """Schema check of one serialized frame (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(d, Mapping):
        return ["frame is not an object"]
    if d.get("schema") != FRAME_SCHEMA:
        problems.append(f"schema {d.get('schema')!r} != {FRAME_SCHEMA}")
    if not isinstance(d.get("frame"), int) or isinstance(d.get("frame"),
                                                         bool):
        problems.append("'frame' missing or not an integer")
    if d.get("type") not in FRAME_TYPES:
        problems.append(f"type {d.get('type')!r} invalid "
                        f"(choose from {FRAME_TYPES})")
    if d.get("type") == "progress":
        if not isinstance(d.get("commands"), int):
            problems.append("'commands' missing or not an integer")
        if not isinstance(d.get("telemetry"), Mapping):
            problems.append("'telemetry' missing or not an object")
    if d.get("type") == "done":
        if not isinstance(d.get("scenario"), str):
            problems.append("'scenario' missing or not a string")
        tele = d.get("telemetry")
        if tele is not None and not isinstance(tele, Mapping):
            problems.append("'telemetry' not an object or null")
    return problems
