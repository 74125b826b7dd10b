"""The structured event log: round-trip, validation, sink atomicity,
torn-line tolerance."""

import json
import os

import pytest

from repro.monitor.events import (
    EVENT_ACTIONS,
    EVENT_KINDS,
    EVENT_SCHEMA,
    Event,
    EventSink,
    events_path,
    read_events,
    validate_event_dict,
)

# ---------------------------------------------------------- the Event


def test_round_trip_is_exact():
    events = [
        Event(kind="run", action="start", name="table5",
              elapsed_s=0.0, t_wall=100.5),
        Event(kind="task", action="retry", name="t1", elapsed_s=1.25,
              t_wall=101.0, attempt=2,
              extra={"reason": "worker killed by signal SIGKILL"}),
        Event(kind="sweep", action="finish", name="sweep",
              elapsed_s=9.5, t_wall=110.0,
              extra={"done": 5, "failed": 0}),
        Event(kind="checkpoint", action="progress", name="overload",
              elapsed_s=2.0, t_wall=102.0,
              extra={"at_ps": 2_000_000, "count": 1}),
        Event(kind="bench", action="finish", name="bench_monitor",
              elapsed_s=3.0, t_wall=103.0, scenario="table5",
              engine="fast", seed=7),
    ]
    for event in events:
        assert Event.from_dict(event.to_dict()) == event


def test_to_dict_omits_absent_optionals():
    d = Event(kind="run", action="start", name="x",
              elapsed_s=0.0, t_wall=1.0).to_dict()
    assert d == {"schema": EVENT_SCHEMA, "kind": "run",
                 "action": "start", "name": "x", "elapsed_s": 0.0,
                 "t_wall": 1.0}
    assert "attempt" not in d and "extra" not in d


def test_unknown_kind_and_action_rejected_at_construction():
    with pytest.raises(ValueError, match="kind"):
        Event(kind="nope", action="start", name="x",
              elapsed_s=0.0, t_wall=0.0)
    with pytest.raises(ValueError, match="action"):
        Event(kind="run", action="explode", name="x",
              elapsed_s=0.0, t_wall=0.0)


def test_validate_event_dict_names_every_problem():
    good = Event(kind="task", action="start", name="t0",
                 elapsed_s=1.0, t_wall=2.0, attempt=1).to_dict()
    assert validate_event_dict(good) == []

    bad = {"schema": 99, "kind": "martian", "action": "explode",
           "name": 7, "elapsed_s": -1.0, "attempt": "two",
           "extra": "not-an-object"}
    problems = "; ".join(validate_event_dict(bad))
    for fragment in ("schema", "kind", "action", "name", "elapsed_s",
                     "t_wall", "attempt", "extra"):
        assert fragment in problems

    assert validate_event_dict("not a mapping") \
        == ["event is not an object"]


def test_from_dict_rejects_invalid_documents():
    with pytest.raises(ValueError, match="invalid event document"):
        Event.from_dict({"kind": "run"})


def test_kind_and_action_vocabularies_are_frozen():
    assert EVENT_KINDS == ("run", "sweep", "task", "checkpoint", "bench")
    assert EVENT_ACTIONS == ("start", "progress", "retry", "finish",
                             "fail")


# ----------------------------------------------------------- the sink


def test_sink_appends_one_line_per_event(tmp_path):
    path = events_path(str(tmp_path))
    with EventSink(path) as sink:
        first = sink.emit("run", "start", "table5", scenario="table5",
                          engine="fast", seed=3)
        sink.emit("run", "finish", "table5",
                  extra={"wall_clock_s": 0.25})
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["action"] == "start"

    events = read_events(path)
    assert [e.action for e in events] == ["start", "finish"]
    assert events[0] == first
    assert events[1].elapsed_s >= events[0].elapsed_s >= 0.0


def test_sink_appends_across_instances(tmp_path):
    """Two sinks on one path (the pool parent + a worker) append,
    never truncate."""
    path = str(tmp_path / "events.jsonl")
    with EventSink(path) as sink:
        sink.emit("sweep", "start", "sweep")
    with EventSink(path) as sink:
        sink.emit("sweep", "finish", "sweep")
    assert [e.action for e in read_events(path)] == ["start", "finish"]


def test_closed_sink_refuses_appends(tmp_path):
    sink = EventSink(str(tmp_path / "events.jsonl"))
    sink.close()
    with pytest.raises(ValueError, match="closed"):
        sink.emit("run", "start", "x")
    sink.close()  # idempotent


def test_torn_final_line_is_dropped(tmp_path):
    path = str(tmp_path / "events.jsonl")
    with EventSink(path) as sink:
        sink.emit("run", "start", "a")
        sink.emit("run", "finish", "a")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"schema": 1, "kind": "run", "act')   # writer died here
    events = read_events(path)
    assert [e.action for e in events] == ["start", "finish"]
    with pytest.raises(ValueError, match="invalid event line"):
        read_events(path, strict=True)


def test_torn_middle_line_raises(tmp_path):
    path = str(tmp_path / "events.jsonl")
    good = Event(kind="run", action="start", name="a",
                 elapsed_s=0.0, t_wall=1.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"torn\n')
        fh.write(json.dumps(good.to_dict()) + "\n")
    with pytest.raises(ValueError, match=":1: invalid event line"):
        read_events(path)


def test_events_path_is_canonical(tmp_path):
    assert events_path(str(tmp_path)) \
        == os.path.join(str(tmp_path), "events.jsonl")
