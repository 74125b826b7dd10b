"""Sweep progress folding: states, ETA, stragglers, metrics, renders."""

import json

import pytest

from repro.monitor.events import Event, EventSink, events_path
from repro.monitor.metrics import parse_prometheus_text
from repro.monitor.progress import (
    build_registry,
    load_sweep,
    render_status,
    render_timeline,
    render_watch,
    safe_name,
    status_from_events,
)


def _event(kind, action, name, elapsed, t_wall, attempt=None,
           extra=None):
    return Event(kind=kind, action=action, name=name,
                 elapsed_s=elapsed, t_wall=t_wall, attempt=attempt,
                 extra=dict(extra or {}))


def _write(journal, events):
    with EventSink(events_path(str(journal))) as sink:
        for event in events:
            sink.append(event)


def _result_doc(journal, name, scenario="s", seed=1):
    (journal / (safe_name(name) + ".json")).write_text(json.dumps(
        {"scenario": scenario, "engine": "fast", "seed": seed,
         "budget": "fast", "metrics": {}}))


PROFILE = {"schema": 1, "cpu_user_s": 1.0, "cpu_sys_s": 0.5,
           "cpu_s": 1.5, "max_rss_kb": 2048, "wall_s": 2.0}


def test_terminal_states_attempts_and_walls(tmp_path):
    t0 = 1000.0
    _write(tmp_path, [
        _event("sweep", "start", "sweep", 0.0, t0,
               extra={"tasks": 3, "jobs": 2,
                      "names": ["ok", "flaky", "doomed"],
                      "skipped_from_journal": 0}),
        _event("task", "start", "ok", 0.1, t0 + 0.1, attempt=1),
        _event("task", "start", "flaky", 0.1, t0 + 0.1, attempt=1),
        _event("task", "finish", "ok", 2.1, t0 + 2.1, attempt=1,
               extra={"resources": PROFILE}),
        _event("task", "retry", "flaky", 1.1, t0 + 1.1, attempt=1,
               extra={"reason": "worker killed by signal SIGKILL"}),
        _event("task", "start", "doomed", 1.2, t0 + 1.2, attempt=1),
        _event("task", "fail", "doomed", 2.2, t0 + 2.2, attempt=1,
               extra={"reason": "ValueError: boom"}),
        _event("task", "start", "flaky", 2.3, t0 + 2.3, attempt=2),
        _event("task", "finish", "flaky", 4.3, t0 + 4.3, attempt=2),
        _event("sweep", "finish", "sweep", 4.4, t0 + 4.4,
               extra={"done": 2, "failed": 1}),
    ])
    _result_doc(tmp_path, "ok")
    _result_doc(tmp_path, "flaky", seed=2)

    status = load_sweep(str(tmp_path), now_wall=t0 + 5.0)
    assert status.jobs == 2 and status.total == 3
    assert status.finished
    by_name = {t.name: t for t in status.tasks}

    ok = by_name["ok"]
    assert (ok.state, ok.attempts) == ("done", 1)
    assert ok.wall_s == pytest.approx(2.0)
    assert ok.cpu_s == 1.5 and ok.max_rss_kb == 2048

    flaky = by_name["flaky"]
    assert (flaky.state, flaky.attempts) == ("done", 2)
    assert flaky.wall_s == pytest.approx(3.0)   # 1.0s + 2.0s attempts
    assert flaky.retries == [(1, "worker killed by signal SIGKILL")]

    doomed = by_name["doomed"]
    assert (doomed.state, doomed.attempts) == ("failed", 1)
    assert doomed.reason == "ValueError: boom"

    assert status.counts() == {"queued": 0, "running": 0,
                               "retrying": 0, "done": 2, "failed": 1}
    # two distinct (scenario, engine, seed, budget) specs journaled
    assert status.cache_ready_specs == 2
    assert status.eta_s() is None   # everything terminal


def test_live_states_eta_and_stragglers(tmp_path):
    t0 = 2000.0
    _write(tmp_path, [
        _event("sweep", "start", "sweep", 0.0, t0,
               extra={"tasks": 5, "jobs": 1,
                      "names": ["d1", "d2", "slow", "waiting", "again"]}),
        _event("task", "start", "d1", 0.0, t0, attempt=1),
        _event("task", "finish", "d1", 1.0, t0 + 1.0, attempt=1),
        _event("task", "start", "d2", 1.0, t0 + 1.0, attempt=1),
        _event("task", "finish", "d2", 2.0, t0 + 2.0, attempt=1),
        _event("task", "start", "slow", 2.0, t0 + 2.0, attempt=1),
        _event("task", "retry", "again", 2.5, t0 + 2.5, attempt=1,
               extra={"reason": "timeout after 1s"}),
    ])
    status = load_sweep(str(tmp_path), now_wall=t0 + 8.0)
    by_name = {t.name: t for t in status.tasks}
    assert by_name["waiting"].state == "queued"
    assert by_name["again"].state == "retrying"
    slow = by_name["slow"]
    assert slow.state == "running"
    assert slow.wall_s == pytest.approx(6.0)   # live: now - start
    # median done wall is 1.0s; 6s > 2x median -> straggler
    assert slow.straggler
    assert not status.finished
    # 2 pending (queued+retrying) x 1.0s mean + 0 remaining for slow
    assert status.eta_s() == pytest.approx(2.0)


def test_result_documents_override_lost_events(tmp_path):
    """A finish event lost to a crash must not hide a journaled result
    (and an error document marks the task failed)."""
    t0 = 3000.0
    _write(tmp_path, [
        _event("sweep", "start", "sweep", 0.0, t0,
               extra={"tasks": 2, "jobs": 1, "names": ["a", "b"]}),
        _event("task", "start", "a", 0.0, t0, attempt=1),
        _event("task", "start", "b", 0.0, t0, attempt=1),
    ])
    _result_doc(tmp_path, "a")
    (tmp_path / (safe_name("b") + ".json")).write_text(
        json.dumps({"__error__": "ValueError: boom"}))
    status = load_sweep(str(tmp_path), now_wall=t0 + 1.0)
    by_name = {t.name: t for t in status.tasks}
    assert by_name["a"].state == "done"
    assert by_name["b"].state == "failed"
    assert by_name["b"].reason == "ValueError: boom"
    assert status.cache_ready_specs == 1


def test_empty_directory_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="not a monitored journal"):
        load_sweep(str(tmp_path))
    with pytest.raises(ValueError, match="not a directory"):
        load_sweep(str(tmp_path / "absent"))


def test_status_from_bare_events_file(tmp_path):
    path = str(tmp_path / "log.jsonl")
    with EventSink(path) as sink:
        sink.append(_event("task", "start", "x", 0.0, 10.0, attempt=1))
        sink.append(_event("task", "finish", "x", 1.0, 11.0, attempt=1))
    status = status_from_events(path, now_wall=12.0)
    assert [t.state for t in status.tasks] == ["done"]


def test_registry_aggregates_the_sweep(tmp_path):
    t0 = 4000.0
    _write(tmp_path, [
        _event("sweep", "start", "sweep", 0.0, t0,
               extra={"tasks": 2, "jobs": 2, "names": ["a", "b"]}),
        _event("task", "start", "a", 0.0, t0, attempt=1),
        _event("task", "retry", "a", 1.0, t0 + 1.0, attempt=1,
               extra={"reason": "boom"}),
        _event("task", "start", "a", 1.1, t0 + 1.1, attempt=2),
        _event("task", "finish", "a", 2.0, t0 + 2.0, attempt=2,
               extra={"resources": PROFILE}),
        _event("task", "start", "b", 0.0, t0, attempt=1),
    ])
    _result_doc(tmp_path, "a")
    status = load_sweep(str(tmp_path), now_wall=t0 + 3.0)
    registry = build_registry(status)
    values = parse_prometheus_text(registry.to_prometheus())
    assert values["repro_sweep_tasks_total"] == 2
    assert values["repro_sweep_tasks_done"] == 1
    assert values["repro_sweep_tasks_running"] == 1
    assert values["repro_sweep_retries_total"] == 1
    assert values["repro_sweep_events_total"] == 6
    assert values["repro_sweep_cache_ready_specs"] == 1
    assert values["repro_sweep_cpu_seconds_total"] == pytest.approx(1.5)
    assert values["repro_sweep_max_rss_kb"] == 2048
    assert values["repro_sweep_events_per_second"] > 0


def test_renders_cover_every_terminal_state(tmp_path):
    t0 = 5000.0
    _write(tmp_path, [
        _event("sweep", "start", "sweep", 0.0, t0,
               extra={"tasks": 2, "jobs": 1, "names": ["good", "bad"]}),
        _event("task", "start", "good", 0.0, t0, attempt=1),
        _event("task", "finish", "good", 1.0, t0 + 1.0, attempt=1,
               extra={"resources": PROFILE}),
        _event("task", "start", "bad", 1.0, t0 + 1.0, attempt=1),
        _event("task", "fail", "bad", 2.0, t0 + 2.0, attempt=1,
               extra={"reason": "ValueError: boom"}),
        _event("sweep", "fail", "sweep", 2.1, t0 + 2.1,
               extra={"done": 1, "failed": 1}),
    ])
    _result_doc(tmp_path, "good")
    status = load_sweep(str(tmp_path), now_wall=t0 + 3.0)

    watch = render_watch(status)
    assert "good" in watch and "done" in watch
    assert "bad" in watch and "failed" in watch
    assert "1 done, 1 failed" in watch

    summary = render_status(status)
    assert "ValueError: boom" in summary
    assert "cache-ready specs: 1" in summary

    timeline = render_timeline(status)
    assert "sweep.start" in timeline and "task.fail" in timeline
    assert "attempts=1" in timeline
