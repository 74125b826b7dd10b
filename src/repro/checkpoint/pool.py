"""Fault-tolerant worker pool for scenario sweeps.

``sweep --jobs`` used to ride on :class:`ProcessPoolExecutor`, which
has exactly the wrong failure mode for long sweeps: one worker dying
poisons the whole pool, a hung scenario stalls it forever, and an
interrupt throws away every finished result.  This pool trades a
little throughput bookkeeping for robustness:

* **process-per-task** -- each task runs in its own forked process, so
  a crash (or an injected ``SIGKILL``, :mod:`.faults`) takes down one
  task, which is simply re-queued;
* **per-task timeout** -- a task that exceeds its budget is terminated
  and treated as a crash;
* **bounded retry with backoff** -- a failed task re-enters the queue
  up to ``retries`` more times, each attempt deferred a little longer;
* **order-stable results** -- results come back indexed by submission
  order regardless of completion order, so a recovered sweep is
  byte-identical to an undisturbed one;
* **crash-safe journal** -- each finished task's result document is
  written atomically to ``journal_dir/<name>.json`` *before* it counts
  as done; a re-run of an interrupted sweep skips everything already
  journaled (a torn write never passes ``read_json``, so a crash
  mid-write re-runs that task);
* **lifecycle events** -- journaled sweeps append every sweep/task
  transition to a shared ``events.jsonl`` (:mod:`repro.monitor.events`),
  so a stalled or crashed sweep can be diagnosed -- or watched live
  (``repro-analysis watch``) -- from the journal directory alone;
* **resource profiles** -- with ``resources=True`` each worker reports
  its rusage delta (CPU seconds, max RSS, wall) alongside its result;
  the pool folds profiles into :attr:`PoolOutcome.resources`, finish
  events and the failure table;
* **graceful interrupt** -- ``SIGINT``/``SIGTERM`` stop new work,
  terminate what is running, keep every completed result, and report
  which signal ended the sweep (the CLI exits ``128 + signum``).

Workers communicate results through atomic files rather than pipes:
the file either exists and is complete, or the task did not finish --
there is no partial-message state to reason about.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import signal
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from repro.checkpoint.atomic import read_json, write_json_atomic
from repro.checkpoint.faults import maybe_fault

if TYPE_CHECKING:  # runtime import stays lazy (journaled sweeps only)
    from repro.monitor.events import EventSink

#: Main-loop poll interval (seconds).
_TICK = 0.02

#: Result-document key a worker uses to report a task exception.
ERROR_KEY = "__error__"

#: Result-document key a profiling worker smuggles its rusage delta
#: under; the parent pops it back out, so ``PoolOutcome.results``
#: documents stay byte-identical to unprofiled runs.
RESOURCES_KEY = "__resources__"


@dataclass
class TaskFailure:
    """One task that exhausted its retry budget (or was interrupted).

    ``wall_clock_s`` is the total time the task spent actually running
    across every attempt; ``None`` when the runner does not measure it
    (the CLI's serial path) or the task never started.  ``cpu_s`` /
    ``max_rss_kb`` come from the final attempt's resource profile when
    the sweep ran with ``resources=True`` (and the attempt got far
    enough to report one)."""

    name: str
    attempts: int
    reason: str
    wall_clock_s: Optional[float] = None
    cpu_s: Optional[float] = None
    max_rss_kb: Optional[int] = None


@dataclass
class PoolOutcome:
    """What a sweep produced: results by submission order (``None``
    where a task failed), the failure table, the interrupting signal
    (if any), how much journaled work was skipped, and -- under
    ``resources=True`` -- each task's resource profile by name."""

    results: List[Optional[Dict[str, Any]]]
    failures: List[TaskFailure] = field(default_factory=list)
    interrupted: Optional[int] = None
    skipped_from_journal: int = 0
    resources: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures and self.interrupted is None


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


def _worker(fn: Callable[[Any], Dict[str, Any]], name: str, payload: Any,
            result_path: str, fault_plan: Optional[str],
            resources: bool = False) -> None:
    """Pool worker body: take any planned fault, run the task, persist
    the result document atomically.  An exception becomes an error
    document -- distinguishable from a crash, which leaves no file.
    Under ``resources`` the worker's own rusage delta rides along in
    the document (the worker process *is* the task, so RUSAGE_SELF is
    exactly the task's footprint)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent drives shutdown
    profiler = None
    if resources:
        from repro.monitor.resources import ResourceProfiler
        profiler = ResourceProfiler()
    maybe_fault(fault_plan, name)
    try:
        doc = fn(payload)
    except BaseException as exc:  # noqa: BLE001 -- report, don't crash
        doc = {ERROR_KEY: f"{type(exc).__name__}: {exc}"}
    if profiler is not None:
        doc = dict(doc)
        doc[RESOURCES_KEY] = profiler.profile()
    write_json_atomic(result_path, doc)


def run_tasks(fn: Callable[[Any], Dict[str, Any]],
              tasks: Sequence[Tuple[str, Any]], *,
              jobs: int,
              timeout_s: Optional[float] = None,
              retries: int = 1,
              backoff_s: float = 0.1,
              journal_dir: Optional[str] = None,
              fault_plan: Optional[str] = None,
              resources: bool = False) -> PoolOutcome:
    """Run ``fn(payload)`` for every ``(name, payload)`` task across
    ``jobs`` worker processes (see module docstring for the fault
    model).  ``fn`` must be a module-level callable returning a
    JSON-serializable dict.  ``resources=True`` adds per-task rusage
    profiling (``PoolOutcome.resources``); journaled sweeps always
    stream lifecycle events to ``journal_dir/events.jsonl``."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError(f"timeout must be positive, got {timeout_s}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if backoff_s < 0:
        raise ValueError(f"backoff must be >= 0, got {backoff_s}")

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover -- fork-less platform
        ctx = multiprocessing.get_context("spawn")

    outcome = PoolOutcome(results=[None] * len(tasks))
    tmpdir = None
    if journal_dir is None:
        tmpdir = tempfile.mkdtemp(prefix="repro-pool-")
        result_dir = tmpdir
    else:
        os.makedirs(journal_dir, exist_ok=True)
        result_dir = journal_dir

    paths = [os.path.join(result_dir, _safe_name(name) + ".json")
             for name, _payload in tasks]

    pending: deque = deque()
    for idx, path in enumerate(paths):
        doc = _journaled(path) if journal_dir is not None else None
        if doc is not None and ERROR_KEY in doc:
            doc = None   # journaled failures re-run
        if doc is not None:
            profile = doc.pop(RESOURCES_KEY, None)
            if isinstance(profile, dict):
                outcome.resources[tasks[idx][0]] = profile
            outcome.results[idx] = doc
            outcome.skipped_from_journal += 1
        else:
            pending.append(idx)

    # Journaled sweeps report their lifecycle as typed events on the
    # shared events.jsonl.  Un-journaled throwaway sweeps have nobody
    # to read them, so the monitoring machinery stays structurally
    # absent (not even imported).
    sink: Optional["EventSink"] = None
    if journal_dir is not None:
        from repro.monitor.events import EventSink, events_path
        sink = EventSink(events_path(result_dir))
        sink.emit("sweep", "start", "sweep", extra={
            "tasks": len(tasks), "jobs": jobs,
            "names": [name for name, _payload in tasks],
            "skipped_from_journal": outcome.skipped_from_journal})

    deferred: List[Tuple[float, int]] = []   # (ready_at, idx)
    running: Dict[int, Tuple[Any, Optional[float]]] = {}
    attempts = [0] * len(tasks)
    last_reason = [""] * len(tasks)
    started = [0.0] * len(tasks)   # monotonic launch instant, per attempt
    spent = [0.0] * len(tasks)     # total running time across attempts
    signals: List[int] = []

    def note(idx: int, action: str,
             extra: Optional[Dict[str, Any]] = None) -> None:
        """One task lifecycle event (journaled sweeps only -- the
        throwaway tmpdir case has nobody to read events)."""
        if sink is not None:
            sink.emit("task", action, tasks[idx][0],
                      attempt=attempts[idx], extra=extra)

    def settle(idx: int) -> None:
        """Fold the finished attempt's running time into the task's
        wall-clock total."""
        spent[idx] += time.monotonic() - started[idx]

    def accept(idx: int) -> bool:
        """Take the task's completed result document if one landed:
        pop the worker's resource profile, store the clean document,
        note the finish event."""
        doc = _journaled(paths[idx])
        if doc is None or ERROR_KEY in doc:
            return False
        profile = doc.pop(RESOURCES_KEY, None)
        extra = None
        if isinstance(profile, dict):
            outcome.resources[tasks[idx][0]] = profile
            extra = {"resources": profile}
        outcome.results[idx] = doc
        note(idx, "finish", extra=extra)
        return True

    def on_signal(signum: int, _frame: Any) -> None:
        signals.append(signum)

    old_handlers = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            old_handlers[signum] = signal.signal(signum, on_signal)
        except ValueError:  # pragma: no cover -- non-main thread
            pass

    def fail(idx: int, reason: str,
             profile: Optional[Dict[str, Any]] = None) -> None:
        last_reason[idx] = reason
        if attempts[idx] <= retries and not signals:
            note(idx, "retry", extra={"reason": reason})
            deferred.append(
                (time.monotonic() + backoff_s * attempts[idx], idx))
        else:
            extra: Dict[str, Any] = {"reason": reason}
            if profile is not None:
                extra["resources"] = profile
            note(idx, "fail", extra=extra)
            outcome.failures.append(
                TaskFailure(name=tasks[idx][0], attempts=attempts[idx],
                            reason=reason,
                            wall_clock_s=round(spent[idx], 3)
                            if attempts[idx] else None,
                            cpu_s=profile.get("cpu_s")
                            if profile else None,
                            max_rss_kb=profile.get("max_rss_kb")
                            if profile else None))

    def reap(idx: int, proc: Any) -> None:
        if accept(idx):
            return
        doc = _journaled(paths[idx])
        if doc is not None and ERROR_KEY in doc:
            profile = doc.get(RESOURCES_KEY)
            fail(idx, doc[ERROR_KEY],
                 profile if isinstance(profile, dict) else None)
        elif proc.exitcode is not None and proc.exitcode < 0:
            fail(idx, "worker killed by signal "
                 f"{signal.Signals(-proc.exitcode).name}")
        else:
            fail(idx, f"worker exited with code {proc.exitcode} "
                 "without writing a result")

    try:
        while pending or deferred or running:
            if signals:
                break
            now = time.monotonic()
            for ready_at, idx in sorted(deferred):
                if ready_at <= now:
                    deferred.remove((ready_at, idx))
                    pending.append(idx)

            while pending and len(running) < jobs:
                idx = pending.popleft()
                name, payload = tasks[idx]
                attempts[idx] += 1
                try:
                    os.unlink(paths[idx])   # stale attempt, if any
                except OSError:
                    pass
                proc = ctx.Process(
                    target=_worker,
                    args=(fn, name, payload, paths[idx], fault_plan,
                          resources))
                proc.start()
                started[idx] = time.monotonic()
                note(idx, "start")
                deadline = None if timeout_s is None \
                    else now + timeout_s
                running[idx] = (proc, deadline)

            for idx in list(running):
                proc, deadline = running[idx]
                if not proc.is_alive():
                    proc.join()
                    del running[idx]
                    settle(idx)
                    reap(idx, proc)
                elif deadline is not None and time.monotonic() > deadline:
                    _terminate(proc)
                    del running[idx]
                    settle(idx)
                    # accept a result that raced the timeout; otherwise
                    # the task is indistinguishable from a hang
                    if not accept(idx):
                        fail(idx, f"timeout after {timeout_s}s")

            if running and not signals:
                time.sleep(_TICK)

        if signals:
            outcome.interrupted = signals[0]
            for idx, (proc, _deadline) in running.items():
                _terminate(proc)
                settle(idx)
                # a completed-but-unreaped result still counts
                if not accept(idx):
                    outcome.failures.append(TaskFailure(
                        name=tasks[idx][0], attempts=attempts[idx],
                        reason="interrupted while running",
                        wall_clock_s=round(spent[idx], 3)))
            running.clear()
            unrun = list(pending) + [idx for _ready, idx in deferred]
            for idx in unrun:
                if outcome.results[idx] is None:
                    outcome.failures.append(TaskFailure(
                        name=tasks[idx][0], attempts=attempts[idx],
                        reason="interrupted before completion",
                        wall_clock_s=round(spent[idx], 3)
                        if attempts[idx] else None))
    finally:
        if sink is not None:
            extra = {"done": sum(1 for r in outcome.results
                                 if r is not None),
                     "failed": len(outcome.failures)}
            if outcome.interrupted is not None:
                extra["interrupted"] = outcome.interrupted
            sink.emit("sweep", "finish" if outcome.ok else "fail", "sweep",
                      extra=extra)
            sink.close()
        for signum, handler in old_handlers.items():
            signal.signal(signum, handler)
        if tmpdir is not None:
            for path in paths:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            try:
                os.rmdir(tmpdir)
            except OSError:
                pass

    return outcome


def _journaled(path: str) -> Optional[Dict[str, Any]]:
    """The completed result document at ``path``, or None (absent,
    torn, or not an object -- all treated as 'task not done')."""
    try:
        doc = read_json(path)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


def _terminate(proc: Any) -> None:
    proc.terminate()
    proc.join(1.0)
    if proc.is_alive():  # pragma: no cover -- needs an unkillable child
        proc.kill()
        proc.join(1.0)
