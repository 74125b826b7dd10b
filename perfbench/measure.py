"""The measuring process: one fresh interpreter per measurement.

``run.py`` starts this script in two ways::

    python3 perfbench/measure.py setup <workload> <tmp_dir>
    python3 perfbench/measure.py measure <request.json> <result.json>

``setup`` imports the package, builds the scenario registry (and for
``serve-mix`` boots a daemon and waits for its first ``/healthz``), then
prints ``ready`` and waits for its stdin to close: the parent times
process start to that line.  ``measure`` runs one workload for the
requested seconds (and, when asked, one profiled pass after it) and
writes every raw sample as JSON.  Before each run (each block of
requests on ``serve-mix``) it pauses on a pipe handshake while the
parent times its host-speed calibration loop, so the loop never runs in
the interpreter under test.  Nothing here checks outputs; the parent
does, outside the timed region.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import os
import resource
import sys
import threading
import time
from statistics import median
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ledger  # noqa: E402
import workloads  # noqa: E402

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def digest(doc: Any) -> str:
    """Content digest of a JSON document, key order ignored."""
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def served_sha256(doc: Any) -> str:
    """Digest of the exact bytes the daemon serves for a result."""
    return hashlib.sha256(json.dumps(doc).encode("utf-8")).hexdigest()


def _max_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _fold(stats, runs: int) -> Dict[str, Any]:
    """Ledger fold of a profiled pass, per run."""
    self_s, calls_in, total = ledger.Ledger(stats, SRC_ROOT).fold()
    return {"self_s": {b: v / runs for b, v in self_s.items()},
            "calls_in": calls_in,
            "total_s": total / runs}


class Gate:
    """This side of the calibration handshake: ``pause`` asks the parent
    to time its calibration loop and blocks until it has."""

    def __init__(self, write_fd: int, read_fd: int) -> None:
        self._write_fd = write_fd
        self._read_fd = read_fd
        self.count = 0

    def pause(self) -> int:
        """Wait out one parent calibration; returns its index."""
        os.write(self._write_fd, b"c")
        if os.read(self._read_fd, 1) != b"g":
            raise RuntimeError("calibration handshake broken")
        self.count += 1
        return self.count - 1


# ----------------------------------------------------- simulator workloads

def _run_pass(runner, specs, runs: List[Dict[str, Any]],
              outputs: Dict[str, Any], gate: Optional[Gate]) -> float:
    """Run every spec once; returns the seconds spent in the runs."""
    busy = 0.0
    for label, spec in specs:
        cal = gate.pause() if gate is not None else None
        t0 = time.perf_counter()
        try:
            result = runner.run_spec(spec)
            t1 = time.perf_counter()
            text = result.to_json()
            t2 = time.perf_counter()
        except Exception as exc:  # a failed run is a sample too
            busy += time.perf_counter() - t0
            runs.append({"label": label, "ok": False, "cal": cal,
                         "error": f"{type(exc).__name__}: {exc}",
                         "error_type": type(exc).__name__})
            continue
        busy += t2 - t0
        doc = json.loads(text)
        output = {"metrics": doc["metrics"],
                  "paper_deltas": doc["paper_deltas"]}
        runs.append({"label": label, "ok": True, "cal": cal,
                     "execute_s": t1 - t0, "serialize_s": t2 - t1,
                     "total_s": t2 - t0, "digest": digest(output)})
        outputs.setdefault(label, output)
    return busy


def measure_simulator(request: Dict[str, Any], gate: Gate) -> Dict[str, Any]:
    from repro.scenarios import Runner

    specs = workloads.pass_specs(request["workload"], request["seed"])
    runner = Runner()
    runs: List[Dict[str, Any]] = []
    outputs: Dict[str, Any] = {}
    pass_busy: List[float] = []
    end = time.perf_counter() + request["seconds"]
    while True:
        pass_busy.append(_run_pass(runner, specs, runs, outputs, gate))
        if time.perf_counter() >= end:
            break
    out: Dict[str, Any] = {"runs": runs, "outputs": outputs,
                           "max_rss_mb": _max_rss_mb()}
    if request["trace"]:
        traced_runs: List[Dict[str, Any]] = []
        prof = cProfile.Profile()
        prof.enable()
        wall = _run_pass(runner, specs, traced_runs, {}, None)
        prof.disable()
        out["traced_runs"] = traced_runs
        out["ledger"] = _fold(ledger.merge_stats([prof]), len(specs))
        out["inflation"] = wall / median(pass_busy)
    return out


# ---------------------------------------------------------------- serve-mix

class _Daemon:
    """An in-process ScenarioService behind a ServeServer on its own
    event-loop thread, with a fresh spool and cache."""

    def __init__(self, tmp_dir: str) -> None:
        from repro.serve import ScenarioService, ServeServer

        self.service = ScenarioService(os.path.join(tmp_dir, "spool"),
                                       cache_dir=os.path.join(tmp_dir,
                                                              "cache"))
        self.server = ServeServer(self.service, port=0,
                                  jobs=min(2, os.cpu_count() or 1))
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="perfbench-daemon")

    def _loop(self) -> None:
        import asyncio

        async def main() -> None:
            await self.server.start()
            self._ready.set()
            await self.server.serve_until_shutdown()

        asyncio.run(main())

    def start(self):
        from repro.serve import ServeClient

        self._thread.start()
        if not self._ready.wait(60):
            raise RuntimeError("serve daemon did not start")
        client = ServeClient("127.0.0.1", self.server.port, timeout_s=120.0)
        client.healthz()
        return client

    def stop(self, client) -> None:
        client.shutdown()
        self._thread.join(120)
        if self._thread.is_alive():
            raise RuntimeError("serve daemon did not shut down")


def _worker_wall_total(client) -> float:
    """Sum of the daemon's per-scenario worker wall-clock counters."""
    from repro.monitor.metrics import parse_prometheus_text

    values = parse_prometheus_text(client.metrics_text())
    return sum(v for k, v in values.items()
               if k.startswith("repro_serve_scenario_")
               and k.endswith("_wall_seconds_total"))


def _drive(client, plan, *, seconds: Optional[float], limit: Optional[int],
           poll_workers: bool, gate: Optional[Gate]):
    """The closed loop: one client, each request waits for its reply.

    A timed session (``limit`` None) stops on a whole block of
    MISS_EVERY requests once ``seconds`` have passed and at least
    SERVE_RSS_REQUESTS requests are done; the peak RSS is read at that
    count."""
    from repro.serve import ServeError

    requests: List[Dict[str, Any]] = []
    docs: List[Any] = []
    rss_mb = None
    cal = None
    end = time.perf_counter() + (seconds or 0.0)
    for i, (scenario, seed, miss) in enumerate(plan):
        if limit is not None and i >= limit:
            break
        if i % workloads.MISS_EVERY == 0:
            if limit is None and i >= workloads.SERVE_RSS_REQUESTS \
                    and time.perf_counter() >= end:
                break
            if gate is not None:
                cal = gate.pause()
        before = _worker_wall_total(client) if poll_workers and miss else 0.0
        t0 = time.perf_counter()
        try:
            summary = client.submit(scenario, seed=seed,
                                    budget=workloads.SERVE_BUDGET)
            t1 = time.perf_counter()
            if summary["state"] != "done":
                for _frame in client.stream(summary["run_id"]):
                    pass
            t2 = time.perf_counter()
            doc = client.result(summary["run_id"])
            t3 = time.perf_counter()
        except (ServeError, OSError) as exc:
            requests.append({"label": f"{scenario}/seed{seed}",
                             "scenario": scenario, "seed": seed,
                             "miss": miss, "ok": False, "cal": cal,
                             "error": f"{type(exc).__name__}: {exc}"})
            docs.append(None)
            continue
        rec = {"label": f"{scenario}/seed{seed}", "scenario": scenario,
               "seed": seed, "miss": miss, "ok": True, "cal": cal,
               "cached": bool(summary["cached"]),
               "submit_s": t1 - t0, "wait_s": t2 - t1, "fetch_s": t3 - t2,
               "total_s": t3 - t0}
        if poll_workers and miss:
            rec["worker_s"] = _worker_wall_total(client) - before
        requests.append(rec)
        docs.append(doc)
        if len(requests) == workloads.SERVE_RSS_REQUESTS:
            rss_mb = _max_rss_mb()
    return requests, docs, rss_mb


def _serve_session(plan, tmp_dir: str, *, seconds: Optional[float],
                   limit: Optional[int], poll_workers: bool,
                   gate: Optional[Gate]) -> Dict[str, Any]:
    """Drive ``plan`` through a fresh daemon, timed for ``seconds`` or
    for ``limit`` requests (see :func:`_drive`)."""
    daemon = _Daemon(tmp_dir)
    client = daemon.start()
    try:
        requests, docs, rss_mb = _drive(
            client, plan, seconds=seconds, limit=limit,
            poll_workers=poll_workers, gate=gate)
        from repro.monitor.metrics import parse_prometheus_text
        counters = parse_prometheus_text(client.metrics_text())
    finally:
        daemon.stop(client)
    # outside every timed span: the served bytes and the simulated work
    for rec, doc in zip(requests, docs):
        if doc is None:
            continue
        rec["sha256"] = served_sha256(doc)
        telemetry = doc["metrics"].get("telemetry") or {}
        rec["commands"] = telemetry.get("counters", {}).get("commands", 0)
    return {"requests": requests, "max_rss_mb": rss_mb,
            "cache_hits": counters.get("repro_serve_cache_hits_total", 0.0),
            "cache_misses": counters.get("repro_serve_cache_misses_total",
                                         0.0)}


def _profile_threads(profiles: list):
    """Start a thread-CPU-time profiler in every thread started from
    now on: the daemon's event loop and its run executor, not the
    client's (main) thread."""
    lock = threading.Lock()

    def bootstrap(frame, event, arg):
        sys.setprofile(None)
        prof = cProfile.Profile(time.thread_time)
        with lock:
            profiles.append(prof)
        prof.enable()

    threading.setprofile(bootstrap)


def measure_serve(request: Dict[str, Any], gate: Gate) -> Dict[str, Any]:
    plan = workloads.serve_plan(request["seed"])
    tmp = request["tmp_dir"]
    trace = request["trace"]
    out = _serve_session(plan, os.path.join(tmp, "measured"),
                         seconds=request["seconds"], limit=None,
                         poll_workers=True, gate=gate)
    if trace:
        n = workloads.SERVE_TRACE_REQUESTS
        profiles: list = []
        _profile_threads(profiles)
        try:
            traced = _serve_session(plan, os.path.join(tmp, "traced"),
                                    seconds=None, limit=n,
                                    poll_workers=False, gate=None)
        finally:
            threading.setprofile(None)
        stats = ledger.merge_stats(profiles)
        out["traced_requests"] = traced["requests"]
        out["ledger"] = _fold(stats, n)
        out["cache_get_s"] = ledger.cumulative_per_call(
            stats, "repro/serve/cache.py", "get")
        out["cache_put_s"] = ledger.cumulative_per_call(
            stats, "repro/serve/cache.py", "put")
        untraced = sum(r["total_s"] for r in out["requests"][:n] if r["ok"])
        traced_s = sum(r["total_s"] for r in traced["requests"] if r["ok"])
        out["inflation"] = traced_s / untraced if untraced else 0.0
    return out


# --------------------------------------------------------------- entries

def setup_probe(workload: str, tmp_dir: str) -> int:
    from repro.scenarios import Runner, scenario_names

    scenario_names()
    Runner()
    daemon = client = None
    if workload == "serve-mix":
        daemon = _Daemon(tmp_dir)
        client = daemon.start()
    print("ready", flush=True)
    sys.stdin.read()
    if daemon is not None:
        daemon.stop(client)
    return 0


def main(argv: List[str]) -> int:
    if len(argv) == 3 and argv[0] == "setup":
        return setup_probe(argv[1], argv[2])
    if len(argv) == 3 and argv[0] == "measure":
        with open(argv[1], encoding="utf-8") as fh:
            request = json.load(fh)
        gate = Gate(*request["gate_fds"])
        if request["workload"] == "serve-mix":
            result = measure_serve(request, gate)
        else:
            result = measure_simulator(request, gate)
        result["calibrations"] = gate.count
        with open(argv[2], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0
    print("usage: measure.py setup <workload> <tmp_dir> | "
          "measure <request.json> <result.json>", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
