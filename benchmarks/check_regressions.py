"""Gate the perf trajectory in ``BENCH_<n>.json`` against the floors.

``run_benchmarks.py`` *records* the trajectory and gates its own run;
this comparator re-reads any recorded trajectory file and fails on
floor violations, so CI (or a developer with an existing history) can
gate without re-timing anything::

    PYTHONPATH=src python benchmarks/check_regressions.py              # BENCH_1.json
    PYTHONPATH=src python benchmarks/check_regressions.py /tmp/ci.json

Checks applied to the **latest** entry (older entries are context):

* ``bench_table1.speedup``        >= 2.0x
* ``bench_table5_stream.speedup`` >= 3.75x
* ``bench_telemetry.off_overhead``, ``bench_trace.off_overhead`` and
  ``bench_monitor.off_overhead`` <= 2% -- warnings instead of failures
  when the entry was recorded with ``--quick`` (CI runners are noisy;
  the structural-absence asserts inside ``run_benchmarks.py`` are the
  real detectors there)
* the stream floor must also hold with telemetry / tracing / monitoring
  disabled
* ``bench_serve.cached_requests_per_s`` >= 20 req/s -- a daemon cache
  hit must stay O(lookup), never a re-simulation

A benchmark absent from the entry is skipped with a note (older
trajectory entries predate the newer benchmarks).  On top of the hard
floors, the latest full-run speedups are compared against the best
full-run speedup in the history: a drop of more than 30% is reported
as a warning -- drift worth a look, not a red build.

Exit codes: 0 all floors hold, 1 floor violation, 2 unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

from run_benchmarks import (                                       # noqa: E402
    MONITOR_OFF_OVERHEAD_CEILING,
    SERVE_CACHED_RPS_FLOOR,
    TABLE1_SPEEDUP_FLOOR,
    TABLE5_STREAM_SPEEDUP_FLOOR,
    TELEMETRY_OFF_OVERHEAD_CEILING,
    TRACE_OFF_OVERHEAD_CEILING,
)

#: Fractional drop from the history's best full-run speedup that is
#: flagged (as a warning) even while the hard floor still holds.
DRIFT_WARNING_FRACTION = 0.30

#: ``(benchmark, field, floor, unit)`` -- fields that must stay
#: >= floor; *unit* only decorates the finding message.
SPEEDUP_FLOORS = (
    ("bench_table1", "speedup", TABLE1_SPEEDUP_FLOOR, "x"),
    ("bench_table5_stream", "speedup", TABLE5_STREAM_SPEEDUP_FLOOR, "x"),
    ("bench_telemetry", "stream_speedup_with_telemetry_off",
     TABLE5_STREAM_SPEEDUP_FLOOR, "x"),
    ("bench_trace", "stream_speedup_with_trace_off",
     TABLE5_STREAM_SPEEDUP_FLOOR, "x"),
    ("bench_monitor", "stream_speedup_with_monitor_off",
     TABLE5_STREAM_SPEEDUP_FLOOR, "x"),
    ("bench_serve", "cached_requests_per_s",
     SERVE_CACHED_RPS_FLOOR, " req/s"),
)

#: ``(benchmark, field, ceiling)`` -- fields that must stay <= ceiling
#: (warn-only on ``--quick`` entries).
OVERHEAD_CEILINGS = (
    ("bench_telemetry", "off_overhead", TELEMETRY_OFF_OVERHEAD_CEILING),
    ("bench_trace", "off_overhead", TRACE_OFF_OVERHEAD_CEILING),
    ("bench_monitor", "off_overhead", MONITOR_OFF_OVERHEAD_CEILING),
)


def check_entry(entry: dict, history: list) -> list:
    """All findings for the trajectory's latest *entry*.

    Returns ``(severity, message)`` pairs with severity ``"fail"`` or
    ``"warn"``; *history* is the full run list (for drift context).
    """
    findings = []
    benches = entry.get("benchmarks", {})
    quick = bool(entry.get("quick"))

    for name, field, floor, unit in SPEEDUP_FLOORS:
        bench = benches.get(name)
        if bench is None:
            findings.append(("note", f"{name}: not in this entry, skipped"))
            continue
        value = bench[field]
        if value < floor:
            findings.append(("fail",
                             f"{name}.{field} = {value}{unit} is below "
                             f"the {floor}{unit} floor"))

    for name, field, ceiling in OVERHEAD_CEILINGS:
        bench = benches.get(name)
        if bench is None:
            continue
        value = bench[field]
        if value > ceiling:
            severity = "warn" if quick else "fail"
            qualifier = " (quick entry: warning only)" if quick else ""
            findings.append((severity,
                             f"{name}.{field} = {value * 100:.1f}% exceeds "
                             f"the {ceiling * 100:.0f}% ceiling{qualifier}"))

    # drift vs the best *full* run in the history (same-mode comparison:
    # quick entries time shrunken workloads and would alias as drift)
    for name in ("bench_table1", "bench_table5_stream"):
        if quick or name not in benches:
            continue
        past = [run["benchmarks"][name]["speedup"] for run in history[:-1]
                if not run.get("quick") and name in run.get("benchmarks", {})]
        if not past:
            continue
        best, latest = max(past), benches[name]["speedup"]
        if latest < best * (1.0 - DRIFT_WARNING_FRACTION):
            findings.append(("warn",
                             f"{name}.speedup drifted to {latest}x from a "
                             f"best of {best}x (>{DRIFT_WARNING_FRACTION:.0%}"
                             f" drop)"))
    return findings


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trajectory", nargs="?",
                    default=str(REPO_ROOT / "BENCH_1.json"),
                    help="trajectory file to check (default: BENCH_1.json)")
    args = ap.parse_args(argv)

    try:
        with open(args.trajectory, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.trajectory}: {exc}", file=sys.stderr)
        return 2
    runs = doc.get("runs") or []
    if not isinstance(runs, list) or not runs:
        print(f"error: {args.trajectory} has no recorded runs",
              file=sys.stderr)
        return 2

    entry = runs[-1]
    print(f"checking run #{len(runs)} of {args.trajectory} "
          f"(recorded {entry.get('timestamp', '?')}, "
          f"quick={bool(entry.get('quick'))})")
    findings = check_entry(entry, runs)
    failed = False
    for severity, message in findings:
        if severity == "fail":
            failed = True
            print(f"FAIL: {message}", file=sys.stderr)
        elif severity == "warn":
            print(f"WARNING: {message}", file=sys.stderr)
        else:
            print(message)
    if failed:
        return 1
    checked = sum(1 for name, _f, _c, _u in SPEEDUP_FLOORS
                  if name in entry.get("benchmarks", {}))
    print(f"ok: {checked} floor(s) hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
