"""The repository benchmark: four workloads, checked outputs, one JSON line.

    python3 perfbench/run.py --workload table5-stream --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a checkout.  The measured work happens in fresh
child processes (``measure.py``): several set-up probes, then one
measurement of ``--seconds``.  This process then checks every output
against a reference outside the timed region, prints a report with
every metric, its unit and its sample count, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are BENCHMARK.json's ``end_to_end`` set;
with ``--trace 1`` a separate profiled pass gives its ``per_layer``
set.  See ``perfbench/README.md`` for what each workload and metric
means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import select
import shutil
import subprocess
import sys
import time
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import ledger  # noqa: E402
import workloads  # noqa: E402
from measure import digest, served_sha256  # noqa: E402

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 7

#: Hard wall-clock ceiling of one child process.
CHILD_TIMEOUT_S = 150

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Table 5 and Table 1 checks, with the tolerances the test suite and
#: the pytest benchmarks apply to the same tables.
TABLE5_EXECUTION_CYCLES, TABLE5_EXECUTION_TOL = 10.5, 0.01
TABLE5_LOW_TOTAL_TOL = 6.0
TABLE1_TOL = 0.03


class Outcome:
    """What the checks concluded about one measurement."""

    def __init__(self) -> None:
        self.problems: List[str] = []
        self.bad_labels: set = set()

    def fail(self, label: str, why: str) -> None:
        self.bad_labels.add(label)
        self.problems.append(f"{label}: {why}")


# ------------------------------------------------------------- utilities

def benchmark_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def nearest_rank(values: Sequence[float], q: float) -> Tuple[float, int]:
    """The ``q``-th percentile by nearest rank, and how many samples lie
    beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def p50(values: Sequence[float]) -> Tuple[float, int]:
    return median(values), len(values) - math.ceil(len(values) / 2)


def _child_env(tmp: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = tmp
    # one fixed string-hash layout, so no process draws a lucky or
    # unlucky dict/set memory layout (outputs never depend on it)
    env["PYTHONHASHSEED"] = "0"
    return env


# --------------------------------------------------------------- children

def setup_seconds(workload: str, tmp: str) -> List[float]:
    """Time fresh processes from start to "ready for the first request",
    each scaled to the reference host speed."""
    samples = []
    cals = []
    for i in range(SETUP_REPEATS):
        cals.append(calibrate.calibrate())
        probe_dir = os.path.join(tmp, f"setup{i}")
        os.makedirs(probe_dir)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "measure.py"), "setup",
             workload, probe_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=_child_env(tmp), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdin.close()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(elapsed)
    return [t * f for t, f in zip(samples, calibrate.factors(cals))]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tmp: str) -> Dict[str, Any]:
    """One measuring process.  Whenever it pauses on the handshake pipe
    this process times one calibration loop, so the loop runs in an
    interpreter that does not host the program under test; the loop
    times are returned as ``calibrations``."""
    request_path = os.path.join(tmp, "request.json")
    result_path = os.path.join(tmp, "result.json")
    from_child, child_w = os.pipe()
    child_r, to_child = os.pipe()
    with open(request_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "tmp_dir": tmp,
                   "gate_fds": [child_w, child_r]}, fh)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "measure.py"), "measure",
         request_path, result_path],
        stdout=sys.stderr, env=_child_env(tmp), cwd=ROOT,
        pass_fds=(child_w, child_r))
    os.close(child_w)
    os.close(child_r)
    calibrations: List[float] = []
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        # the child's forked workers inherit its pipe ends, so its exit,
        # not end-of-file, ends the handshake
        while proc.poll() is None:
            if time.monotonic() > deadline:
                raise RuntimeError("measuring process timed out")
            ready, _, _ = select.select([from_child], [], [], 0.2)
            if ready and os.read(from_child, 1) == b"c":
                calibrations.append(calibrate.calibrate())
                os.write(to_child, b"g")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        os.close(from_child)
        os.close(to_child)
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process failed (exit {proc.returncode})")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if result["calibrations"] != len(calibrations):
        raise RuntimeError("calibration handshake lost a pause")
    result["calibrations"] = calibrations
    return result


# ---------------------------------------------------------------- checks

def _reference_output(runner, spec) -> Tuple[Optional[Dict], Optional[str]]:
    try:
        doc = json.loads(runner.run_spec(spec).to_json())
    except Exception as exc:  # compared against the measured failure
        return None, type(exc).__name__
    return {"metrics": doc["metrics"],
            "paper_deltas": doc["paper_deltas"]}, None


def check_label(mine: List[Dict[str, Any]], expected: Optional[Dict],
                ref_error: Optional[str]) -> Optional[str]:
    """What is wrong with the measured runs of one input, given the
    reference engine's output or exception on it (None: nothing)."""
    ok = [r for r in mine if r["ok"]]
    errors = {r["error_type"] for r in mine if not r["ok"]}
    if ok and errors:
        return f"raised {sorted(errors)} on some repeats only"
    if ok:
        if ref_error is not None:
            return f"reference engine raised {ref_error}"
        if len({r["digest"] for r in ok}) != 1:
            return "repeats gave different outputs"
        if ok[0]["digest"] != digest(expected):
            return "output differs from the reference engine"
        return None
    if errors != {ref_error}:
        return (f"raised {sorted(errors)}, reference engine "
                f"{ref_error or 'succeeded'}")
    return None


def check_simulator(workload: str, seed: int,
                    runs: List[Dict[str, Any]],
                    outputs: Dict[str, Any]) -> Outcome:
    """Every run against the reference engine on the same input: equal
    metrics and paper deltas, or the same exception.  Every repeat of
    an input must give the identical output."""
    from repro.scenarios import Runner

    outcome = Outcome()
    runner = Runner()
    for label, spec in workloads.pass_specs(workload, seed,
                                            engine="reference"):
        expected, ref_error = _reference_output(runner, spec)
        problem = check_label([r for r in runs if r["label"] == label],
                              expected, ref_error)
        if problem is not None:
            outcome.fail(label, problem)
    if workload == "table5-stream":
        _check_table5(outputs, outcome)
    elif workload == "table1-ddr":
        _check_table1(outputs, outcome)
    return outcome


def _rows(outputs: Dict[str, Any]) -> Dict[str, Any]:
    rows: Dict[str, Any] = {}
    for out in outputs.values():
        rows.update(out["metrics"])
    return rows


def _check_table5(outputs: Dict[str, Any], outcome: Outcome) -> None:
    from repro.analysis import PAPER_TABLE5

    rows = _rows(outputs)
    for key, (_fifo, execution, _data, _total) in rows.items():
        if abs(execution - TABLE5_EXECUTION_CYCLES) > TABLE5_EXECUTION_TOL:
            outcome.fail(f"table5/{key}", f"execution {execution} cycles")
    low, high = rows.get("load1.6"), rows.get("load6.14")
    if low is None or high is None:
        outcome.fail("table5", "a load row is missing")
        return
    if abs(low[3] - PAPER_TABLE5[1.6][3]) > TABLE5_LOW_TOTAL_TOL:
        outcome.fail("table5/load1.6", f"total {low[3]} cycles vs paper")
    if not (high[0] > low[0] and high[2] > low[2] - 0.5):
        for key in ("load1.6", "load6.14"):
            outcome.fail(f"table5/{key}", "fifo/data delay do not grow "
                                          "with load")


def _check_table1(outputs: Dict[str, Any], outcome: Outcome) -> None:
    from repro.analysis import PAPER_TABLE1

    for key, ours in _rows(outputs).items():
        paper = PAPER_TABLE1[int(key[len("banks"):])]
        for col in (0, 2):
            if abs(ours[col] - paper[col]) > TABLE1_TOL:
                outcome.fail(f"table1/{key}",
                             f"column {col} {ours[col]} vs paper {paper[col]}")


def check_serve(requests: List[Dict[str, Any]]) -> Outcome:
    """Hits and misses land where the plan put them, and every served
    document is byte-identical to an in-process run of the same
    (scenario, seed, budget)."""
    from repro.scenarios import Runner
    from repro.serve import canonical_result_dict

    outcome = Outcome()
    runner = Runner()
    expected: Dict[Tuple[str, int], str] = {}
    for rec in requests:
        label = rec["label"]
        if not rec["ok"]:
            outcome.bad_labels.add(label)
            continue
        if rec["cached"] == rec["miss"]:
            outcome.fail(label, "cache hit/miss differs from the plan")
        key = (rec["scenario"], rec["seed"])
        if key not in expected:
            result = runner.run(rec["scenario"], seed=rec["seed"],
                                budget=workloads.SERVE_BUDGET)
            expected[key] = served_sha256(
                canonical_result_dict(json.loads(result.to_json())))
        if rec["sha256"] != expected[key]:
            outcome.fail(label, "served bytes differ from an in-process run")
    return outcome


# --------------------------------------------------------------- metrics

def _label_ops(workload: str, seed: int,
               outputs: Dict[str, Any]) -> Dict[str, int]:
    """Simulated operations of each input, counted outside every timed
    run: DQM commands from telemetry, DDR accesses from the spec."""
    from repro.scenarios import Runner, TelemetrySpec

    specs = workloads.pass_specs(workload, seed)
    if workload == "table1-ddr":
        return {label: workloads.ddr_accesses(spec) for label, spec in specs}
    if workload == "table5-stream":
        runner = Runner()
        ops = {}
        for label, spec in specs:
            doc = runner.run_spec(spec.with_options(telemetry=TelemetrySpec()))
            (snap,) = doc.metrics["telemetry"].values()
            ops[label] = snap["counters"]["commands"]
        return ops
    return {label: out["metrics"]["telemetry"]["counters"]["commands"]
            for label, out in outputs.items()}


def _policy_counts(keys, budget: str) -> Tuple[float, float]:
    """``(accept ratio, pushout ratio)`` over latency-* inputs, read from
    each scenario's overload-* twin (same traffic, policy and seed; its
    result carries the segment counters the latency view folds away)."""
    from repro.scenarios import Runner, get_scenario

    runner = Runner()
    offered = accepted = pushed = 0
    for scenario, seed in keys:
        twin = "overload-" + scenario[len("latency-"):]
        spec = get_scenario(twin).spec.with_options(seed=seed, budget=budget)
        try:
            metrics = runner.run_spec(spec).metrics
        except Exception:  # the incast defect: no counters to add
            continue
        offered += metrics["offered_segments"]
        accepted += metrics["accepted_segments"]
        pushed += metrics["pushed_out_segments"]
    return (accepted / offered if offered else 0.0,
            pushed / accepted if accepted else 0.0)


def _scaled(seconds: float, rec: Dict[str, Any]) -> float:
    return seconds * rec["scale"]


def _scale(records: List[Dict[str, Any]],
           calibrations: List[float]) -> None:
    """Each run (each block of requests on serve-mix) was preceded by
    one calibration; its index is the record's ``cal``."""
    scales = calibrate.factors(calibrations)
    for rec in records:
        rec["scale"] = scales[rec["cal"]]


def _speed_note(raw: float, scaled: float) -> str:
    return f"(raw {raw:.6g}, scaled x{scaled / raw:.3f} for host speed)"


def simulator_metrics(workload: str, seed: int, child: Dict[str, Any],
                      outcome: Outcome, setup: List[float],
                      trace: bool) -> Tuple[Dict[str, float], List[str]]:
    _scale(child["runs"], child["calibrations"])
    good = [r for r in child["runs"]
            if r["ok"] and r["label"] not in outcome.bad_labels]
    if not good:
        return {}, ["  no successful run"]
    ops = _label_ops(workload, seed, child["outputs"])
    if trace:
        return _simulator_layers(workload, seed, child, good, ops), []
    run_s = [_scaled(r["total_s"], r) for r in good]
    busy = sum(run_s)
    total_ops = sum(ops[r["label"]] for r in good)
    values = {
        "setup_s": median(setup),
        "run_s_p50": median(run_s),
        "sim_ops_per_s": total_ops / busy,
        "requests_per_s": len(good) / busy,
        "max_rss_mb": child["max_rss_mb"],
    }
    raw_p50 = median(r["total_s"] for r in good)
    raw_rate = len(good) / sum(r["total_s"] for r in good)
    lines = [
        _line("setup_s", values["setup_s"], "s",
              f"n={len(setup)} fresh processes"),
        _line("run_s_p50", values["run_s_p50"], "s",
              f"n={len(good)} runs, {p50(run_s)[1]} beyond "
              + _speed_note(raw_p50, values["run_s_p50"])),
        _line("sim_ops_per_s", values["sim_ops_per_s"], "1/s",
              f"n={len(good)} runs, {total_ops} ops"),
        _line("requests_per_s", values["requests_per_s"], "1/s",
              f"n={len(good)} runs "
              + _speed_note(raw_rate, values["requests_per_s"])),
        _line("max_rss_mb", values["max_rss_mb"], "MB", "n=1 process"),
    ]
    deltas = [abs(v) for out in child["outputs"].values()
              for v in out["paper_deltas"].values()]
    if deltas:
        lines.append(_line("paper_rel_err_max", max(deltas), "fraction",
                           f"n={len(deltas)} paper cells"))
    return values, lines


def _line(name: str, value: float, unit: str, note: str) -> str:
    return f"  {name:<28} {value:>14.6g} {unit:<9} {note}"


def _ledger_values(fold: Dict[str, Any], inflation: float
                   ) -> Dict[str, float]:
    total = fold["total_s"]
    values: Dict[str, float] = {"profile.total_s": total,
                                "profile.inflation": inflation}
    for bucket in ledger.BUCKETS:
        self_s = fold["self_s"][bucket]
        values[f"{bucket}.self_s"] = self_s
        values[f"{bucket}.share"] = self_s / total if total else 0.0
        values[f"{bucket}.calls_in"] = fold["calls_in"][bucket]
    return values


_SERVE_SPANS = ("serve.submit_ms", "serve.wait_ms", "serve.fetch_ms",
                "checkpoint.worker_ms", "checkpoint.pool_overhead_ms",
                "serve.cache_hit_ratio", "serve.cache_get_ms",
                "serve.cache_put_ms")


def _simulator_layers(workload: str, seed: int, child: Dict[str, Any],
                      good: List[Dict[str, Any]],
                      ops: Dict[str, int]) -> Dict[str, float]:
    values = _ledger_values(child["ledger"], child["inflation"])
    values["scenarios.execute_s"] = median(r["execute_s"] for r in good)
    values["scenarios.serialize_s"] = median(r["serialize_s"] for r in good)
    labels = [label for label, _spec in workloads.pass_specs(workload, seed)]
    ok_labels = {r["label"] for r in good}
    values["dqm.commands"] = (0 if workload == "table1-ddr" else
                              sum(ops[lb] for lb in labels if lb in ok_labels))
    accept = pushout = 0.0
    if workload == "latency-family":
        keys = [(lb.split("/seed")[0], int(lb.split("/seed")[1]))
                for lb in labels if lb in ok_labels]
        accept, pushout = _policy_counts(keys, "full")
    values["policies.accept_ratio"] = accept
    values["policies.pushout_ratio"] = pushout
    for name in _SERVE_SPANS:
        values[name] = 0.0
    return values


def serve_metrics(child: Dict[str, Any], outcome: Outcome,
                  setup: List[float], trace: bool
                  ) -> Tuple[Dict[str, float], List[str]]:
    _scale(child["requests"], child["calibrations"])
    good = [r for r in child["requests"]
            if r["ok"] and r["label"] not in outcome.bad_labels]
    hits = [r for r in good if not r["miss"]]
    misses = [r for r in good if r["miss"]]
    if not hits or not misses:
        return {}, ["  no successful hit or miss"]
    if trace:
        return _serve_layers(child, good, hits, misses), []
    # a miss's run is timed where it executes: the forked worker's wall
    # clock, from the daemon's per-scenario /metrics counters
    worker_s = [_scaled(r["worker_s"], r) for r in misses]
    values = {
        "setup_s": median(setup),
        "run_s_p50": median(worker_s),
        "sim_ops_per_s": sum(r["commands"] for r in misses) / sum(worker_s),
        "requests_per_s": len(good) / sum(_scaled(r["total_s"], r)
                                          for r in good),
        "max_rss_mb": child["max_rss_mb"],
    }
    raw_rate = len(good) / sum(r["total_s"] for r in good)
    hit_ms = [1000 * _scaled(r["total_s"], r) for r in hits]
    miss_ms = [1000 * _scaled(r["total_s"], r) for r in misses]
    c50, c50b = p50(hit_ms)
    c99, c99b = nearest_rank(hit_ms, 99)
    u50, u50b = p50(miss_ms)
    u90, u90b = nearest_rank(miss_ms, 90)
    raw_p50 = median(r["worker_s"] for r in misses)
    lines = [
        _line("setup_s", values["setup_s"], "s",
              f"n={len(setup)} fresh daemons"),
        _line("run_s_p50", values["run_s_p50"], "s",
              f"n={len(misses)} worker runs, {p50(worker_s)[1]} beyond "
              + _speed_note(raw_p50, values["run_s_p50"])),
        _line("sim_ops_per_s", values["sim_ops_per_s"], "1/s",
              f"n={len(misses)} worker runs"),
        _line("requests_per_s", values["requests_per_s"], "1/s",
              f"n={len(good)} requests, closed loop, 1 client "
              + _speed_note(raw_rate, values["requests_per_s"])),
        _line("max_rss_mb", values["max_rss_mb"], "MB",
              f"n=1 process (daemon + workers) after "
              f"{workloads.SERVE_RSS_REQUESTS} requests"),
        _line("cached_ms_p50", c50, "ms", f"n={len(hits)}, {c50b} beyond"),
        _line("cached_ms_p99", c99, "ms", f"n={len(hits)}, {c99b} beyond"),
        _line("uncached_ms_p50", u50, "ms", f"n={len(misses)}, {u50b} beyond"),
        _line("uncached_ms_p90", u90, "ms", f"n={len(misses)}, {u90b} beyond"),
    ]
    return values, lines


def _serve_layers(child: Dict[str, Any], good, hits, misses
                  ) -> Dict[str, float]:
    values = _ledger_values(child["ledger"], child["inflation"])
    values["scenarios.execute_s"] = 0.0
    values["scenarios.serialize_s"] = 0.0
    traced_misses = [r for r in child["traced_requests"]
                     if r["ok"] and r["miss"]]
    values["dqm.commands"] = sum(r["commands"] for r in traced_misses)
    accept, pushout = _policy_counts(
        [(r["scenario"], r["seed"]) for r in traced_misses],
        workloads.SERVE_BUDGET)
    values["policies.accept_ratio"] = accept
    values["policies.pushout_ratio"] = pushout
    worker = [r for r in misses if "worker_s" in r]
    lookups = child["cache_hits"] + child["cache_misses"]
    values.update({
        "serve.submit_ms": 1000 * median(r["submit_s"] for r in good),
        "serve.wait_ms": 1000 * median(r["wait_s"] for r in misses),
        "serve.fetch_ms": 1000 * median(r["fetch_s"] for r in good),
        "checkpoint.worker_ms": 1000 * median(r["worker_s"] for r in worker),
        "checkpoint.pool_overhead_ms": 1000 * median(
            r["wait_s"] - r["worker_s"] for r in worker),
        "serve.cache_hit_ratio": (child["cache_hits"] / lookups
                                  if lookups else 0.0),
        "serve.cache_get_ms": 1000 * child["cache_get_s"],
        "serve.cache_put_ms": 1000 * child["cache_put_s"],
    })
    return values


# ------------------------------------------------------------------ main

def count_failed(records: List[Dict[str, Any]], outcome: Outcome) -> int:
    """Runs or requests that raised, plus those whose output failed a
    check; each stays in ``attempted``."""
    return sum(1 for r in records
               if not r["ok"] or r["label"] in outcome.bad_labels)


def validate(metrics: Dict[str, float], declared: List[Dict[str, Any]]
             ) -> Dict[str, Dict[str, Any]]:
    """Exactly the declared metrics, each a finite number, with the
    declared unit."""
    names = [m["name"] for m in declared]
    bad = [n for n in names if not NAME_RE.match(n)]
    if bad:
        raise ValueError(f"malformed metric names {bad}")
    if set(metrics) != set(names):
        raise ValueError(
            f"metrics emitted {sorted(set(metrics) - set(names))} "
            f"but missing {sorted(set(names) - set(metrics))}")
    out = {}
    for m in declared:
        value = float(metrics[m["name"]])
        if not math.isfinite(value):
            raise ValueError(f"{m['name']} is not finite: {value}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        tmp: str) -> Dict[str, Any]:
    setup = [] if trace else setup_seconds(workload, tmp)
    child = measure(workload, seed, seconds, trace, tmp)
    if workload == "serve-mix":
        records = child["requests"] + child.get("traced_requests", [])
        outcome = check_serve(records)
        values, lines = serve_metrics(child, outcome, setup, trace)
    else:
        records = child["runs"] + child.get("traced_runs", [])
        outcome = check_simulator(workload, seed, records, child["outputs"])
        values, lines = simulator_metrics(workload, seed, child, outcome,
                                          setup, trace)
    attempted = len(records)
    failed = count_failed(records, outcome)
    spec = benchmark_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    print(f"perfbench {workload} seed={seed} seconds={seconds} "
          f"trace={int(trace)}")
    for line in lines:
        print(line)
    print(_line("failed_ratio", failed / attempted if attempted else 0.0,
                "fraction", f"{failed} of {attempted} attempted"))
    if trace:
        for m in declared:
            print(_line(m["name"], values.get(m["name"], float("nan")),
                        m["unit"], "traced pass"))
    for problem in outcome.problems:
        print(f"  CHECK FAILED {problem}")
    correct = not outcome.problems
    print(f"  checks: {'ok' if correct else 'FAILED'}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": validate(values, declared)}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, SRC)
    tmp_root = os.path.join(ROOT, ".perfbench-tmp")
    tmp = os.path.join(tmp_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    os.environ["TMPDIR"] = tmp
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another measurement still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
