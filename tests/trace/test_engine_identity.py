"""Acceptance criterion: byte-identical trace JSON across engines.

The span tracer is a deterministic fold over the dispatch and stage
streams, and the stage bounds themselves ride the engine-identity
contract -- so for every latency-family policy the ``fast`` and
``reference`` engines must produce *byte-identical* trace payloads:
same spans, same ``(time_ps, seq)`` bounds, same verdicts, same
attribution integers.
"""

import json

import pytest

from repro.scenarios import Runner, scenario_names
from repro.scenarios.registry import get_scenario, scenarios_of_kind
from repro.trace import TraceSpec

LATENCY_NAMES = [s.spec.name for s in scenarios_of_kind("latency")]

#: One scenario per policy: the burst shape exercises drops for all.
POLICY_BURSTS = sorted(n for n in LATENCY_NAMES if n.endswith("-burst"))


def _trace_json(result):
    return json.dumps(result.metrics["trace"], sort_keys=True)


@pytest.mark.parametrize("name", POLICY_BURSTS)
def test_latency_burst_traces_byte_identical_across_engines(name):
    runner = Runner()
    ref = runner.run(name, engine="reference", fast=True, trace=True)
    fast = runner.run(name, engine="fast", fast=True, trace=True)
    assert _trace_json(ref) == _trace_json(fast)
    snap = fast.metrics["trace"]
    assert snap["schema"] == 1
    assert snap["counters"]["spans"] == len(snap["spans"])
    assert snap["counters"]["completed"] == snap["counters"]["dispatched"]
    assert snap["attribution"]["total_ps"] > 0


@pytest.mark.parametrize("name", [n for n in LATENCY_NAMES
                                  if not n.endswith("-burst")])
def test_latency_other_shapes_traces_byte_identical(name):
    runner = Runner()
    ref = runner.run(name, engine="reference", fast=True, trace=True)
    fast = runner.run(name, engine="fast", fast=True, trace=True)
    assert _trace_json(ref) == _trace_json(fast)


def test_overload_with_trace_knob_byte_identical():
    runner = Runner()
    ref = runner.run("overload-red-sustained", engine="reference",
                     fast=True, trace=True)
    fast = runner.run("overload-red-sustained", engine="fast",
                      fast=True, trace=True)
    assert _trace_json(ref) == _trace_json(fast)
    assert ref.metrics["trace"]["counters"]["dropped_commands"] > 0


def test_trace_rides_alongside_telemetry_unchanged():
    """Chaining the tracer after the telemetry collector must not
    perturb the telemetry fold (ProbeChain fan-out, not interference)."""
    runner = Runner()
    plain = runner.run("latency-lqd-burst", fast=True)
    traced = runner.run("latency-lqd-burst", fast=True, trace=True)
    assert json.dumps(plain.metrics["telemetry"], sort_keys=True) == \
        json.dumps(traced.metrics["telemetry"], sort_keys=True)
    assert "trace" not in plain.metrics
    assert "trace" in traced.metrics


def test_trace_off_by_default_everywhere():
    """Tracing must be structurally absent unless asked for."""
    result = Runner().run("latency-taildrop-burst", fast=True)
    assert "trace" not in result.metrics
    for name in scenario_names():
        assert get_scenario(name).spec.trace is None, name


def test_max_spans_cap_preserves_attribution():
    runner = Runner()
    full = runner.run("latency-red-burst", fast=True, trace=True)
    capped = runner.run("latency-red-burst", fast=True,
                        trace=TraceSpec(max_spans=16))
    snap = capped.metrics["trace"]
    assert snap["counters"]["truncated_spans"] > 0
    assert all(s["seq"] < 16 for s in snap["spans"])
    assert snap["attribution"] == full.metrics["trace"]["attribution"]
    assert snap["counters"]["dispatched"] == \
        full.metrics["trace"]["counters"]["dispatched"]
