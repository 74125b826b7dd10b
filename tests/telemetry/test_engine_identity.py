"""Acceptance criterion: byte-identical telemetry JSON across engines.

For every ``latency-*`` scenario (and the ``overload-*`` family run
with the telemetry knob), ``engine="fast"`` and ``engine="reference"``
must produce *byte-identical* telemetry payloads -- histogram buckets,
percentile summaries, occupancy series, counters -- because telemetry
is a deterministic fold over the dispatch/record streams the
engine-identity suite already proves equal.
"""

import json

import pytest

from repro.scenarios import Runner, catalog, scenario_names
from repro.scenarios.registry import scenarios_of_kind
from repro.telemetry import MmsTelemetry
from repro.telemetry.probe import (
    REC_DATA_SUBMIT,
    REC_E2E,
    REC_SEQ,
    REC_SUBMIT,
)

LATENCY_NAMES = [s.spec.name for s in scenarios_of_kind("latency")]


def _tele_json(result):
    return json.dumps(result.metrics["telemetry"], sort_keys=True)


def test_latency_family_is_complete():
    assert len(LATENCY_NAMES) == 12
    assert {n.split("-")[1] for n in LATENCY_NAMES} == \
        {"taildrop", "red", "dt", "lqd"}
    assert {n.split("-")[2] for n in LATENCY_NAMES} == \
        {"burst", "sustained", "incast"}


@pytest.mark.parametrize("name", LATENCY_NAMES)
def test_latency_scenarios_byte_identical_across_engines(name):
    runner = Runner()
    ref = runner.run(name, engine="reference", fast=True)
    fast = runner.run(name, engine="fast", fast=True)
    assert _tele_json(ref) == _tele_json(fast)
    # the full metrics payload (drop counters, percentiles pulled up to
    # top level) must agree too
    assert json.dumps(ref.metrics, sort_keys=True) == \
        json.dumps(fast.metrics, sort_keys=True)
    assert ref.engine == "reference" and fast.engine == "fast"


class _RecordingTelemetry(MmsTelemetry):
    """The standard telemetry probe, keeping every record it folds."""

    runs = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.records = []
        _RecordingTelemetry.runs.append(self)

    def on_record(self, record):
        self.records.append(record)
        super().on_record(record)


def test_telemetry_only_probe_gets_identical_full_records(monkeypatch):
    """With tracing off, the telemetry probe alone still receives the
    full completion record -- dispatch seq and picosecond stage bounds
    included -- and both engines deliver the identical stream."""
    monkeypatch.setattr(catalog, "MmsTelemetry", _RecordingTelemetry)
    monkeypatch.setattr(_RecordingTelemetry, "runs", [])
    runner = Runner()
    ref = runner.run("latency-lqd-burst", engine="reference", fast=True)
    fast = runner.run("latency-lqd-burst", engine="fast", fast=True)
    assert "trace" not in ref.metrics and "trace" not in fast.metrics
    ref_probe, fast_probe = _RecordingTelemetry.runs
    records = ref_probe.records
    assert records and fast_probe.records == records
    assert {len(r) for r in records} == {REC_E2E + 1}
    # every dispatched command completes once, seq in dispatch order
    assert sorted(r[REC_SEQ] for r in records) == list(range(len(records)))
    assert any(r[REC_SUBMIT] >= 0 for r in records)
    assert any(r[REC_DATA_SUBMIT] >= 0 for r in records)
    assert any(r[REC_DATA_SUBMIT] < 0 for r in records)


@pytest.mark.parametrize("name", ["overload-red-sustained",
                                  "overload-lqd-incast"])
def test_overload_with_telemetry_knob_byte_identical(name):
    runner = Runner()
    ref = runner.run(name, engine="reference", fast=True, telemetry=True)
    fast = runner.run(name, engine="fast", fast=True, telemetry=True)
    assert _tele_json(ref) == _tele_json(fast)


def test_latency_metrics_expose_percentile_headlines():
    result = Runner().run("latency-taildrop-burst", fast=True)
    for key in ("enqueue_e2e_p50", "enqueue_e2e_p99", "enqueue_e2e_max",
                "dequeue_e2e_p99", "occupancy_peak", "drop_rate"):
        assert key in result.metrics, key
    snap = result.metrics["telemetry"]
    assert snap["schema"] == 1
    assert snap["counters"]["dropped_commands"] > 0
    assert snap["occupancy"]["peak_total"] > 0
    assert snap["occupancy"]["series"], "occupancy series empty"


def test_telemetry_off_by_default_outside_latency_family():
    """Probes must be structurally absent unless asked for."""
    result = Runner().run("overload-taildrop-burst", fast=True)
    assert "telemetry" not in result.metrics
    for name in scenario_names():
        if not name.startswith("latency-"):
            from repro.scenarios.registry import get_scenario
            assert get_scenario(name).spec.telemetry is None, name
