"""Operational monitoring: event log, resource profiles, metrics.

Slow-path observability substrate (never imported from hot paths):

* :mod:`repro.monitor.events` -- schema-validated append-only JSONL
  lifecycle log (:class:`EventSink`, :class:`Event`);
* :mod:`repro.monitor.resources` -- per-task rusage profiling
  (:class:`ResourceProfiler`);
* :mod:`repro.monitor.metrics` -- Counter/Gauge/Rate registry with
  Prometheus-text and JSON exposition;
* :mod:`repro.monitor.progress` -- journal-directory folding for the
  ``watch`` / ``sweep-status`` / ``report`` CLI (imported on demand;
  not re-exported here to keep the package root import-light).
"""

from repro.monitor.events import (
    EVENT_ACTIONS,
    EVENT_KINDS,
    EVENT_SCHEMA,
    EVENTS_FILENAME,
    Event,
    EventSink,
    events_path,
    read_events,
    validate_event_dict,
)
from repro.monitor.metrics import (
    METRICS_SCHEMA,
    Counter,
    Gauge,
    MetricsRegistry,
    Rate,
    parse_prometheus_text,
    validate_metrics_dict,
)
from repro.monitor.resources import (
    RESOURCES_SCHEMA,
    ResourceProfiler,
    validate_resources_dict,
)

__all__ = [
    "EVENT_ACTIONS",
    "EVENT_KINDS",
    "EVENT_SCHEMA",
    "EVENTS_FILENAME",
    "Event",
    "EventSink",
    "events_path",
    "read_events",
    "validate_event_dict",
    "METRICS_SCHEMA",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Rate",
    "parse_prometheus_text",
    "validate_metrics_dict",
    "RESOURCES_SCHEMA",
    "ResourceProfiler",
    "validate_resources_dict",
]
