"""The Runner: execute a scenario spec, return a typed result.

The Runner is the single execution path for every published artifact:
the CLI, the benchmarks, the serving daemon and the examples all
funnel through :meth:`Runner.run`.  Knob overrides
(``engine``, ``seed``, ``budget``/``fast``, ``mms``) are applied through
:meth:`ScenarioSpec.with_options`, so each scenario honors exactly the
knobs it declares.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional

from repro.core.mms import MmsConfig
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.result import RunResult, jsonify
from repro.scenarios.spec import ScenarioSpec
from repro.telemetry import TelemetrySpec
from repro.trace.spans import TraceSpec


class Runner:
    """Executes registered scenarios (or ad-hoc resolved specs).

    ``events`` is an optional :class:`repro.monitor.events.EventSink`:
    when present, every run emits ``run.start`` / ``run.finish`` /
    ``run.fail`` lifecycle events to it.  Like every monitoring knob it
    defaults to off, and the plain path never imports
    :mod:`repro.monitor` at all (the ``bench_monitor`` gate asserts
    this structurally).
    """

    def __init__(self, events=None) -> None:
        self.events = events

    def run(self, name: str, *,
            engine: Optional[str] = None,
            seed: Optional[int] = None,
            budget: Optional[str] = None,
            fast: Optional[bool] = None,
            mms: Optional[MmsConfig] = None,
            telemetry=None, trace=None,
            resources: bool = False) -> RunResult:
        """Run one scenario by name with optional knob overrides.

        ``fast`` is sugar for ``budget="fast"`` / ``"full"`` and must
        not be combined with an explicit ``budget``.  ``telemetry``
        enables the streaming probe for scenarios that support it:
        ``True`` for the default :class:`TelemetrySpec`, or an explicit
        spec; the snapshot lands in ``result.metrics["telemetry"]``.
        There is no off-switch (the ``latency-*`` family is always
        probed); passing ``False`` is rejected rather than silently
        ignored.  ``trace`` follows the same discipline with
        :class:`TraceSpec`, landing in ``result.metrics["trace"]``.
        ``resources=True`` profiles the run's rusage delta (CPU
        seconds, max RSS, wall) into ``result.metrics["resources"]``.
        """
        if fast is not None:
            if budget is not None:
                raise ValueError("pass either fast= or budget=, not both")
            budget = "fast" if fast else "full"
        if telemetry is True:
            telemetry = TelemetrySpec()
        if trace is True:
            trace = TraceSpec()
        scenario = get_scenario(name)
        spec = scenario.spec.with_options(engine=engine, seed=seed,
                                          budget=budget, mms=mms,
                                          telemetry=telemetry, trace=trace)
        return self.run_spec(spec, resources=resources)

    def run_spec(self, spec: ScenarioSpec, *,
                 resources: bool = False) -> RunResult:
        """Run an already-resolved spec (must be a registered name)."""
        scenario = get_scenario(spec.name)
        profiler = None
        if resources:
            from repro.monitor.resources import ResourceProfiler
            profiler = ResourceProfiler()
        if self.events is not None:
            self.events.emit("run", "start", spec.name,
                             scenario=spec.name,
                             engine=spec.effective_engine,
                             seed=spec.seed,
                             extra={"budget": spec.budget})
        t0 = time.perf_counter()
        try:
            outcome = scenario.execute(spec)
        except BaseException as exc:
            if self.events is not None:
                self.events.emit(
                    "run", "fail", spec.name, scenario=spec.name,
                    engine=spec.effective_engine, seed=spec.seed,
                    extra={"reason": f"{type(exc).__name__}: {exc}"})
            raise
        wall = time.perf_counter() - t0
        metrics = jsonify(outcome.metrics)
        if profiler is not None:
            metrics["resources"] = profiler.profile()
        result = RunResult(
            scenario=spec.name,
            kind=spec.kind,
            engine=spec.effective_engine,
            seed=spec.seed,
            budget=spec.budget,
            wall_clock_s=wall,
            metrics=metrics,
            paper_deltas=jsonify(outcome.paper_deltas),
            blocks=outcome.blocks,
        )
        if self.events is not None:
            extra = {"wall_clock_s": round(wall, 6)}
            if profiler is not None:
                extra["resources"] = metrics["resources"]
            self.events.emit("run", "finish", spec.name,
                             scenario=spec.name,
                             engine=spec.effective_engine,
                             seed=spec.seed, extra=extra)
        return result

    def run_many(self, names: Optional[Iterable[str]] = None, *,
                 engine: Optional[str] = None,
                 seed: Optional[int] = None,
                 budget: Optional[str] = None,
                 fast: Optional[bool] = None,
                 telemetry=None, trace=None,
                 resources: bool = False) -> List[RunResult]:
        """Run several scenarios (default: every registered one)."""
        if names is None:
            names = scenario_names()
        return [self.run(n, engine=engine, seed=seed, budget=budget,
                         fast=fast, telemetry=telemetry, trace=trace,
                         resources=resources)
                for n in names]
