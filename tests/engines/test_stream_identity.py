"""Trace identity of the command-stream machine vs the DES kernels.

The acceptance bar of ``repro.engines`` is equality, not tolerance:
every harness the machine claims must return *equal* results (every
dataclass field except the engine label) against the heapq reference
kernel, and the calendar kernel must agree with both.
"""

import dataclasses

import pytest

from repro.core.mms import MmsConfig, run_load, run_saturation
from repro.core.scheduler import PortConfig
from repro.engines import StreamMms, stream_supports
from repro.policies import PolicySpec
from repro.policies.harness import SHAPES, run_overload
from repro.scenarios import Runner

#: Small but structurally faithful MMS build for identity runs.
CFG = MmsConfig(num_flows=256, num_segments=4096, num_descriptors=2048)


def same_result(a, b):
    return all(getattr(a, f.name) == getattr(b, f.name)
               for f in dataclasses.fields(a) if f.name != "engine")


# ------------------------------------------------------------ run_load

@pytest.mark.parametrize("load", [1.6, 5.8, 6.5])
def test_run_load_identical_to_reference(load):
    kw = dict(num_volleys=220, config=CFG, warmup_volleys=40,
              active_flows=128)
    ref = run_load(load, engine="reference", **kw)
    fast = run_load(load, engine="fast", **kw)
    assert same_result(ref, fast)
    assert fast.engine == "fast"


def test_run_load_all_three_engines_agree():
    kw = dict(num_volleys=150, config=CFG, warmup_volleys=30,
              active_flows=128)
    ref = run_load(4.0, engine="reference", **kw)
    cal = run_load(4.0, engine="calendar", **kw)
    fast = run_load(4.0, engine="fast", **kw)
    assert same_result(ref, cal)
    assert same_result(ref, fast)


def test_run_load_identical_with_serialized_data_path():
    """The A5 ablation flag (overlap_data=False) is claimed too."""
    cfg = dataclasses.replace(CFG, overlap_data=False)
    kw = dict(num_volleys=150, config=cfg, warmup_volleys=30,
              active_flows=128)
    assert same_result(run_load(4.0, engine="reference", **kw),
                       run_load(4.0, engine="fast", **kw))


@pytest.mark.parametrize("warmup_volleys", [30, 45])
def test_run_load_warmup_past_every_record_matches_reference(
        warmup_volleys):
    """No record lies beyond the warm-up boundary (30 volleys complete
    120 records): both engines fall back to the full-run means, and at
    exact equality ``t0`` is the last record's time (elapsed 0)."""
    kw = dict(num_volleys=30, config=CFG, warmup_volleys=warmup_volleys,
              active_flows=128)
    ref = run_load(4.0, engine="reference", **kw)
    fast = run_load(4.0, engine="fast", **kw)
    assert same_result(ref, fast)
    assert fast.completed_ops == 120
    assert (fast.elapsed_ps == 0) == (warmup_volleys * 4 == 120)


# ------------------------------------------------------ run_saturation

def test_run_saturation_identical_to_reference():
    ref = run_saturation(1600, config=CFG, active_flows=128,
                         engine="reference")
    fast = run_saturation(1600, config=CFG, active_flows=128,
                          engine="fast")
    assert same_result(ref, fast)


# -------------------------------------------------------- run_overload

@pytest.mark.parametrize("policy", ["taildrop", "red", "dynamic-threshold",
                                    "lqd"])
def test_run_overload_counters_identical(policy):
    for shape in SHAPES:
        ref = run_overload(PolicySpec(name=policy), shape,
                           num_arrivals=360, engine="reference")
        fast = run_overload(PolicySpec(name=policy), shape,
                            num_arrivals=360, engine="fast")
        assert ref.counters() == fast.counters(), (policy, shape)
        assert (ref.policy, ref.shape) == (fast.policy, fast.shape)


# ----------------------------------------------------- scenario routing

def test_table5_scenario_routes_through_stream_and_matches():
    """The acceptance criterion: Runner().run("table5", engine="fast")
    is trace-identical to engine="reference"."""
    small = MmsConfig(num_flows=512, num_segments=8192,
                      num_descriptors=4096)
    runner = Runner()
    ref = runner.run("table5", engine="reference", fast=True, mms=small)
    fast = runner.run("table5", engine="fast", fast=True, mms=small)
    assert ref.metrics == fast.metrics
    assert ref.paper_deltas == fast.paper_deltas
    assert ref.blocks == fast.blocks


def test_overload_scenario_identical_on_both_engines():
    runner = Runner()
    ref = runner.run("overload-dt-incast", engine="reference", fast=True)
    fast = runner.run("overload-dt-incast", engine="fast", fast=True)
    assert ref.metrics == fast.metrics


# --------------------------------------------------- capability gating

def test_stream_supports_default_configs():
    assert stream_supports(MmsConfig()) is None
    assert stream_supports(CFG) is None


def test_stream_rejects_custom_ports():
    ports = tuple(PortConfig(n, priority=0, fifo_depth=3)
                  for n in ("in", "out", "cpu0", "cpu1"))
    cfg = dataclasses.replace(CFG, ports=ports)
    reason = stream_supports(cfg)
    assert reason is not None and "port" in reason
    with pytest.raises(ValueError, match="port"):
        StreamMms(cfg)


def test_unsupported_config_falls_back_to_kernel():
    """engine="fast" on a backpressure study still runs (via the
    calendar kernel) and still matches the reference."""
    ports = tuple(PortConfig(n, priority=0, fifo_depth=1)
                  for n in ("in", "out", "cpu0", "cpu1"))
    cfg = dataclasses.replace(CFG, ports=ports)
    kw = dict(num_volleys=120, config=cfg, warmup_volleys=20,
              active_flows=128)
    ref = run_load(4.0, engine="reference", **kw)
    fast = run_load(4.0, engine="fast", **kw)
    assert same_result(ref, fast)


def test_stream_rejects_colliding_completion_grid():
    # 120 ns pipeline + 40 ns write delay = 160 ns == 20 MMS cycles:
    # write completions would land on the clock grid
    cfg = dataclasses.replace(CFG, dmc_pipeline_ns=120)
    assert stream_supports(cfg) is not None


@pytest.mark.parametrize("overrides, load", [
    (dict(dmc_pipeline_ns=5), 4.0),
    (dict(clock_mhz=50), 4.0),
    (dict(clock_mhz=25), 1.6),
], ids=["pipeline-5ns", "clock-50MHz", "clock-25MHz"])
def test_transfers_finishing_before_the_tail_fall_back_to_kernel(
        overrides, load):
    """A transfer that can complete before its command's schedule
    tail gets its data-done and record instants from the kernel's
    finalize, not from the raw completion: the machine declines such
    configs, and engine="fast" still matches the reference."""
    cfg = dataclasses.replace(CFG, **overrides)
    reason = stream_supports(cfg)
    assert reason is not None and "tail" in reason
    kw = dict(num_volleys=300, config=cfg, warmup_volleys=20,
              active_flows=128)
    assert same_result(run_load(load, engine="reference", **kw),
                       run_load(load, engine="fast", **kw))


def test_stream_rejects_handoffs_straddling_the_access_cycle():
    """At 200 MHz on the serialized data path some data handoffs fall
    exactly on the 40 ns access cycle: the DMC tie order is then not
    one rule, so the machine declines."""
    cfg = dataclasses.replace(CFG, clock_mhz=200, dmc_pipeline_ns=137,
                              overlap_data=False)
    reason = stream_supports(cfg)
    assert reason is not None and "handoff" in reason


def test_run_resumes_across_horizons_like_the_kernel():
    """run() must leave the first over-horizon wake scheduled, so a
    split run reaches the same state as one long run (kernel
    contract)."""
    from repro.core.workloads import saturation_feed_ops

    def build():
        eng = StreamMms(CFG)
        eng.prefill(range(128), packets_per_flow=10)
        for port, (enqueue, phase) in enumerate(((True, 0), (False, 0),
                                                 (True, 1), (False, 1))):
            eng.add_feeder(port,
                           saturation_feed_ops(enqueue, phase, 250, 128))
        return eng

    one = build()
    one.run(10**9)
    split = build()
    split.run(10**5)
    assert split.commands_executed < one.commands_executed
    split.run(10**9)
    assert split.commands_executed == one.commands_executed
    assert split.completion_records(10**9) == one.completion_records(10**9)
