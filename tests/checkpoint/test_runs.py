"""Checkpointable run drivers: harness equivalence, structural
absence of checkpoint machinery on the plain path, and driver
validation."""

import dataclasses
import inspect
import json
import types

import pytest

from repro.checkpoint import (
    Checkpoint,
    CheckpointError,
    KernelRun,
    StreamRun,
    config_from_dict,
    overload_params,
    resume_run,
    run_with_checkpoints,
    script_params,
    snapshot_stream,
)
from repro.core.mms import MmsConfig
from repro.engines.stream import StreamMms
from repro.policies import PolicySpec
from repro.policies import harness
from repro.policies.harness import OVERLOAD_MMS_CFG, run_overload


def _overload(engine_label="fast", **kw):
    spec = PolicySpec("red")
    cfg = dataclasses.replace(OVERLOAD_MMS_CFG, policy=spec,
                              policy_seed=11, policy_records=True)
    return overload_params(cfg, "burst", num_arrivals=240,
                           active_flows=32, engine_label=engine_label,
                           **kw)


# ----------------------------------------------- harness equivalence

def test_stream_run_matches_plain_harness():
    """A checkpointable overload run must reproduce the plain harness
    byte-for-byte -- the instrumentation is observationally free."""
    base = run_overload(PolicySpec("red"), "burst", num_arrivals=240,
                        active_flows=32, seed=11, engine="fast",
                        keep_records=True)
    run = StreamRun.fresh("overload", _overload())
    assert run.finish() == base


def test_kernel_run_matches_plain_harness():
    base = run_overload(PolicySpec("red"), "burst", num_arrivals=240,
                        active_flows=32, seed=11, engine="reference",
                        keep_records=True)
    run = KernelRun.fresh("overload", _overload("reference"))
    assert run.finish() == base


def test_script_finish_is_engine_identical():
    """Both drivers finish a ``script`` run alike: one result shape, and
    every completion record replayed to the probe."""
    from tests.engines.test_stream_fuzz import (
        HORIZON, TELE_SPEC, make_mixed_scripts)
    cfg = MmsConfig(num_flows=16, num_segments=4096, num_descriptors=2048)
    params = script_params(cfg, make_mixed_scripts(1), horizon_ps=HORIZON,
                           telemetry=TELE_SPEC)
    stream = StreamRun.fresh("script", params)
    kernel = KernelRun.fresh("script", params)
    assert stream.finish() == kernel.finish()
    telemetry = stream.telemetry.snapshot().to_dict()
    assert telemetry["histograms"]
    assert json.dumps(telemetry) \
        == json.dumps(kernel.telemetry.snapshot().to_dict())


@pytest.mark.parametrize("driver, label", [(StreamRun, "fast"),
                                           (KernelRun, "reference")])
def test_checkpoint_with_keep_samples_param_resumes(driver, label):
    """Checkpoints written while ``MmsConfig`` still had ``keep_samples``
    carry ``"keep_samples": false`` in their config params; they must
    still resume to the unbroken run's result."""
    base = driver.fresh("overload", _overload(label)).finish()
    run = driver.fresh("overload", _overload(label))
    run.run(run.horizon // 4)
    doc = run.checkpoint().to_dict()
    doc["params"]["config"]["keep_samples"] = False
    resumed = resume_run(Checkpoint.from_json(json.dumps(doc)))
    assert resumed.finish() == base


def test_resume_run_dispatches_by_engine():
    stream = StreamRun.fresh("overload", _overload())
    stream.run(stream.horizon // 4)
    kernel = KernelRun.fresh("overload", _overload("reference"))
    kernel.run(kernel.horizon // 4)
    assert isinstance(resume_run(stream.checkpoint()), StreamRun)
    assert isinstance(resume_run(kernel.checkpoint()), KernelRun)


# ---------------------------------------------- structural absence

def test_plain_harness_path_carries_no_checkpoint_machinery(monkeypatch):
    """When checkpointing is off, it is *structurally* absent: the
    plain ``run_overload`` path hands the engine raw generators (no
    tape wrappers, no counter views), so the hot path pays nothing."""
    machines = []
    build = harness.machine_for

    def capture(*args, **kwargs):
        machines.append(build(*args, **kwargs))
        return machines[-1]

    monkeypatch.setattr(harness, "machine_for", capture)
    run_overload(PolicySpec("red"), "burst", num_arrivals=240,
                 active_flows=32, seed=11, engine="fast")
    (eng,) = machines
    assert isinstance(eng, StreamMms)
    assert len(eng._feeders) == 4
    assert all(isinstance(f, types.GeneratorType) for f in eng._feeders)
    # and the snapshotter refuses such an engine rather than silently
    # producing a checkpoint that cannot resume
    with pytest.raises(CheckpointError, match="CountedFeeder"):
        snapshot_stream(eng)


@pytest.mark.parametrize("module_name", [
    "repro.engines.stream",
    "repro.core.workloads",
    "repro.core.mms",
    "repro.policies.harness",
])
def test_plain_path_sources_never_import_checkpoint(module_name):
    import importlib
    src = inspect.getsource(importlib.import_module(module_name))
    for stmt in ("import repro.checkpoint", "from repro.checkpoint",
                 "from repro import checkpoint"):
        assert stmt not in src, \
            f"{module_name} must not depend on the checkpoint package"


# ------------------------------------------------------- validation

def test_unknown_workloads_are_rejected():
    with pytest.raises(CheckpointError, match="unknown stream workload"):
        StreamRun("quantum", {})
    with pytest.raises(CheckpointError, match="unknown kernel workload"):
        KernelRun("load", {})


def test_resume_rejects_engine_mismatch():
    stream = StreamRun.fresh("overload", _overload())
    stream.run(1_000_000)
    ckpt = stream.checkpoint()
    with pytest.raises(CheckpointError, match="cannot resume"):
        KernelRun.resume(ckpt)
    kernel = KernelRun.fresh("overload", _overload("reference"))
    kernel.run(1_000_000)
    with pytest.raises(CheckpointError, match="cannot resume"):
        StreamRun.resume(kernel.checkpoint())


def test_kernel_resume_refuses_tampered_anchor():
    run = KernelRun.fresh("overload", _overload("reference"))
    run.run(run.horizon // 4)
    doc = run.checkpoint().to_dict()
    doc["state"]["fingerprint"]["digest"] = "0" * 64
    with pytest.raises(CheckpointError, match="did not re-anchor"):
        KernelRun.resume(Checkpoint.from_dict(doc))


#: Overload arguments ``run_overload`` refuses, with the message it
#: refuses them with.
BAD_OVERLOAD_ARGS = [
    ({"shape": "bogus"}, "unknown shape"),
    ({"num_arrivals": 0}, "num_arrivals must be >= 1"),
    ({"active_flows": 0}, "active_flows must be in"),
]


@pytest.mark.parametrize("driver, label", [(StreamRun, "fast"),
                                           (KernelRun, "reference")])
@pytest.mark.parametrize("bad, message", BAD_OVERLOAD_ARGS,
                         ids=["shape", "num_arrivals", "active_flows"])
def test_overload_drivers_validate_like_run_overload(driver, label, bad,
                                                     message):
    """The checkpoint drivers refuse what ``run_overload`` refuses, on a
    fresh run and on a resumed checkpoint (a file from disk is outside
    input) alike."""
    args = {"shape": "burst", "num_arrivals": 240, "active_flows": 32,
            **bad}
    with pytest.raises(ValueError, match=message):
        run_overload(PolicySpec("red"), args["shape"],
                     num_arrivals=args["num_arrivals"],
                     active_flows=args["active_flows"], seed=11,
                     engine=label)
    cfg = config_from_dict(_overload(label)["config"])
    params = overload_params(cfg, args.pop("shape"), engine_label=label,
                             **args)
    with pytest.raises(ValueError, match=message):
        driver.fresh("overload", params)

    good = driver.fresh("overload", _overload(label))
    good.run(good.horizon // 4)
    doc = good.checkpoint().to_dict()
    doc["params"].update(bad)
    with pytest.raises(ValueError, match=message):
        resume_run(Checkpoint.from_dict(doc))


def test_script_params_drain_needs_three_mark_done_scripts():
    cfg = MmsConfig(num_flows=16, num_segments=64, num_descriptors=64)
    with pytest.raises(CheckpointError, match="exactly 3"):
        script_params(cfg, [[1000], [1000]], horizon_ps=10**9,
                      mark_done=True, drain=True, drain_period_ps=1000,
                      drain_active_flows=4)
    with pytest.raises(CheckpointError, match="mark_done"):
        script_params(cfg, [[1000]] * 3, horizon_ps=10**9,
                      mark_done=False, drain=True, drain_period_ps=1000,
                      drain_active_flows=4)


# ----------------------------------------------- periodic checkpoints

def test_run_with_checkpoints_counts_interior_boundaries():
    run = StreamRun.fresh("overload", _overload())
    sunk = []
    horizon = run.horizon
    every = horizon // 4
    n = run_with_checkpoints(run, every, sunk.append)
    assert n == len(sunk) == 3          # the final state is not sunk
    assert [c.at_ps for c in sunk] == [every, 2 * every, 3 * every]
    assert run.now == horizon


def test_run_with_checkpoints_rejects_nonpositive_period():
    run = StreamRun.fresh("overload", _overload())
    with pytest.raises(CheckpointError, match="positive"):
        run_with_checkpoints(run, 0, lambda c: None)
