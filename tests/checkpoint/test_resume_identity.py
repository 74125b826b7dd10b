"""Differential resume-identity fuzz: split anywhere, resume, compare.

The checkpoint contract is *byte* identity, not statistical sameness: a
run split at a random rest point, serialized through JSON, and resumed
in a fresh process-equivalent (new engine objects, re-derived feeders)
must produce the same traces, dispatch log, full completion records,
drop records, telemetry snapshot and final functional state as an unbroken
run.  This suite fuzzes that over:

* rich mixed-op scripts (every command type) on the stream engine,
  with multi-split chains (resume of a resume),
* the same scripts on the kernel engine's replay-anchored checkpoints,
* all four latency-family policies (taildrop, red, dynamic-threshold,
  lqd) under the overload workload, on both engines,
* drained overload scripts (closed-loop ``queued_packets`` probing and
  shared counters crossing the checkpoint boundary),
* edge splits: before the first event and after the workload drained,
* one-bank DMC splits at a handoff that ties with a DMC step, at a
  pending DMC issue over a queued backlog, and 1 ps before each.

The observation machinery is borrowed from the engine-equivalence fuzz
(``tests/engines/test_stream_fuzz``) so "everything observable" means
exactly what it means there.
"""

import dataclasses
import json
import random

import pytest

from repro.checkpoint import (
    Checkpoint,
    CheckpointError,
    KernelRun,
    StreamRun,
    functional_digest,
    kernel_runs,
    overload_params,
    script_params,
)
from repro.core.commands import CommandType
from repro.core.mms import MmsConfig
from repro.engines.stream import DMC_ISSUE, DMC_TOP
from repro.policies import PolicySpec
from repro.telemetry import ProbeChain, TelemetrySpec
from repro.telemetry.probe import REC_DATA_SUBMIT
from tests.engines.test_stream_fuzz import (
    ACCESS_CYCLE_PS,
    Capture,
    HORIZON,
    TELE_SPEC,
    RecordLog,
    _capture_mem,
    assert_identical,
    make_mixed_scripts,
    run_stream,
)

MIXED_CFG = MmsConfig(num_flows=16, num_segments=4096,
                      num_descriptors=2048)

LATENCY_POLICIES = (
    PolicySpec("taildrop"),
    PolicySpec("red"),
    PolicySpec("dynamic-threshold", alpha=1.0),
    PolicySpec("lqd"),
)


def _attach(run: StreamRun) -> Capture:
    """Hook one engine segment the way the engine fuzz does."""
    cap = Capture()
    _capture_mem(cap, run.eng.pqm.mem)
    eng = run.eng
    eng.trace_hook = lambda cmd, result, trace: cap.cmds.append(
        (cmd[0].value, cmd[1], repr(result), len(trace), eng.now))
    return cap


def _finalize(run: StreamRun, caps, horizon=HORIZON) -> Capture:
    """Fold per-segment captures plus the finished run's record-derived
    observables into one full-run Capture (the restored ``_done`` list
    spans the whole run, so completion records and telemetry come from
    the final engine alone)."""
    cap = Capture()
    cap.traces = [t for c in caps for t in c.traces]
    cap.cmds = [c_ for c in caps for c_ in c.cmds]
    records = run.eng.completion_records(horizon)
    for record in records:
        run.probe.on_record(record)
    cap.records = records
    cap.telemetry = json.dumps(run.probe.snapshot().to_dict())
    cap.snapshot_final(run.eng.pqm, run.eng.policy, run.eng.now,
                       run.eng.commands_executed)
    return cap


def _dmc_state(eng) -> tuple:
    """The DMC's registers, pending step and queued requests."""
    return (list(eng._bank_free), eng._last_islot, eng._last_was_read,
            eng._dmc_step, eng._dmc_req, [list(r) for r in eng._dmc_queue])


def split_stream_run(params, split_points):
    """Drive a StreamRun, checkpointing and resuming (through a full
    JSON round-trip) at every split point; returns the finished run and
    everything captured.  Each resume must restore the DMC exactly."""
    run = StreamRun.fresh("script", params)
    caps = [_attach(run)]
    for at in sorted(split_points):
        run.run(at)
        blob = run.checkpoint().to_json()
        resumed = StreamRun.resume(Checkpoint.from_json(blob))
        assert _dmc_state(resumed.eng) == _dmc_state(run.eng)
        run = resumed
        caps.append(_attach(run))
    run.run(HORIZON)
    return run, _finalize(run, caps)


def run_stream_with_splits(params, split_points) -> Capture:
    """:func:`split_stream_run`, capture only."""
    return split_stream_run(params, split_points)[1]


def _span(cap: Capture) -> int:
    """The active span of a captured run: the last command dispatch
    time (the run's final ``now`` is just the horizon)."""
    return cap.cmds[-1][4]


@pytest.mark.parametrize("seed", [1, 7, 2005])
def test_mixed_scripts_stream_split_identical(seed):
    scripts = make_mixed_scripts(seed)
    unbroken = run_stream(MIXED_CFG, [list(s) for s in scripts])
    span = _span(unbroken)
    rng = random.Random(seed * 97 + 5)
    params = script_params(MIXED_CFG, scripts, horizon_ps=HORIZON,
                           telemetry=TELE_SPEC)
    # two independent single splits plus one two-split chain
    for splits in ([rng.randrange(1, span)],
                   [rng.randrange(1, span)],
                   sorted(rng.randrange(1, span) for _ in range(2))):
        assert_identical(unbroken, run_stream_with_splits(params, splits))


def test_mixed_scripts_stream_edge_splits():
    scripts = make_mixed_scripts(1)
    unbroken = run_stream(MIXED_CFG, [list(s) for s in scripts])
    params = script_params(MIXED_CFG, scripts, horizon_ps=HORIZON,
                           telemetry=TELE_SPEC)
    # before the first event, and after every feeder drained (but
    # short of the horizon: the final clock must still agree)
    assert_identical(unbroken, run_stream_with_splits(params, [0]))
    assert_identical(unbroken,
                     run_stream_with_splits(params, [HORIZON // 2]))


# ------------------------------------------- splits at DMC instants

def _dmc_split_instants(params, handoffs):
    """Two rest points where a split cuts through DMC work: a data
    handoff instant at which a DMC loop-top step is also due (the tie
    the DMC pass orders), and an instant with a DMC_ISSUE step pending
    over a non-empty queue.  Found by stepping one run from 1 ps before
    each access-cycle instant to the next."""
    run = StreamRun.fresh("script", params)
    eng = run.eng
    tie = issue = None
    at = ACCESS_CYCLE_PS - 1
    while tie is None or issue is None:
        assert at < HORIZON, "script never backed the DMC up"
        run.run(at)
        step = eng._dmc_step
        if tie is None and at + 1 in handoffs \
                and step == (at + 1, DMC_TOP):
            tie = at + 1
        if issue is None and step is not None \
                and step[1] == DMC_ISSUE and eng._dmc_queue:
            issue = at
        at += ACCESS_CYCLE_PS
    return tie, issue


@pytest.mark.parametrize("overlap_data", [True, False],
                         ids=["overlapped", "serialized"])
def test_one_bank_splits_at_dmc_instants_identical(overlap_data):
    """A one-bank DMC backs up; splitting at a handoff that ties with a
    DMC step, at a pending issue over a queued backlog, and 1 ps before
    each, must reproduce the unbroken run's records, final words and
    final DMC state."""
    cfg = dataclasses.replace(MIXED_CFG, num_banks=1,
                              overlap_data=overlap_data)
    params = script_params(cfg, make_mixed_scripts(1), horizon_ps=HORIZON,
                           telemetry=TELE_SPEC)
    whole, unbroken = split_stream_run(params, [])
    handoffs = {r[REC_DATA_SUBMIT] for r in unbroken.records}
    tie, issue = _dmc_split_instants(params, handoffs)
    for at in (tie, tie - 1, issue, issue - 1):
        run, split = split_stream_run(params, [at])
        assert_identical(unbroken, split)
        assert _dmc_state(run.eng) == _dmc_state(whole.eng), at


def test_schema_1_checkpoint_is_refused():
    """Schema-1 stream checkpoints scheduled the DMC on the wake heap;
    resuming one under the DMC pass would silently drop those steps."""
    params = script_params(MIXED_CFG, make_mixed_scripts(1),
                           horizon_ps=HORIZON, telemetry=TELE_SPEC)
    run = StreamRun.fresh("script", params)
    run.run(400_000)
    doc = json.loads(run.checkpoint().to_json())
    doc["schema"] = 1
    machine = doc["state"]["machine"]
    machine["wakes"].append([400_000 + ACCESS_CYCLE_PS, machine["seq"] + 1,
                             4, None])  # a schema-1 DMC loop-top wake
    with pytest.raises(CheckpointError, match="schema"):
        Checkpoint.from_dict(doc)


def _log_kernel_records(monkeypatch) -> list:
    """Chain a :class:`RecordLog` behind every KernelRun's probe; the
    returned list collects one log per run built."""
    logs = []
    build = kernel_runs._build_probes

    def build_logged(params):
        telemetry, tracer, probe = build(params)
        log = RecordLog()
        logs.append(log)
        return telemetry, tracer, ProbeChain([probe, log])

    monkeypatch.setattr(kernel_runs, "_build_probes", build_logged)
    return logs


@pytest.mark.parametrize("seed", [1, 7])
def test_mixed_scripts_kernel_split_identical(seed, monkeypatch):
    logs = _log_kernel_records(monkeypatch)
    scripts = make_mixed_scripts(seed)
    params = script_params(MIXED_CFG, scripts, horizon_ps=HORIZON,
                           telemetry=TELE_SPEC)
    whole = KernelRun.fresh("script", params)
    base = whole.finish()
    base_digest = functional_digest(whole.mms, whole.store)
    base_tel = json.dumps(whole.telemetry.snapshot().to_dict())

    rng = random.Random(seed + 31)
    split = rng.randrange(1, _probe_span(whole.telemetry))
    run = KernelRun.fresh("script", params)
    run.run(split)
    blob = run.checkpoint().to_json()
    resumed = KernelRun.resume(Checkpoint.from_json(blob))
    assert resumed.finish() == base
    assert functional_digest(resumed.mms, resumed.store) == base_digest
    assert json.dumps(resumed.telemetry.snapshot().to_dict()) == base_tel
    # full completion records: split == unbroken == the stream engine
    assert logs[-1].records == logs[0].records
    assert logs[0].records == \
        run_stream(MIXED_CFG, [list(s) for s in scripts]).records


# ---------------------------------------------- latency-family policies

def _probe_span(probe) -> int:
    """The last telemetry occupancy sample's time: inside the active
    region of the run by construction."""
    return probe.state_dict()["series"][-1][0]


def _latency_cfg(policy: PolicySpec) -> MmsConfig:
    from repro.policies.harness import OVERLOAD_MMS_CFG
    return dataclasses.replace(OVERLOAD_MMS_CFG, policy=policy,
                               policy_seed=11, policy_records=True)


def _overload_state(run) -> tuple:
    """Everything a latency scenario observes: the typed result, the
    policy books (DropRecords included) and the telemetry snapshot."""
    result = run.finish()
    if isinstance(run, StreamRun):
        policy = run.eng.policy
    else:
        policy = run.mms.policy
    return (result, policy.state_dict(),
            json.dumps(run.probe.snapshot().to_dict()))


@pytest.mark.parametrize("policy", LATENCY_POLICIES,
                         ids=lambda p: p.name)
def test_latency_policies_stream_split_identical(policy):
    params = overload_params(_latency_cfg(policy), "burst",
                             num_arrivals=240, active_flows=32,
                             telemetry=TelemetrySpec())
    whole = StreamRun.fresh("overload", params)
    base = _overload_state(whole)
    span = _probe_span(whole.probe)
    rng = random.Random(hash(policy.name) & 0xFFFF)
    for _ in range(2):
        run = StreamRun.fresh("overload", params)
        run.run(rng.randrange(1, span))
        blob = run.checkpoint().to_json()
        resumed = StreamRun.resume(Checkpoint.from_json(blob))
        assert _overload_state(resumed) == base


@pytest.mark.parametrize("policy", LATENCY_POLICIES,
                         ids=lambda p: p.name)
def test_latency_policies_kernel_split_identical(policy):
    params = overload_params(_latency_cfg(policy), "burst",
                             num_arrivals=240, active_flows=32,
                             telemetry=TelemetrySpec(),
                             engine_label="reference")
    whole = KernelRun.fresh("overload", params)
    base = _overload_state(whole)
    span = _probe_span(whole.probe)
    run = KernelRun.fresh("overload", params)
    run.run(random.Random(len(policy.name)).randrange(1, span))
    blob = run.checkpoint().to_json()
    resumed = KernelRun.resume(Checkpoint.from_json(blob))
    assert _overload_state(resumed) == base


# ----------------------------------------- drained scripts (counters)

def make_overload_op_lists(seed, per_port=90, active_flows=12):
    """Enqueue-only random ingress scripts as plain op lists (the
    drained-script workload encodes these into checkpoint params)."""
    rng = random.Random(seed)
    scripts = []
    for _port in range(3):
        items = []
        open_left = 0
        flow = 0
        for _i in range(per_port):
            if open_left == 0 and rng.random() < 0.4:
                items.append(rng.randrange(0, 200000))
            if open_left == 0:
                flow = rng.randrange(active_flows)
                open_left = rng.randrange(1, 4)
            open_left -= 1
            items.append((CommandType.ENQUEUE, flow, None,
                          open_left == 0, 64))
        scripts.append(items)
    return scripts


@pytest.mark.parametrize("seed", [3, 19])
def test_drained_scripts_stream_split_identical(seed):
    """The hard feeder case: a closed-loop drain probing
    ``queued_packets`` and bumping shared counters across the split."""
    cfg = MmsConfig(num_flows=16, num_segments=40, num_descriptors=36,
                    policy=PolicySpec("red"), policy_seed=11,
                    policy_records=True)
    scripts = make_overload_op_lists(seed)
    params = script_params(cfg, scripts, horizon_ps=HORIZON,
                           mark_done=True, drain=True,
                           drain_period_ps=2 * round(10.5 * 8000),
                           drain_active_flows=12, telemetry=TELE_SPEC)

    whole = StreamRun.fresh("script", params)
    caps = [_attach(whole)]
    whole.run(HORIZON)
    base = _finalize(whole, caps)
    base_counters = dict(whole.store)
    span = _span(base)

    rng = random.Random(seed * 13 + 1)
    splits = sorted(rng.randrange(1, span) for _ in range(2))
    run = StreamRun.fresh("script", params)
    caps = [_attach(run)]
    for at in splits:
        run.run(at)
        blob = run.checkpoint().to_json()
        run = StreamRun.resume(Checkpoint.from_json(blob))
        caps.append(_attach(run))
    run.run(HORIZON)
    assert_identical(base, _finalize(run, caps))
    assert dict(run.store) == base_counters
    assert base_counters["dequeued"] > 0
    assert run.eng.policy.stats.dropped_segments > 0, \
        "fuzz case never exercised the policy"
