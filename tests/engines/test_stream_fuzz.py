"""Differential fuzz: random command streams, kernel vs stream machine.

Random per-port scripts (mixed MMS operations, random sleeps, random
seeds) are replayed twice -- through the reference heapq kernel (the full
``MMS`` with ``drive_port`` adapters) and through the command-stream
machine -- and everything observable must be byte-identical:

* the ordered per-operation pointer-access traces (``AccessRecord``
  lists, push-out walks included), which on each engine must account
  for every pointer access the run counted (no op bypasses the
  ``start_trace``/``end_trace`` bracket),
* the per-command dispatch log (operation, flow, functional result,
  trace length, dispatch time),
* the completion-record stream (delivery order, the picosecond
  delivery times, dispatch seq, stage bounds and cycle split), and the
  kernel's Table 5 breakdown feed agreeing with its cycle fields,
* the buffer-policy counters and the full typed ``DropRecord`` stream,
* the telemetry fold (``repro.telemetry``): histogram buckets and
  percentile summaries, occupancy series and peaks, throughput/drop
  counters -- the serialized snapshot must be byte-identical,
* the final functional state: pointer-memory words, per-region access
  counters, free-list occupancy, per-flow queue depths.

Three families are generated: rich mixed-op scripts with no policy
(every command type, per-port flow ownership keeps the scripts valid
under any legal interleaving); the same scripts on one- and two-bank
DMCs with the data path overlapped and serialized, where the DMC queue
backs up and handoffs tie with DMC steps; and enqueue-heavy overload
scripts against a tiny buffer for each of the four policies, with the
closed-loop probing drain of the overload harness (push-outs, drops and
descriptor exhaustion all exercised).
"""

import json
import random

import pytest

from repro.core.commands import DATA_WRITE_COMMANDS, CommandType
from repro.core.mms import MMS, MmsConfig
from repro.core.workloads import drive_port, overload_drain_ops
from repro.engines import StreamMms, stream_supports
from repro.mem.timing import DdrTiming
from repro.policies import PolicySpec
from repro.sim.clock import NS, SEC
from repro.sim.kernel import make_simulator
from repro.telemetry import MmsTelemetry, Probe, ProbeChain, TelemetrySpec
from repro.telemetry.probe import (
    REC_DATA,
    REC_DATA_DONE,
    REC_DATA_SUBMIT,
    REC_E2E,
    REC_EXECUTION,
    REC_FIFO,
    REC_OP,
    REC_SEQ,
    REC_TIME,
)

HORIZON = SEC  # far beyond any script's span

OPS = CommandType

#: Telemetry config of the fuzz replays: a small stride so the
#: occupancy series is dense enough to catch divergence.
TELE_SPEC = TelemetrySpec(sample_every=4)


class Capture:
    """Everything observable from one replay."""

    def __init__(self):
        self.traces = []    # ordered end_trace() payloads
        self.cmds = []      # (op, flow, result-repr, trace_len, time)
        self.records = []   # full completion records
        self.telemetry = ""  # serialized MmsTelemetry snapshot
        self.accesses_at_start = 0
        self.final = {}

    def snapshot_final(self, pqm, policy, now, commands_executed):
        mem = pqm.mem
        self.final = {
            "words": dict(mem._sram._words),
            "reads": dict(mem.reads_by_region),
            "writes": dict(mem.writes_by_region),
            "sram_counts": (mem._sram.read_count, mem._sram.write_count),
            "free": (pqm.free_segments, pqm.free_descriptors),
            "queued_p": list(pqm._queued_packets),
            "queued_s": list(pqm._queued_segments),
            "shadow": dict(pqm._seg_shadow),
            "now": now,
            "executed": commands_executed,
        }
        if policy is not None:
            s = policy.stats
            self.final["policy"] = (
                s.offered_segments, s.offered_bytes, s.accepted_segments,
                s.accepted_bytes, s.dropped_segments, s.dropped_bytes,
                s.pushed_out_segments, s.pushed_out_bytes,
                tuple(s.records),
                dict(policy.queue_segments), policy.total_segments,
                policy.total_bytes,
            )


class RecordLog(Probe):
    """Keeps every completion record the engine delivers."""

    def __init__(self):
        self.records = []

    def on_record(self, record):
        self.records.append(record)


def _cycle_parts(records):
    """The ``record_parts`` feed a completion-record stream implies."""
    return [(r[REC_TIME], r[REC_FIFO], r[REC_EXECUTION], r[REC_DATA],
             r[REC_E2E]) for r in records]


def _capture_mem(cap, mem):
    cap.accesses_at_start = mem.total_accesses
    orig_end = mem.end_trace

    def end_trace():
        trace = orig_end()
        cap.traces.append(tuple(trace))
        return trace

    mem.end_trace = end_trace


def assert_traces_cover_accesses(cap, mem):
    """Every pointer access the run counted sits inside some operation's
    ``start_trace``/``end_trace`` bracket: an op that bypassed it would
    silently drop out of the trace comparison."""
    assert sum(map(len, cap.traces)) \
        == mem.total_accesses - cap.accesses_at_start


def run_reference(config, scripts, drain_counters=None,
                  drain_period=None, active_flows=0):
    cap = Capture()
    tel = MmsTelemetry(TELE_SPEC)
    log = RecordLog()
    mms = MMS(config, sim=make_simulator("reference"),
              probe=ProbeChain([tel, log]))
    sim = mms.sim
    _capture_mem(cap, mms.pqm.mem)

    orig_dispatch = mms.dqm._dispatch

    def dispatch(cmd):
        out = orig_dispatch(cmd)
        cap.cmds.append((cmd.type.value, cmd.flow, repr(out[0]), out[1],
                         sim.now))
        return out

    mms.dqm._dispatch = dispatch

    orig_rec = mms.breakdown.record_parts
    parts = []

    def record_parts(fifo_cycles, execution_cycles, data_cycles,
                     end_to_end_cycles=0.0):
        parts.append((sim.now, fifo_cycles, execution_cycles,
                      data_cycles, end_to_end_cycles))
        orig_rec(fifo_cycles, execution_cycles, data_cycles,
                 end_to_end_cycles)

    mms.breakdown.record_parts = record_parts

    for port, script in enumerate(scripts):
        sim.spawn(drive_port(mms, port, iter(script)), name=f"fz{port}")
    if drain_counters is not None:
        sim.spawn(drive_port(mms, 3, overload_drain_ops(
            mms.pqm.queued_packets, active_flows, drain_period,
            drain_counters)), name="drain")
    sim.run(until_ps=HORIZON)
    # the breakdown and the probe see one completion per command
    assert parts == _cycle_parts(log.records)
    assert_traces_cover_accesses(cap, mms.pqm.mem)
    cap.records = log.records
    cap.telemetry = json.dumps(tel.snapshot().to_dict())
    cap.snapshot_final(mms.pqm, mms.policy, sim.now,
                       mms.dqm.commands_executed)
    if drain_counters is not None:
        cap.final["drained"] = drain_counters["dequeued"]
    return cap


def run_stream(config, scripts, drain_counters=None,
               drain_period=None, active_flows=0):
    cap = Capture()
    tel = MmsTelemetry(TELE_SPEC)
    eng = StreamMms(config, probe=tel)
    _capture_mem(cap, eng.pqm.mem)
    eng.trace_hook = lambda cmd, result, trace: cap.cmds.append(
        (cmd[0].value, cmd[1], repr(result), len(trace), eng.now))
    for port, script in enumerate(scripts):
        eng.add_feeder(port, iter(script))
    if drain_counters is not None:
        eng.add_feeder(3, overload_drain_ops(
            eng.pqm.queued_packets, active_flows, drain_period,
            drain_counters))
    eng.run(HORIZON)
    assert_traces_cover_accesses(cap, eng.pqm.mem)
    records = eng.completion_records(HORIZON)
    for record in records:
        tel.on_record(record)
    cap.telemetry = json.dumps(tel.snapshot().to_dict())
    cap.records = records
    cap.snapshot_final(eng.pqm, eng.policy, eng.now,
                       eng.commands_executed)
    if drain_counters is not None:
        cap.final["drained"] = drain_counters["dequeued"]
    return cap


def assert_identical(ref, fast):
    assert ref.cmds == fast.cmds
    assert ref.traces == fast.traces
    assert ref.records == fast.records
    assert ref.telemetry == fast.telemetry
    assert ref.final == fast.final


# ========================================== mixed-op script generation

class _FlowModel:
    """Per-flow shadow used only to generate *valid* scripts: queued
    packets as lists of segment lengths, plus the open packet."""

    def __init__(self):
        self.packets = []   # list[list[int]]
        self.open_segs = 0


def make_mixed_scripts(seed, num_ports=4, length=140, flows_per_port=3):
    """Per-port scripts over port-owned flows (flow % num_ports == port),
    so validity is preserved under per-port FIFO order regardless of the
    cross-port interleaving."""
    rng = random.Random(seed)
    scripts = [[] for _ in range(num_ports)]
    model = {}

    def owned(port):
        return [port + num_ports * k for k in range(flows_per_port)]

    for port in range(num_ports):
        for f in owned(port):
            model[f] = _FlowModel()

    def cmd(op, flow, dst=None, eop=True, length_=64):
        return (op, flow, dst, eop, length_)

    for port in range(num_ports):
        script = scripts[port]
        flows = owned(port)
        emitted = 0
        while emitted < length:
            if rng.random() < 0.3:
                script.append(rng.randrange(0, 60000))
            f = rng.choice(flows)
            m = model[f]
            choices = ["enq"]
            if m.packets:
                choices += ["deq", "read", "overwrite", "del_seg",
                            "del_pkt", "append_head", "ow_len"]
                if m.packets[0][-1] == 64 and len(m.packets[0]) < 6:
                    choices.append("append_tail")
                others = [g for g in flows if g != f]
                if others:
                    choices += ["move", "ow_move", "ow_len_move"]
            what = rng.choice(choices)
            if what == "enq":
                nsegs = rng.randrange(1, 4)
                last_len = rng.randrange(1, 65)
                for s in range(nsegs):
                    eop = s == nsegs - 1
                    script.append(cmd(OPS.ENQUEUE, f, eop=eop,
                                      length_=last_len if eop else 64))
                m.packets.append([64] * (nsegs - 1) + [last_len])
            elif what in ("deq", "del_seg"):
                op = OPS.DEQUEUE if what == "deq" else OPS.DELETE
                script.append(cmd(op, f))
                head = m.packets[0]
                head.pop(0)
                if not head:
                    m.packets.pop(0)
            elif what == "read":
                script.append(cmd(OPS.READ, f))
            elif what == "overwrite":
                script.append(cmd(OPS.OVERWRITE, f))
            elif what == "del_pkt":
                script.append(cmd(OPS.DELETE_PACKET, f))
                m.packets.pop(0)
            elif what == "append_head":
                script.append(cmd(OPS.APPEND_HEAD, f))
                m.packets[0].insert(0, 64)
            elif what == "append_tail":
                ln = rng.randrange(1, 65)
                script.append(cmd(OPS.APPEND_TAIL, f, length_=ln))
                m.packets[0][-1] = 64
                m.packets[0].append(ln)
            elif what == "ow_len":
                head = m.packets[0]
                ln = rng.randrange(1, 65) if len(head) == 1 else 64
                script.append(cmd(OPS.OVERWRITE_LENGTH, f, length_=ln))
                head[0] = ln
            else:
                dst = rng.choice([g for g in flows if g != f])
                md = model[dst]
                head = m.packets.pop(0)
                if what == "move":
                    script.append(cmd(OPS.MOVE, f, dst=dst))
                elif what == "ow_move":
                    script.append(cmd(OPS.OVERWRITE_MOVE, f, dst=dst))
                else:
                    ln = rng.randrange(1, 65) if len(head) == 1 else 64
                    script.append(cmd(OPS.OVERWRITE_LENGTH_MOVE, f,
                                      dst=dst, length_=ln))
                    head[0] = ln
                md.packets.append(head)
            emitted += 1
    return scripts


@pytest.mark.parametrize("seed", [1, 7, 2005])
def test_mixed_op_streams_identical(seed):
    config = MmsConfig(num_flows=16, num_segments=4096,
                       num_descriptors=2048)
    scripts = make_mixed_scripts(seed)
    assert_identical(run_reference(config, scripts),
                     run_stream(config, scripts))


# ======================================== policy overload script fuzz

def make_overload_scripts(seed, per_port=90, active_flows=12):
    """Three enqueue-only ingress scripts (random flows, bursts, eop
    patterns) that mark themselves done for the probing drain."""
    rng = random.Random(seed)
    counters = {"dequeued": 0}
    scripts = []
    for port in range(3):
        items = []
        open_left = 0
        flow = 0
        for i in range(per_port):
            if open_left == 0 and rng.random() < 0.4:
                items.append(rng.randrange(0, 200000))
            if open_left == 0:
                flow = rng.randrange(active_flows)
                open_left = rng.randrange(1, 4)
            open_left -= 1
            items.append((OPS.ENQUEUE, flow, None, open_left == 0, 64))

        def feeder(script=tuple(items)):
            yield from script
            counters["feeders_done"] = counters.get("feeders_done", 0) + 1

        scripts.append(feeder())
    return scripts, counters


@pytest.mark.parametrize("policy", ["taildrop", "red", "dynamic-threshold",
                                    "lqd"])
def test_policy_overload_streams_identical(policy):
    spec = PolicySpec(name=policy, alpha=0.75) \
        if policy == "dynamic-threshold" else PolicySpec(name=policy)
    config = MmsConfig(num_flows=16, num_segments=40, num_descriptors=36,
                       policy=spec, policy_seed=11, policy_records=True)
    drain_period = 2 * round(10.5 * 8000)
    for seed in (3, 19):
        ref_scripts, ref_counters = make_overload_scripts(seed)
        fast_scripts, fast_counters = make_overload_scripts(seed)
        ref = run_reference(config, ref_scripts,
                            drain_counters=ref_counters,
                            drain_period=drain_period, active_flows=12)
        fast = run_stream(config, fast_scripts,
                          drain_counters=fast_counters,
                          drain_period=drain_period, active_flows=12)
        assert_identical(ref, fast)
        assert ref.final["policy"][4] > 0, "fuzz case never dropped"


# ============================================== DMC backlog tie family

DDR = DdrTiming()
ACCESS_CYCLE_PS = DDR.access_cycle_ns * NS


def count_tie_sensitive_arrivals(records, pipeline_ps):
    """Data handoffs that land on an access-cycle instant while an
    older request is still waiting to issue: the arrivals whose
    visibility to a DMC pick at that same instant is decided by the
    kernel's push order (the stream engine's tie rule)."""
    data = sorted((r for r in records if r[REC_DATA_SUBMIT] >= 0),
                  key=lambda r: r[REC_SEQ])
    count = 0
    latest_issue = -1
    for r in data:
        submit = r[REC_DATA_SUBMIT]
        if submit % ACCESS_CYCLE_PS == 0 and latest_issue > submit:
            count += 1
        delay_ns = DDR.write_delay_ns if r[REC_OP] in DATA_WRITE_COMMANDS \
            else DDR.read_delay_ns
        latest_issue = max(latest_issue,
                           r[REC_DATA_DONE] - delay_ns * NS - pipeline_ps)
    return count


@pytest.mark.parametrize("num_banks", [1, 2])
@pytest.mark.parametrize("overlap_data", [True, False],
                         ids=["overlapped", "serialized"])
def test_dmc_backlog_streams_identical(num_banks, overlap_data):
    """With one or two banks the DMC queue backs up, so handoffs land
    on access-cycle instants while older requests still wait: the DMC
    pass must order each such arrival against a same-instant loop-top
    step exactly as the kernel does, on both sides of the tie rule
    (overlapped handoffs run before the cycle, serialized ones after
    it)."""
    config = MmsConfig(num_flows=16, num_segments=4096,
                       num_descriptors=2048, num_banks=num_banks,
                       overlap_data=overlap_data)
    assert stream_supports(config) is None
    sensitive = 0
    for seed in range(1, 9):
        ref = run_reference(config, make_mixed_scripts(seed))
        fast = run_stream(config, make_mixed_scripts(seed))
        assert_identical(ref, fast)
        sensitive += count_tie_sensitive_arrivals(
            ref.records, config.dmc_pipeline_ns * NS)
    assert sensitive > 0, "no handoff ever tied with a waiting DMC"
