"""Unit coverage of the span tracer fold (spec, truncation, state)."""

import pytest

from repro.core.commands import CommandType
from repro.trace import TraceCollector, TraceSnapshot, TraceSpec
from repro.trace.spans import validate_trace_dict


class _Drop:
    """Structural stand-in for a rejected enqueue's DroppedSegment."""

    def __init__(self, reason):
        self.reason = reason


def _rec(*stage_fields):
    """A completion record with the given stage bounds (the tracer
    reads none of the cycle fields)."""
    return stage_fields + (0.0, 0.0, 0.0, 0.0)


def _feed(tracer, n=4, drop_at=(), data=True):
    """n dispatches + completions with simple synthetic bounds."""
    for seq in range(n):
        result = _Drop("test: full") if seq in drop_at else object()
        tracer.on_command(1000 * seq, CommandType.ENQUEUE, seq % 2,
                          result, seq, 2 * seq)
    for seq in range(n):
        submit = 1000 * seq
        start = submit + 100
        end = start + 50
        dsub = end if data else -1
        ddone = end + 300 if data else -1
        tracer.on_record(_rec(ddone if data else end, seq,
                              CommandType.ENQUEUE, seq % 2,
                              submit, start, end, dsub, ddone))


def test_spec_rejects_negative_cap():
    with pytest.raises(ValueError):
        TraceSpec(max_spans=-1)


def test_fold_counters_and_attribution():
    tracer = TraceCollector(TraceSpec())
    _feed(tracer, n=4, drop_at=(2,))
    snap = tracer.snapshot()
    c = snap.counters
    assert c["dispatched"] == 4 and c["completed"] == 4
    assert c["by_op"] == {"enqueue": 4}
    assert c["dropped_commands"] == 1
    assert c["drops_by_reason"] == {"test: full": 1}
    # 3 stages per command (fifo + execute + data)
    assert c["spans"] == 12 and len(snap.spans) == 12
    a = snap.attribution
    assert a["fifo_ps"] == 4 * 100
    assert a["dqm_ps"] == 4 * 50
    assert a["dmc_ddr_ps"] == 4 * 300
    assert a["total_ps"] == 4 * 450  # submit .. data_done
    assert a["shares"]["fifo"] == a["fifo_ps"] / a["total_ps"]
    assert validate_trace_dict(snap.to_dict()) == []


def test_span_rows_join_dispatch_verdicts():
    tracer = TraceCollector(TraceSpec())
    _feed(tracer, n=3, drop_at=(1,))
    spans = tracer.snapshot().spans
    by_id = {s["id"]: s for s in spans}
    assert by_id["0/fifo"]["verdict"] == "accept"
    assert by_id["1/execute"]["verdict"] == "drop:test: full"
    assert by_id["2/data"]["begin_ps"] < by_id["2/data"]["end_ps"]
    # snapshot order: dispatch seq, then within-command stage order
    assert [s["id"] for s in spans[:3]] == ["0/fifo", "0/execute",
                                            "0/data"]


def test_pointer_only_commands_skip_fifo_and_data_spans():
    tracer = TraceCollector(TraceSpec())
    tracer.on_command(0, CommandType.MOVE, 0, object(), 0, 0)
    tracer.on_record(_rec(500, 0, CommandType.MOVE, 0,
                          -1, 400, 500, -1, -1))
    snap = tracer.snapshot()
    assert [s["stage"] for s in snap.spans] == ["execute"]
    assert snap.attribution["fifo_ps"] == 0
    assert snap.attribution["total_ps"] == 100  # start .. end


def test_truncation_caps_spans_not_attribution():
    capped = TraceCollector(TraceSpec(max_spans=2))
    full = TraceCollector(TraceSpec())
    _feed(capped, n=5)
    _feed(full, n=5)
    snap = capped.snapshot()
    assert snap.counters["truncated_commands"] == 3
    assert snap.counters["truncated_spans"] == 3
    assert {s["seq"] for s in snap.spans} == {0, 1}
    # the integer attribution keeps folding past the cap
    assert snap.attribution == full.snapshot().attribution
    assert validate_trace_dict(snap.to_dict()) == []


def test_state_round_trip_and_split_fold_identity():
    whole = TraceCollector(TraceSpec())
    _feed(whole, n=6, drop_at=(3,))

    split = TraceCollector(TraceSpec())
    _feed(split, n=3)
    resumed = TraceCollector(TraceSpec())
    resumed.load_state(split.state_dict())
    for seq in range(3, 6):
        result = _Drop("test: full") if seq == 3 else object()
        resumed.on_command(1000 * seq, CommandType.ENQUEUE, seq % 2,
                           result, seq, 2 * seq)
        submit = 1000 * seq
        resumed.on_record(_rec(submit + 450, seq, CommandType.ENQUEUE,
                               seq % 2, submit, submit + 100,
                               submit + 150, submit + 150, submit + 450))
    assert resumed.snapshot().to_dict() == whole.snapshot().to_dict()


def test_load_state_rejects_mismatched_cap():
    tracer = TraceCollector(TraceSpec(max_spans=8))
    state = TraceCollector(TraceSpec()).state_dict()
    with pytest.raises(ValueError, match="max_spans"):
        tracer.load_state(state)


def test_snapshot_from_dict_validates():
    tracer = TraceCollector(TraceSpec())
    _feed(tracer, n=2)
    d = tracer.snapshot().to_dict()
    assert TraceSnapshot.from_dict(d).to_dict() == d
    bad = dict(d, counters=dict(d["counters"], spans=999))
    assert any("counters.spans" in p for p in validate_trace_dict(bad))
    with pytest.raises(ValueError):
        TraceSnapshot.from_dict(bad)
    mangled = dict(d, spans=[dict(d["spans"][0], stage="warp")]
                   + d["spans"][1:])
    assert any("unknown" in p for p in validate_trace_dict(mangled))
