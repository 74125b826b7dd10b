"""The one record fold both engines' results come from.

Every Table 5 / headline result -- kernel or stream, plain harness or
checkpointed run -- is ``fold_cycle_means`` over a warm window of the
run's completion records.  Nothing checks the kernel path
independently any more, so this file pins the fold itself: the means
must follow ``RunningStats``' recurrence bit for bit, the warm-up
window must keep its record-order semantics at every edge, and two
small runs must keep the values they had when the kernel path still
fed its own running means.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mms import MmsConfig, run_load, run_saturation
from repro.core.workloads import (
    assemble_load_result,
    fold_cycle_means,
    warm_window,
)
from repro.sim.stats import RunningStats
from repro.telemetry.probe import (
    REC_DATA,
    REC_E2E,
    REC_EXECUTION,
    REC_FIFO,
    REC_TIME,
)

_FIELDS = (REC_FIFO, REC_EXECUTION, REC_DATA, REC_E2E)

_VALUE = st.one_of(
    st.integers(min_value=0, max_value=10 ** 7),
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
)


def _record(values, time_ps=0):
    rec = [0] * 13
    rec[REC_TIME] = time_ps
    for field, value in zip(_FIELDS, values):
        rec[field] = value
    return tuple(rec)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_VALUE, _VALUE, _VALUE, _VALUE), max_size=60))
def test_fold_means_are_bit_identical_to_running_stats(rows):
    stats = [RunningStats() for _ in _FIELDS]
    for row in rows:
        for s, value in zip(stats, row):
            s.add(value)
    count, *means = fold_cycle_means([_record(row) for row in rows])
    assert count == len(rows)
    assert [float(m).hex() for m in means] \
        == [float(s.mean).hex() for s in stats]


def test_fold_of_no_records_is_zero():
    assert fold_cycle_means([]) == (0, 0.0, 0.0, 0.0, 0.0)


# ------------------------------------------------ warm-up window edges

#: Four records at 100..400 ps: (fifo, execution, data, end_to_end).
_ROWS = ((1, 10, 20, 31), (2, 11, 22, 35), (3, 10, 24, 37), (6, 11, 26, 43))
_RECORDS = [_record(row, 100 * (i + 1)) for i, row in enumerate(_ROWS)]
#: Means over all four records and over the last two.
_ALL = (4, 3.0, 10.5, 23.0, 36.5)
_LAST_TWO = (2, 4.5, 10.5, 25.0, 40.0)


@pytest.mark.parametrize("boundary, t0, window_means", [
    (0, 0, _ALL),            # no warm-up: everything, from time 0
    (2, 200, _LAST_TWO),     # interior: after the second record
    (4, 400, _ALL),          # == count: t0 is the last record, nothing
                             # lies beyond it, so every record counts
    (5, 0, _ALL),            # past the records: as if no warm-up
], ids=["zero", "interior", "at-count", "past-count"])
def test_warm_window_edges(boundary, t0, window_means):
    got_t0, t_last, window = warm_window(_RECORDS, boundary)
    assert (got_t0, t_last) == (t0, 400)
    assert fold_cycle_means(window) == pytest.approx(window_means)


@pytest.mark.parametrize("boundary", [0, 3])
def test_warm_window_of_no_records(boundary):
    assert warm_window([], boundary) == (0, 0, [])


@pytest.mark.parametrize("warmup_volleys, elapsed_ps", [(0, 400), (1, 0),
                                                        (2, 400)])
def test_load_result_elapsed_and_means(warmup_volleys, elapsed_ps):
    """A volley is four commands: one warm-up volley puts the boundary
    exactly at the fourth (last) record."""
    row = assemble_load_result(_RECORDS, warmup_volleys, 4.8, "fast")
    assert row.elapsed_ps == elapsed_ps
    assert (row.completed_ops, row.fifo_cycles, row.execution_cycles,
            row.data_cycles, row.end_to_end_cycles) \
        == pytest.approx(_ALL)


# ---------------------------------------------------- golden results

_SMALL = MmsConfig(num_flows=64, num_segments=1024, num_descriptors=1024)


def _golden(result):
    return (result.completed_ops, result.elapsed_ps,
            result.fifo_cycles.hex(), result.execution_cycles.hex(),
            result.data_cycles.hex(), result.end_to_end_cycles.hex())


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_small_load_golden(engine):
    res = run_load(4.8, num_volleys=120, config=_SMALL, active_flows=32,
                   warmup_volleys=20, engine=engine)
    assert _golden(res) == (400, 42660000, "0x1.86bf1758e2193p+4",
                            "0x1.5000000000000p+3", "0x1.ad05714b9cb68p+4",
                            "0x1.a9e244523f67dp+5")


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_small_saturation_golden(engine):
    res = run_saturation(num_commands=400, config=_SMALL, active_flows=32,
                         engine=engine)
    assert _golden(res) == (400, 33600000, "0x1.f3c28f5c28f58p+5",
                            "0x1.4fffffffffffep+3", "0x1.3699999999997p+5",
                            "0x1.9d2e147ae147bp+6")
