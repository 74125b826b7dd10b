"""The stream harnesses' one-pass record fold is the kernel's Welford.

``fold_cycle_means`` replaces feeding two ``LatencyBreakdown``s per
completion record; perfbench and the identity suites require its means
to equal the kernel path's bit for bit, so it must reproduce
``RunningStats``' recurrence exactly, not just approximately.
"""

from hypothesis import given, settings, strategies as st

from repro.engines.harnesses import fold_cycle_means
from repro.sim.stats import RunningStats
from repro.telemetry.probe import REC_DATA, REC_E2E, REC_EXECUTION, REC_FIFO

_FIELDS = (REC_FIFO, REC_EXECUTION, REC_DATA, REC_E2E)

_VALUE = st.one_of(
    st.integers(min_value=0, max_value=10 ** 7),
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
)


def _record(values):
    rec = [0] * 13
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
